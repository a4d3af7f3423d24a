"""Multipath trace files: a diff-friendly CSV exchange format.

A trace stores one row per ray, grouped by the altitude sample it
belongs to, under a versioned header that also carries the arc radius
and the amplitude convention.  Rays with zero interactions are the LOS
path.  Loading validates the schema, sorts delays, and converts powers
in dBm into linear path gains when the header declares them.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from .errors import TraceError
from .geometry import altitude_to_elevation
from .mpc import Mpc, Snapshot

TRACE_VERSION = 1

_HEADER_PREFIX = "# chansim-trace"
_COLUMNS = (
    "altitude_km",
    "amplitude",
    "phase_rad",
    "delay_s",
    "aod_az_deg",
    "aod_el_deg",
    "aoa_az_deg",
    "aoa_el_deg",
    "n_interactions",
)

AMPLITUDE_LINEAR = "linear"
AMPLITUDE_DBM = "dbm"


def _parse_header(line: str, path: Path) -> dict[str, str]:
    if not line.startswith(_HEADER_PREFIX):
        raise TraceError(f"{path}: line 1: missing '{_HEADER_PREFIX}' header")
    fields = line[len(_HEADER_PREFIX):].split()
    if not fields or fields[0] != f"v{TRACE_VERSION}":
        raise TraceError(f"{path}: line 1: unsupported trace version {fields[:1]}")
    meta: dict[str, str] = {}
    for item in fields[1:]:
        if "=" not in item:
            raise TraceError(f"{path}: line 1: malformed header item {item!r}")
        key, value = item.split("=", 1)
        meta[key] = value
    return meta


def load_trace(path: str | Path) -> list[Snapshot]:
    """Parse and validate a trace file into snapshots, in file order.

    Raises TraceError with the offending line number for schema
    violations, duplicate LOS rays, or an empty file.
    """
    p = Path(path)
    if not p.exists():
        raise TraceError(f"trace file not found: {p}")
    lines = p.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise TraceError(f"{p}: empty trace file")
    meta = _parse_header(lines[0], p)
    try:
        arc_radius_km = float(meta["arc_radius_km"])
    except KeyError:
        raise TraceError(f"{p}: line 1: header missing arc_radius_km") from None
    except ValueError as exc:
        raise TraceError(f"{p}: line 1: bad arc_radius_km: {exc}") from None
    amplitude_unit = meta.get("amplitude", AMPLITUDE_LINEAR)
    if amplitude_unit not in (AMPLITUDE_LINEAR, AMPLITUDE_DBM):
        raise TraceError(f"{p}: line 1: unknown amplitude unit {amplitude_unit!r}")
    p_tx_dbm = None
    if amplitude_unit == AMPLITUDE_DBM:
        try:
            p_tx_dbm = float(meta["p_tx_dbm"])
        except KeyError:
            raise TraceError(
                f"{p}: line 1: amplitude=dbm requires p_tx_dbm in the header"
            ) from None
        except ValueError as exc:
            raise TraceError(f"{p}: line 1: bad p_tx_dbm: {exc}") from None

    body = [(i, ln.strip()) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]
    if not body:
        raise TraceError(f"{p}: trace file holds no rows")
    first_no, first = body[0]
    if first.split(",")[0].strip() != _COLUMNS[0]:
        raise TraceError(f"{p}: line {first_no}: missing column header row")
    header_cols = tuple(c.strip() for c in first.split(","))
    if header_cols != _COLUMNS:
        raise TraceError(
            f"{p}: line {first_no}: columns {header_cols} do not match {_COLUMNS}"
        )

    groups: list[tuple[float, list[tuple[int, Mpc]]]] = []
    for lineno, line in body[1:]:
        parts = [f.strip() for f in line.split(",")]
        if len(parts) != len(_COLUMNS):
            raise TraceError(
                f"{p}: line {lineno}: expected {len(_COLUMNS)} fields, got {len(parts)}"
            )
        try:
            altitude = float(parts[0])
            value = float(parts[1])
            phase = float(parts[2])
            delay = float(parts[3])
            aod_az, aod_el = float(parts[4]), float(parts[5])
            aoa_az, aoa_el = float(parts[6]), float(parts[7])
            n_interactions = int(parts[8])
        except ValueError as exc:
            raise TraceError(f"{p}: line {lineno}: {exc}") from exc
        if n_interactions < 0:
            raise TraceError(f"{p}: line {lineno}: negative interaction count")
        if amplitude_unit == AMPLITUDE_DBM:
            amplitude = 10.0 ** ((value - p_tx_dbm) / 20.0)
        else:
            amplitude = value
        try:
            ray = Mpc(
                amplitude=amplitude,
                phase_rad=phase,
                delay_s=delay,
                aod_az_deg=aod_az,
                aod_el_deg=aod_el,
                aoa_az_deg=aoa_az,
                aoa_el_deg=aoa_el,
                is_los=n_interactions == 0,
            )
        except ValueError as exc:
            raise TraceError(f"{p}: line {lineno}: {exc}") from exc
        if groups and groups[-1][0] == altitude:
            groups[-1][1].append((lineno, ray))
        else:
            groups.append((altitude, [(lineno, ray)]))

    snapshots: list[Snapshot] = []
    for altitude, rays in groups:
        los_lines = [ln for ln, ray in rays if ray.is_los]
        if len(los_lines) > 1:
            raise TraceError(
                f"{p}: line {los_lines[1]}: duplicate LOS ray for altitude {altitude} km"
            )
        try:
            psi = altitude_to_elevation(altitude, arc_radius_km)
        except ValueError as exc:
            raise TraceError(f"{p}: line {rays[0][0]}: {exc}") from exc
        snapshots.append(
            Snapshot(
                psi=psi,
                distance_km=arc_radius_km,
                mpcs=tuple(r for _, r in rays),
                altitude_hint_km=altitude,
            )
        )
    return snapshots


def save_trace(snapshots: list[Snapshot], path: str | Path) -> None:
    """Write snapshots as a linear-amplitude trace; loading it back is exact."""
    if not snapshots:
        raise ValueError("nothing to save")
    arc_radius = snapshots[0].distance_km
    for snap in snapshots:
        if snap.distance_km != arc_radius:
            raise ValueError("all snapshots of a trace must share one arc radius")
    out = [
        f"{_HEADER_PREFIX} v{TRACE_VERSION} arc_radius_km={float(arc_radius)!r}"
        " amplitude=linear"
    ]
    out.append(",".join(_COLUMNS))
    for snap in snapshots:
        altitude = snap.altitude_km
        for ray in snap.mpcs:
            out.append(
                ",".join(
                    [
                        repr(float(altitude)),
                        repr(float(ray.amplitude)),
                        repr(float(ray.phase_rad)),
                        repr(float(ray.delay_s)),
                        repr(float(ray.aod_az_deg)),
                        repr(float(ray.aod_el_deg)),
                        repr(float(ray.aoa_az_deg)),
                        repr(float(ray.aoa_el_deg)),
                        "0" if ray.is_los else "1",
                    ]
                )
            )
    _atomic_write_text(Path(path), "\n".join(out) + "\n")


def _atomic_write_text(path: Path, text: str) -> None:
    """Write via a temp file and rename so partial output never lands."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
