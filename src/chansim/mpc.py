"""Multipath channel snapshots held as one columnar ray table per pass.

A snapshot collects every resolvable propagation path (MPC) seen at one
satellite elevation point.  Amplitudes are stored as linear path gains
relative to the transmitted signal so power ratios stay exact.

A ``RayTable`` stores every ray of a pass in flat float64 columns, with
a LOS flag column, per-snapshot offsets, elevations and altitudes, and
the arc radius the pass was traced on.  ``Snapshot`` and ``Mpc`` are
read-only views of one snapshot and one ray of a table.

Per-snapshot reductions run on 2-D blocks that stack the snapshots of
equal ray count, reducing along the contiguous ray axis: that keeps the
summation order of a one-snapshot ``np.sum``/``np.mean``/``np.std``,
and ``np.cumsum`` reproduces a left-to-right Python ``sum``.  Both
matter because the delay and angular spreads cancel catastrophically.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .geometry import ElevationAngle

TWO_PI = 2.0 * math.pi

COHERENT_POWER_SUM = "power-sum"
COHERENT_PHASOR_SUM = "phasor-sum"
_COHERENT_MODES = (COHERENT_POWER_SUM, COHERENT_PHASOR_SUM)

RAY_COLUMNS = (
    "amplitude",
    "phase_rad",
    "delay_s",
    "aod_az_deg",
    "aod_el_deg",
    "aoa_az_deg",
    "aoa_el_deg",
)


def _outside_azimuth(v: np.ndarray) -> np.ndarray:
    return ~((0.0 <= v) & (v < 360.0))


def _outside_elevation(v: np.ndarray) -> np.ndarray:
    return ~((-90.0 <= v) & (v <= 90.0))


# Field checks in the order they are reported when one ray breaks several.
_RAY_CHECKS = (
    ("amplitude", lambda v: v < 0.0, "amplitude must be non-negative"),
    ("delay_s", lambda v: v < 0.0, "delay must be non-negative"),
    ("aod_az_deg", _outside_azimuth, "azimuth {} outside [0, 360) deg"),
    ("aoa_az_deg", _outside_azimuth, "azimuth {} outside [0, 360) deg"),
    ("aod_el_deg", _outside_elevation, "elevation {} outside [-90, 90] deg"),
    ("aoa_el_deg", _outside_elevation, "elevation {} outside [-90, 90] deg"),
)


def first_bad_ray(columns: Mapping[str, np.ndarray]) -> tuple[int, str] | None:
    """Row and message of the first ray with a field out of range, else None."""
    masks = [(test(columns[name]), name, text) for name, test, text in _RAY_CHECKS]
    bad = np.logical_or.reduce([mask for mask, _, _ in masks])
    if not bad.any():
        return None
    row = int(np.argmax(bad))
    name, text = next((name, text) for mask, name, text in masks if mask[row])
    return row, text.format(float(columns[name][row]))


def _wrap_phase(phase: np.ndarray) -> np.ndarray:
    # A tiny negative phase wraps to a value that rounds to 2*pi; that is 0.
    wrapped = np.mod(phase, TWO_PI)
    return np.where(wrapped == TWO_PI, 0.0, wrapped)


def _readonly(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


class RayTable:
    """Every ray of a pass as flat columns, grouped by snapshot.

    The rays of snapshot ``i`` are rows ``offsets[i]:offsets[i + 1]`` of
    the ray columns (``RAY_COLUMNS`` and ``is_los``), sorted by
    non-decreasing delay.  ``psi_deg`` and ``altitude_km`` hold one value
    per snapshot; every snapshot lies on the arc of ``arc_radius_km``.
    The table is a sequence of ``Snapshot`` views.  Construction
    validates every field, normalises phases into [0, 2*pi) and sorts
    each snapshot's rays by delay, keeping the input order of ties.
    """

    __slots__ = (*RAY_COLUMNS, "is_los", "offsets", "psi_deg", "altitude_km",
                 "arc_radius_km", "_blocks")

    def __init__(
        self,
        columns: Mapping[str, Iterable[float]],
        is_los: Iterable[bool],
        offsets: Iterable[int],
        psi_deg: Iterable[float],
        altitude_km: Iterable[float],
        arc_radius_km: float,
    ) -> None:
        if not arc_radius_km > 0.0:
            raise ValueError("distance must be positive")
        cols = {name: np.asarray(columns[name], dtype=float) for name in RAY_COLUMNS}
        los = np.asarray(is_los, dtype=bool)
        offsets = np.asarray(offsets, dtype=np.int64)
        psi = np.asarray(psi_deg, dtype=float)
        altitude = np.asarray(altitude_km, dtype=float)
        n_rays = los.size
        if any(c.shape != (n_rays,) for c in cols.values()) or offsets.ndim != 1:
            raise ValueError("ray columns must be 1-D and of equal length")
        if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != n_rays:
            raise ValueError("offsets must run from 0 to the number of rays")
        if psi.shape != (offsets.size - 1,) or altitude.shape != psi.shape:
            raise ValueError("need one elevation and one altitude per snapshot")
        if np.any(np.diff(offsets) <= 0):
            raise ValueError("snapshot must contain at least one MPC")
        bad_psi = ~((0.0 < psi) & (psi <= 90.0))
        if bad_psi.any():
            raise ValueError(
                f"elevation angle must be in (0, 90] deg, got {float(psi[np.argmax(bad_psi)])}"
            )
        bad = first_bad_ray(cols)
        if bad is not None:
            raise ValueError(bad[1])
        if np.any(np.add.reduceat(los.astype(np.int64), offsets[:-1]) > 1):
            raise ValueError("at most one MPC may be flagged LOS")
        cols["phase_rad"] = _wrap_phase(cols["phase_rad"])
        snapshot_of_ray = np.repeat(np.arange(psi.size), np.diff(offsets))
        order = np.lexsort((cols["delay_s"], snapshot_of_ray))
        for name in RAY_COLUMNS:
            setattr(self, name, _readonly(cols[name][order]))
        self.is_los = _readonly(los[order])
        self.offsets = _readonly(offsets.copy())
        self.psi_deg = _readonly(psi.copy())
        self.altitude_km = _readonly(altitude.copy())
        self.arc_radius_km = float(arc_radius_km)
        self._blocks = None

    @classmethod
    def _trusted(cls, source: "RayTable", **changes) -> "RayTable":
        """Copy of ``source`` with fields replaced by already-valid arrays."""
        table = object.__new__(cls)
        for name in cls.__slots__:
            value = changes.get(name, getattr(source, name))
            setattr(table, name, _readonly(value) if isinstance(value, np.ndarray) else value)
        return table

    @classmethod
    def concat(cls, snapshots: Iterable["Snapshot"]) -> "RayTable":
        """One table holding the given snapshots in order."""
        snaps = list(snapshots)
        if not snaps:
            raise ValueError("need at least one snapshot")
        radius = snaps[0].distance_km
        if any(s.distance_km != radius for s in snaps):
            raise ValueError("all snapshots of a pass must share one arc radius")
        parts = [s.table for s in snaps]
        counts = [len(s) for s in snaps]
        return cls._trusted(
            parts[0],
            **{name: np.concatenate([getattr(p, name) for p in parts])
               for name in (*RAY_COLUMNS, "is_los", "psi_deg", "altitude_km")},
            offsets=np.concatenate([[0], np.cumsum(counts)]),
            _blocks=None,
        )

    @property
    def n_rays(self) -> int:
        return int(self.offsets[-1])

    @property
    def counts(self) -> np.ndarray:
        """Number of rays in each snapshot."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return self.psi_deg.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        n = len(self)
        if not -n <= index < n:
            raise IndexError("snapshot index out of range")
        return Snapshot._view(self, index % n)

    def __iter__(self):
        return (Snapshot._view(self, i) for i in range(len(self)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, RayTable):
            return NotImplemented
        return self.arc_radius_km == other.arc_radius_km and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in (*RAY_COLUMNS, "is_los", "offsets", "psi_deg", "altitude_km")
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"RayTable({len(self)} snapshots, {self.n_rays} rays, "
                f"arc_radius_km={self.arc_radius_km!r})")

    def take(self, snapshots: Iterable[int]) -> "RayTable":
        """Table of the given snapshots, in the given order."""
        idx = np.asarray(snapshots, dtype=np.int64).reshape(-1)
        counts = self.counts[idx]
        rows = np.repeat(self.offsets[idx] - np.concatenate([[0], np.cumsum(counts)[:-1]]),
                         counts) + np.arange(int(counts.sum()))
        return RayTable._trusted(
            self,
            **{name: getattr(self, name)[rows] for name in (*RAY_COLUMNS, "is_los")},
            offsets=np.concatenate([[0], np.cumsum(counts)]),
            psi_deg=self.psi_deg[idx],
            altitude_km=self.altitude_km[idx],
            _blocks=None,
        )

    def sorted_by_altitude(self) -> "RayTable":
        """Snapshots in non-decreasing altitude; equal altitudes keep their order."""
        order = np.argsort(self.altitude_km, kind="stable")
        if np.array_equal(order, np.arange(len(self))):
            return self
        return self.take(order)

    def with_amplitude(self, amplitude: np.ndarray) -> "RayTable":
        """Same rays with new non-negative linear amplitudes."""
        return RayTable._trusted(self, amplitude=np.array(amplitude, dtype=float))

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(snapshots, rows)`` per distinct ray count ``n``.

        ``rows`` has shape (len(snapshots), n); row ``r`` indexes the rays
        of snapshot ``snapshots[r]`` in delay order.
        """
        if self._blocks is None:
            counts = self.counts
            self._blocks = []
            # An empty table gets one empty block, so results keep their shape.
            for n in np.unique(counts) if counts.size else [1]:
                snaps = np.flatnonzero(counts == n)
                self._blocks.append((snaps, self.offsets[snaps][:, None] + np.arange(n)))
        return self._blocks

    def reduce(self, fn: Callable[..., np.ndarray], *columns: np.ndarray) -> np.ndarray:
        """Apply ``fn`` to (snapshots, rays) blocks of per-ray ``columns``.

        ``fn`` returns one value (or one row of values) per block row;
        the result is indexed by snapshot.
        """
        out = None
        for snaps, rows in self.blocks():
            part = fn(*(c[rows] for c in columns))
            if out is None:
                out = np.empty((len(self),) + part.shape[1:], dtype=part.dtype)
            out[snaps] = part
        return out

    def map_rays(self, fn: Callable[..., np.ndarray], *columns: np.ndarray) -> np.ndarray:
        """Apply ``fn`` to (snapshots, rays) blocks and scatter the result back per ray."""
        out = None
        for _, rows in self.blocks():
            part = fn(*(c[rows] for c in columns))
            if out is None:
                out = np.empty((self.n_rays,) + part.shape[2:], dtype=part.dtype)
            out[rows] = part
        return out


def running_sum(block: np.ndarray) -> np.ndarray:
    """Left-to-right sum of each block row, as Python's ``sum`` adds floats."""
    return np.cumsum(block, axis=1)[:, -1]


def as_table(rays: "RayTable | Snapshot | Iterable[Snapshot]") -> RayTable:
    """The ray table behind a table, a snapshot or a sequence of snapshots."""
    if isinstance(rays, RayTable):
        return rays
    if isinstance(rays, Snapshot):
        return rays.table
    return RayTable.concat(rays)


@dataclass(frozen=True, slots=True)
class Mpc:
    """One multipath component: a read-only row of a ray table.

    Attributes
    ----------
    amplitude : float
        Linear path gain, >= 0.
    phase_rad : float
        Carrier phase, normalised into [0, 2*pi).
    delay_s : float
        Propagation delay in seconds, >= 0.
    aod_az_deg, aod_el_deg : float
        Departure azimuth [0, 360) and elevation [-90, 90] at the satellite.
    aoa_az_deg, aoa_el_deg : float
        Arrival azimuth [0, 360) and elevation [-90, 90] at the GS.
    is_los : bool
        True for the (possibly shadowed) line-of-sight path.
    """

    amplitude: float
    phase_rad: float
    delay_s: float
    aod_az_deg: float = 0.0
    aod_el_deg: float = 0.0
    aoa_az_deg: float = 0.0
    aoa_el_deg: float = 0.0
    is_los: bool = False

    def __post_init__(self) -> None:
        # The ray table's own checks, on a one-ray column set.
        cols = {name: np.array([getattr(self, name)], dtype=float) for name in RAY_COLUMNS}
        bad = first_bad_ray(cols)
        if bad is not None:
            raise ValueError(bad[1])
        cols["phase_rad"] = _wrap_phase(cols["phase_rad"])
        for name in RAY_COLUMNS:
            object.__setattr__(self, name, float(cols[name][0]))
        object.__setattr__(self, "is_los", bool(self.is_los))

    @classmethod
    def _row(cls, table: RayTable, row: int) -> "Mpc":
        ray = object.__new__(cls)
        for name in RAY_COLUMNS:
            object.__setattr__(ray, name, float(getattr(table, name)[row]))
        object.__setattr__(ray, "is_los", bool(table.is_los[row]))
        return ray

    @property
    def power(self) -> float:
        """|amplitude * exp(j*phase)|^2, the per-path received power ratio."""
        return self.amplitude * self.amplitude


class Snapshot:
    """All MPCs observed at one elevation point of a pass: a view of a ray table.

    Constructing one from MPCs builds a one-snapshot table: MPCs are
    sorted by non-decreasing delay and at most one may be flagged as
    the LOS path.  The altitude is derived from psi and the arc radius
    unless ``altitude_hint_km`` gives the exact value, as loaders do so
    that a save/load round trip is bit-identical.
    """

    __slots__ = ("_table", "_index")

    def __init__(
        self,
        psi: ElevationAngle,
        distance_km: float,
        mpcs: Iterable[Mpc] = (),
        altitude_hint_km: float | None = None,
    ) -> None:
        mpcs = tuple(mpcs)
        altitude = distance_km * psi.sin if altitude_hint_km is None else altitude_hint_km
        self._table = RayTable(
            {name: [getattr(m, name) for m in mpcs] for name in RAY_COLUMNS},
            [m.is_los for m in mpcs],
            [0, len(mpcs)],
            [psi.psi_deg],
            [altitude],
            distance_km,
        )
        self._index = 0

    @classmethod
    def _view(cls, table: RayTable, index: int) -> "Snapshot":
        snap = object.__new__(cls)
        snap._table = table
        snap._index = index
        return snap

    @property
    def _rows(self) -> slice:
        offsets = self._table.offsets
        return slice(int(offsets[self._index]), int(offsets[self._index + 1]))

    @property
    def table(self) -> RayTable:
        """This snapshot as a one-snapshot table."""
        return self._table if len(self._table) == 1 else self._table.take([self._index])

    @property
    def psi(self) -> ElevationAngle:
        return ElevationAngle(float(self._table.psi_deg[self._index]))

    @property
    def distance_km(self) -> float:
        return self._table.arc_radius_km

    @property
    def altitude_km(self) -> float:
        """Satellite height above the GS."""
        return float(self._table.altitude_km[self._index])

    @property
    def mpcs(self) -> tuple[Mpc, ...]:
        rows = self._rows
        return tuple(Mpc._row(self._table, r) for r in range(rows.start, rows.stop))

    def __len__(self) -> int:
        rows = self._rows
        return rows.stop - rows.start

    def total_power(self) -> float:
        """Sum of per-path received power ratios."""
        a = self._table.amplitude[self._rows]
        return float(np.cumsum(a * a)[-1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return self.table == other.table

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"Snapshot(psi_deg={self.psi.psi_deg!r}, distance_km={self.distance_km!r}, "
                f"altitude_km={self.altitude_km!r}, n_mpcs={len(self)})")


def coherent_power_dbm(
    rays: RayTable | Snapshot | Iterable[Snapshot],
    mode: str = COHERENT_POWER_SUM,
    p_tx_dbm: float = 0.0,
) -> float | list[float]:
    """Aggregate received power over each snapshot's MPCs, in dBm.

    ``power-sum`` adds per-path powers |a_i exp(j chi_i)|^2 (the default),
    ``phasor-sum`` adds the complex phasors first and squares the result,
    so opposite-phase paths may cancel.  Returns ``-inf`` as an explicit
    sentinel when the summed power is zero (all-zero amplitudes, or full
    phasor cancellation).  A snapshot gives one value, a table or a
    sequence of snapshots a list with one value per snapshot.
    """
    if mode not in _COHERENT_MODES:
        raise ValueError(f"coherent mode must be one of {_COHERENT_MODES}")
    table = as_table(rays)
    a = table.amplitude
    if mode == COHERENT_POWER_SUM:
        totals = table.reduce(running_sum, a * a).tolist()
        null_floors = [0.0] * len(totals)
    else:
        re = table.reduce(running_sum, a * np.cos(table.phase_rad))
        im = table.reduce(running_sum, a * np.sin(table.phase_rad))
        # np.hypot is the C hypot that abs() of a Python complex uses.
        totals = [h ** 2 for h in np.hypot(re, im).tolist()]
        # Cancellation below double-precision resolution of the phasor sum
        # is a true null, not a -300 dB value.
        null_floors = [s ** 2 * 1e-30 for s in table.reduce(running_sum, a).tolist()]
    powers = [
        float("-inf") if total <= floor else p_tx_dbm + 10.0 * math.log10(total)
        for total, floor in zip(totals, null_floors)
    ]
    return powers[0] if isinstance(rays, Snapshot) else powers


def k_factor(snapshot: Snapshot, designate_strongest: bool = False) -> float | None:
    """Ratio of LOS power to total non-LOS power (linear).

    Returns None when the snapshot holds only the LOS path, where the
    ratio is undefined.  A snapshot without a LOS flag is a structural
    error unless ``designate_strongest`` promotes the strongest path.
    """
    table = snapshot.table
    a = table.amplitude
    flagged = np.flatnonzero(table.is_los)
    if flagged.size:
        los = int(flagged[0])
    elif a.size == 1 or not designate_strongest:
        raise ValueError(
            "snapshot has no LOS-flagged MPC; flag one or pass designate_strongest=True"
        )
    else:
        los = int(np.argmax(a))
    if a.size == 1:
        return None
    powers = a * a
    nlos_power = float(np.cumsum(np.delete(powers, los))[-1])
    if nlos_power == 0.0:
        return math.inf
    return float(powers[los]) / nlos_power
