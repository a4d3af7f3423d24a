"""Multipath channel snapshots held as one columnar ray table per pass.

A snapshot collects every resolvable propagation path (MPC) seen at one
satellite elevation point.  Amplitudes are stored as linear path gains
relative to the transmitted signal so power ratios stay exact.

A ``RayTable`` stores every ray of a pass in flat float64 columns, with
a LOS flag column, per-snapshot offsets and altitudes, and the arc
radius the pass was traced on, from which it derives each snapshot's
elevation.  It is the one input of every layer, which returns one
result per snapshot.

Per-snapshot reductions run on 2-D blocks that stack snapshots of
equal ray count, at most ``_BLOCK_RAYS`` rays a block, reducing along
the contiguous ray axis: that keeps the summation order of a
one-snapshot ``np.sum``/``np.mean``/``np.std``, and ``np.cumsum``
reproduces a left-to-right Python ``sum``.  Both matter because the
delay and angular spreads cancel catastrophically.  Since each block
row is reduced on its own, how the snapshots are split into blocks
changes no result, and the cap bounds every block's temporaries
whatever the pass's size.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Mapping

import numpy as np

from .errors import RayRowError
from .geometry import arc_elevations, check_arc_radius, first_off_arc

TWO_PI = 2.0 * math.pi

COHERENT_POWER_SUM = "power-sum"
COHERENT_PHASOR_SUM = "phasor-sum"
COHERENT_MODES = (COHERENT_POWER_SUM, COHERENT_PHASOR_SUM)

RAY_COLUMNS = ("amplitude", "phase_rad", "delay_s",
               "aod_az_deg", "aod_el_deg", "aoa_az_deg", "aoa_el_deg")

# Rays per block of ``RayTable.blocks``; a snapshot of more rays is a block
# of its own.  On a 100 x 300-ray trace (2 vCPU) a `cluster` run's peak RSS
# read 37.6, 37.8 and 38.4 MB with 1024-, 2048- and 4096-ray blocks, and
# 512-ray blocks clustered it slower.
_BLOCK_RAYS = 2048


def _outside_azimuth(v: np.ndarray) -> np.ndarray:
    return ~((0.0 <= v) & (v < 360.0))


def _outside_elevation(v: np.ndarray) -> np.ndarray:
    return ~((-90.0 <= v) & (v <= 90.0))


def _outside_non_negative(v: np.ndarray) -> np.ndarray:
    return ~((0.0 <= v) & (v < math.inf))


# Field checks in the order they are reported when one ray breaks several.
# Each is written so that NaN fails it.
_RAY_CHECKS = (
    ("amplitude", _outside_non_negative, "amplitude must be non-negative and finite, got {}"),
    ("phase_rad", lambda v: ~np.isfinite(v), "phase must be finite, got {}"),
    ("delay_s", _outside_non_negative, "delay must be non-negative and finite, got {}"),
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
    non-decreasing delay.  ``altitude_km`` holds one value per snapshot,
    each on the arc of ``arc_radius_km``, and ``psi_deg`` the elevation
    derived from it.  Iterating a table yields each snapshot's rows as a
    ``range``; ``take`` selects snapshots.  Construction, which builds
    every table, ``take``'s and ``with_amplitude``'s too, validates every
    field, normalises phases into [0, 2*pi) and sorts each snapshot's
    rays by delay, keeping the input order of ties.  A broken pass rule
    raises a ``RayRowError`` naming the input ray row: ray fields first,
    then per snapshot a second LOS ray, then an altitude off the arc.
    """

    __slots__ = (*RAY_COLUMNS, "is_los", "offsets", "psi_deg", "altitude_km", "arc_radius_km")

    def __init__(
        self,
        columns: Mapping[str, Iterable[float]],
        is_los: Iterable[bool],
        offsets: Iterable[int],
        altitude_km: Iterable[float],
        arc_radius_km: float,
    ) -> None:
        radius = check_arc_radius(arc_radius_km)
        cols = {name: np.asarray(columns[name], dtype=float) for name in RAY_COLUMNS}
        los = np.asarray(is_los, dtype=bool)
        offsets = np.asarray(offsets, dtype=np.int64)
        altitude = np.asarray(altitude_km, dtype=float)
        n_rays = los.size
        if any(c.shape != (n_rays,) for c in cols.values()) or offsets.ndim != 1:
            raise ValueError("ray columns must be 1-D and of equal length")
        if offsets.size < 1 or offsets[0] != 0 or offsets[-1] != n_rays:
            raise ValueError("offsets must run from 0 to the number of rays")
        if altitude.shape != (offsets.size - 1,):
            raise ValueError("need one altitude per snapshot")
        if np.any(np.diff(offsets) <= 0):
            raise ValueError("snapshot must contain at least one MPC")
        bad = first_bad_ray(cols)
        if bad is not None:
            raise RayRowError(*bad)
        snapshot_of_ray = np.repeat(np.arange(altitude.size), np.diff(offsets))
        los_rows = np.flatnonzero(los)
        # LOS rows after another LOS row of the same snapshot.
        extra_los = los_rows[1:][np.diff(snapshot_of_ray[los_rows]) == 0]
        off = first_off_arc(altitude, radius)
        if extra_los.size and (off is None or snapshot_of_ray[extra_los[0]] <= off[0]):
            h = float(altitude[snapshot_of_ray[extra_los[0]]])
            raise RayRowError(int(extra_los[0]), f"duplicate LOS ray for altitude {h} km: "
                                                 "at most one MPC may be flagged LOS")
        if off is not None:
            raise RayRowError(int(offsets[off[0]]), off[1])
        cols["phase_rad"] = _wrap_phase(cols["phase_rad"])
        order = np.lexsort((cols["delay_s"], snapshot_of_ray))
        for name in RAY_COLUMNS:
            setattr(self, name, _readonly(cols[name][order]))
        self.is_los = _readonly(los[order])
        self.offsets = _readonly(offsets.copy())
        self.psi_deg = _readonly(np.array(arc_elevations(altitude.tolist(), radius), dtype=float))
        self.altitude_km = _readonly(altitude.copy())
        self.arc_radius_km = radius

    @property
    def n_rays(self) -> int:
        return int(self.offsets[-1])

    @property
    def counts(self) -> np.ndarray:
        """Number of rays in each snapshot."""
        return np.diff(self.offsets)

    def __len__(self) -> int:
        return self.psi_deg.size

    def __iter__(self):
        bounds = self.offsets.tolist()
        return map(range, bounds[:-1], bounds[1:])

    def __eq__(self, other) -> bool:
        if not isinstance(other, RayTable):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name))
                   for name in self.__slots__)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (f"RayTable({len(self)} snapshots, {self.n_rays} rays, "
                f"arc_radius_km={self.arc_radius_km!r})")

    def take(self, snapshots: Iterable[int]) -> "RayTable":
        """Table of the given snapshots in the given order, negative ones counted from the end."""
        # Normalised first: offsets holds one more entry than there are snapshots.
        idx = np.arange(len(self))[np.asarray(snapshots, dtype=np.int64).reshape(-1)]
        counts = self.counts[idx]
        rows = np.repeat(self.offsets[idx] - np.concatenate([[0], np.cumsum(counts)[:-1]]),
                         counts) + np.arange(int(counts.sum()))
        return RayTable({name: getattr(self, name)[rows] for name in RAY_COLUMNS},
                        self.is_los[rows], np.concatenate([[0], np.cumsum(counts)]),
                        self.altitude_km[idx], self.arc_radius_km)

    def sorted_by_altitude(self) -> "RayTable":
        """Snapshots in non-decreasing altitude; equal altitudes keep their order."""
        order = np.argsort(self.altitude_km, kind="stable")
        if np.array_equal(order, np.arange(len(self))):
            return self
        return self.take(order)

    def with_amplitude(self, amplitude: np.ndarray) -> "RayTable":
        """Same rays with new linear amplitudes, checked as the constructor checks any."""
        return RayTable({**{name: getattr(self, name) for name in RAY_COLUMNS},
                         "amplitude": amplitude},
                        self.is_los, self.offsets, self.altitude_km, self.arc_radius_km)

    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(snapshots, rows)`` blocks of snapshots of one ray count ``n``.

        ``rows`` has shape (len(snapshots), n); row ``r`` indexes the rays
        of snapshot ``snapshots[r]`` in delay order.  A block holds at most
        ``_BLOCK_RAYS`` rays, or one snapshot of more; the snapshots of one
        count are split into consecutive blocks in table order.
        """
        counts = self.counts
        # Snapshots by ray count, each count's in table order.  (np.unique
        # would do, but its first call imports numpy.ma: 1.5 MB resident.)
        order = np.argsort(counts, kind="stable")
        blocks = []
        for snaps in np.split(order, np.flatnonzero(np.diff(counts[order])) + 1):
            # An empty table gets one empty block, so results keep their shape.
            n = int(counts[snaps[0]]) if snaps.size else 1
            step = max(1, _BLOCK_RAYS // n)
            for lo in range(0, max(1, snaps.size), step):
                part = snaps[lo:lo + step]
                blocks.append((part, self.offsets[part][:, None] + np.arange(n)))
        return blocks

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
        """Apply ``fn`` to (snapshots, rays) blocks and scatter the result back per ray.

        The blocks run one after another on the calling thread, each
        gathering its own columns, so one block's temporaries are held at
        a time.
        """
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


def coherent_power_dbm(
    table: RayTable,
    mode: str = COHERENT_POWER_SUM,
    p_tx_dbm: float = 0.0,
) -> list[float]:
    """Aggregate received power over each snapshot's MPCs, in dBm.

    ``power-sum`` adds per-path powers |a_i exp(j chi_i)|^2 (the default),
    ``phasor-sum`` adds the complex phasors first and squares the result,
    so opposite-phase paths may cancel.  Returns ``-inf`` as an explicit
    sentinel when the summed power is zero (all-zero amplitudes, or full
    phasor cancellation).  One value per snapshot.
    """
    if mode not in COHERENT_MODES:
        raise ValueError(f"coherent mode must be one of {COHERENT_MODES}")
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
    return [
        float("-inf") if total <= floor else p_tx_dbm + 10.0 * math.log10(total)
        for total, floor in zip(totals, null_floors)
    ]


def _los_index(is_los: np.ndarray, amplitude: np.ndarray) -> np.ndarray:
    # The flagged ray of each block row, else its first strongest ray.
    return np.where(is_los.any(axis=1), np.argmax(is_los, axis=1), np.argmax(amplitude, axis=1))


def k_factor(table: RayTable, designate_strongest: bool = False) -> list[float | None]:
    """Ratio of LOS power to total non-LOS power (linear), per snapshot.

    Gives None for a snapshot holding only the LOS path, where the ratio
    is undefined.  A snapshot without a LOS flag is a structural error
    unless it holds more than one ray and ``designate_strongest``
    promotes its strongest path; the error names the first such snapshot.
    """
    counts = table.counts
    flagged = np.logical_or.reduceat(table.is_los, table.offsets[:-1])
    has_los = flagged | (designate_strongest & (counts > 1))
    if not has_los.all():
        altitude = float(table.altitude_km[np.argmin(has_los)])
        remedy = ("flag one: designate_strongest promotes the strongest path only in a "
                  "snapshot of more than one ray" if designate_strongest
                  else "flag one or pass designate_strongest=True")
        raise ValueError(f"snapshot at altitude {altitude} km has no LOS-flagged MPC; {remedy}")
    los_rows = table.offsets[:-1] + table.reduce(_los_index, table.is_los, table.amplitude)
    powers = table.amplitude * table.amplitude
    nlos_powers = powers.copy()
    # Adding the LOS entry as 0.0 leaves the left-to-right NLOS sum exact.
    nlos_powers[los_rows] = 0.0
    nlos = table.reduce(running_sum, nlos_powers)
    return [
        None if n == 1 else math.inf if nlos_power == 0.0 else los_power / nlos_power
        for n, los_power, nlos_power in zip(
            counts.tolist(), powers[los_rows].tolist(), nlos.tolist())
    ]
