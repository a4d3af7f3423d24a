"""Delay and angular dispersion metrics per snapshot.

Delay spread is the power-weighted standard deviation of path delays.
Azimuth spread uses circular statistics (mean resultant length), while
elevation spread is the ordinary linear standard deviation; both are
unweighted over the paths.  ``spread_report`` computes every metric for
a whole ray table at once.
"""

from __future__ import annotations

import math

import numpy as np

from .mpc import RayTable

# Mean resultant lengths below this are treated as fully dispersed; the
# circular spread is then unbounded and reported as a sentinel rather
# than a large meaningless number.
_RESULTANT_FLOOR = 1e-12

UNBOUNDED_SPREAD = math.inf


def _delay_moments(powers: np.ndarray, delays: np.ndarray) -> np.ndarray:
    # Rows of (total power, mean excess delay, RMS spread) per block row.
    total = powers.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = np.sum(powers * delays, axis=1) / total
        rms = np.sqrt(np.sum(powers * (delays - mean[:, None]) ** 2, axis=1) / total)
    return np.stack([total, mean, rms], axis=1)


def _circular_spread(sum_cos: float, sum_sin: float, n: int) -> float:
    length = math.hypot(sum_cos, sum_sin) / n
    if length < _RESULTANT_FLOOR:
        return UNBOUNDED_SPREAD
    if length >= 1.0:
        return 0.0
    return math.degrees(math.sqrt(-2.0 * math.log(length)))


def _circular_sums(angles_deg: np.ndarray) -> np.ndarray:
    angles = np.radians(angles_deg)
    return np.stack([np.sum(np.cos(angles), axis=-1), np.sum(np.sin(angles), axis=-1)], axis=-1)


def azimuth_spread(angles_deg: list[float] | np.ndarray) -> float:
    """Circular angular spread (degrees) from the mean resultant length.

    Returns 0 for perfectly aligned angles and the UNBOUNDED_SPREAD
    sentinel (inf) when the resultant vanishes (e.g. angles uniformly
    spaced around the circle).
    """
    angles = np.asarray(angles_deg, dtype=float)
    if angles.size == 0:
        raise ValueError("need at least one angle")
    sum_cos, sum_sin = _circular_sums(angles).tolist()
    return _circular_spread(sum_cos, sum_sin, angles.size)


def elevation_spread(angles_deg: list[float] | np.ndarray) -> float:
    """Linear angular spread: population standard deviation, in degrees."""
    angles = np.asarray(angles_deg, dtype=float)
    if angles.size == 0:
        raise ValueError("need at least one angle")
    return float(np.std(angles))


def _std_rows(block: np.ndarray) -> np.ndarray:
    return np.std(block, axis=1)


def spread_report(table: RayTable) -> dict[str, list[float]]:
    """Delay and angular spreads at both link ends as named columns.

    Each column holds one value per snapshot; all are zero for a
    single-path snapshot.  The delay spread is power-weighted (per-path
    powers |a_i exp(j chi_i)|^2); raises ValueError when a snapshot's
    total power is zero.
    """
    a = table.amplitude
    moments = table.reduce(_delay_moments, a * a, table.delay_s)
    if np.any(moments[:, 0] <= 0.0):
        raise ValueError("total snapshot power is zero")
    counts = table.counts.tolist()

    def azimuth(col: np.ndarray) -> list[float]:
        sums = table.reduce(_circular_sums, col).tolist()
        return [_circular_spread(c, s, n) for (c, s), n in zip(sums, counts)]

    def elevation(col: np.ndarray) -> list[float]:
        return table.reduce(_std_rows, col).tolist()

    return {
        "rms_ds_s": moments[:, 2].tolist(),
        "mean_excess_delay_s": moments[:, 1].tolist(),
        "az_spread_sat_deg": azimuth(table.aod_az_deg),
        "el_spread_sat_deg": elevation(table.aod_el_deg),
        "az_spread_gs_deg": azimuth(table.aoa_az_deg),
        "el_spread_gs_deg": elevation(table.aoa_el_deg),
    }
