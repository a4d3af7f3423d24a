"""Pass geometry for a circular overhead satellite arc.

The satellite is idealised as moving on a circular arc of radius ``d``
centred on the ground station, so the link range stays ``d`` over the
whole pass and the elevation angle seen from the ground station is
``psi = arcsin(altitude / d)``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import ElevationFloorError, check_fields

DEFAULT_ELEVATION_FLOOR_DEG = 0.5

SLANT_AS_PRINTED = "as-printed"
SLANT_ITU_PIECEWISE = "itu-piecewise"
SLANT_MODES = (SLANT_AS_PRINTED, SLANT_ITU_PIECEWISE)


@dataclass(frozen=True)
class ElevationAngle:
    """Elevation angle of the satellite above the GS horizon, in (0, 90] deg."""

    psi_deg: float

    def __post_init__(self) -> None:
        if not 0.0 < self.psi_deg <= 90.0:
            raise ValueError(f"elevation angle must be in (0, 90] deg, got {self.psi_deg}")


@dataclass(frozen=True)
class PassGeometry:
    """Circular-arc pass: arc radius, GS height and the sampled altitudes.

    Altitudes are satellite heights above the ground station in km and must
    lie in (0, arc_radius] so that arcsin(h/d) is defined.
    """

    arc_radius_km: float
    gs_height_km: float = 0.0
    altitudes_km: tuple[float, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        check_fields(self)
        d = check_arc_radius(self.arc_radius_km)
        if self.gs_height_km < 0.0:
            raise ValueError("GS height must be non-negative")
        bad = first_off_arc(np.array(self.altitudes_km), d)
        if bad is not None:
            raise ValueError(bad[1])

    def elevations(self) -> list[ElevationAngle]:
        """Elevation angle for every altitude sample, in input order."""
        psi_deg = arc_elevations(self.altitudes_km, self.arc_radius_km)
        return [ElevationAngle(psi) for psi in psi_deg]


def check_arc_radius(d_km: float) -> float:
    """``d_km`` as a float, checked to be a finite, positive arc radius."""
    d = float(d_km)
    if not 0.0 < d < math.inf:
        raise ValueError(f"arc radius must be positive and finite, got {d}")
    return d


def first_off_arc(altitude_km: np.ndarray, d_km: float) -> tuple[int, str] | None:
    """Index and message of the first altitude off the arc of valid radius ``d_km``, else None.

    On the arc, h lies in (0, d_km] and h/d does not underflow, so psi lies in (0, 90] deg.
    """
    off = np.flatnonzero(~((altitude_km / d_km > 0.0) & (altitude_km <= d_km)))
    if not off.size:
        return None
    return int(off[0]), f"altitude {float(altitude_km[off[0]])} km outside (0, {d_km}] km"


def arc_elevations(altitudes_km: Sequence[float], d_km: float) -> list[float]:
    """arcsin(h/d) in degrees per altitude on the arc, by libm's scalar asin
    (numpy's arcsin may differ from it in the last bit)."""
    return [math.degrees(math.asin(h / d_km)) for h in altitudes_km]


def altitude_to_elevation(h_km: float, d_km: float) -> ElevationAngle:
    """Elevation angle arcsin(h/d) of a satellite at height ``h_km`` above the GS,
    0 < h_km <= d_km, on an arc of finite, positive radius ``d_km``."""
    [psi] = PassGeometry(d_km, altitudes_km=(h_km,)).elevations()
    return psi


def default_psi2(arc_radius_km: float) -> ElevationAngle:
    """Default shadowing threshold: elevation of the 100 km altitude point."""
    if arc_radius_km <= 100.0:
        raise ValueError(
            "arc radius must exceed 100 km for the default threshold; set psi2 explicitly"
        )
    return altitude_to_elevation(100.0, arc_radius_km)


def check_elevations(
    psi_deg: Sequence[float] | np.ndarray, floor_deg: float | None = None
) -> np.ndarray:
    """A column of elevations as float64, each checked to lie in (0, 90] deg.

    Raises
    ------
    ElevationFloorError
        If ``floor_deg`` is given and an elevation lies below it.  Only the
        1/sin(psi) terms pass a floor: they are singular towards the
        horizon and are not extrapolated.
    """
    psi = np.asarray(psi_deg, dtype=float)
    outside = ~((0.0 < psi) & (psi <= 90.0))
    if outside.any():
        raise ValueError(f"elevation angle must be in (0, 90] deg, got {float(psi[outside][0])}")
    if floor_deg is not None:
        below = psi < floor_deg
        if below.any():
            raise ElevationFloorError(
                f"elevation {float(psi[below][0])} deg below floor {floor_deg} deg"
            )
    return psi


def rain_slant_length(
    psi_deg: Sequence[float] | np.ndarray,
    h_rain_km: float,
    h_gs_km: float,
    r_earth_km: float,
    mode: str = SLANT_AS_PRINTED,
    floor_deg: float = DEFAULT_ELEVATION_FLOOR_DEG,
) -> list[float]:
    """Slant path length through the rain layer at each elevation, in km.

    The default ``as-printed`` mode sums a spherical-geometry square-root
    term with the thin-layer term (h_rain - h_gs)/sin(psi).  The
    ``itu-piecewise`` mode uses only the thin-layer term at psi >= 5 deg
    and only the square-root term below, which matches the conventional
    piecewise use of the two expressions.

    Raises
    ------
    ElevationFloorError
        If an elevation is below ``floor_deg``.
    """
    psi = check_elevations(psi_deg, floor_deg)
    if mode not in SLANT_MODES:
        raise ValueError(f"slant mode must be one of {SLANT_MODES}")
    if h_rain_km <= h_gs_km:
        raise ValueError("rain height must exceed GS height")
    dh = h_rain_km - h_gs_km
    s = np.sin(np.radians(psi))
    sqrt_term = np.sqrt(2.0 * dh * r_earth_km / (s * s + 2.0 * dh / r_earth_km))
    thin_term = dh / s
    if mode == SLANT_AS_PRINTED:
        return (sqrt_term + thin_term).tolist()
    return np.where(psi >= 5.0, thin_term, sqrt_term).tolist()
