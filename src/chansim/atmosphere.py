"""Elevation-dependent weather attenuation: rain, clouds, snow, fixed losses.

Rain follows the specific-attenuation / effective-path-length model with
a horizontal reduction factor; clouds and snow are thin-layer 1/sin(psi)
terms.  A constant term lumps hardware-independent atmospheric effects
(gaseous absorption, scintillation) that the model does not resolve.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import check_fields, ranged
from .geometry import (
    DEFAULT_ELEVATION_FLOOR_DEG,
    SLANT_AS_PRINTED,
    check_elevations,
    rain_slant_length,
)

WEATHER_RAIN = "rain"
WEATHER_CLOUDS = "clouds"
WEATHER_SNOW = "snow"
ALL_WEATHER = frozenset({WEATHER_RAIN, WEATHER_CLOUDS, WEATHER_SNOW})

# Carrier frequency of the modelled X-band downlink; the scenario's
# ``fc_ghz`` defaults to it and is the only source of the frequency.
DEFAULT_FC_GHZ = 10.0


@dataclass(frozen=True)
class AtmosphereParams:
    """Weather model constants for a 10 GHz circularly polarised link.

    The carrier frequency is the scenario's and is passed to the rain terms.

    Defaults describe a moderate Northern-European operating point:
    32 mm/h rain at the 0.01% exceedance level, 1.5 km thick clouds with
    0.35 g/m^3 liquid water, 4 mm/h snow, and 1.5 dB of fixed
    atmospheric loss.
    """

    k_rn: float = ranged("[0, inf)", 0.0363)
    epsilon: float = ranged("[0, inf)", 1.095)
    rain_rate_mmh: float = ranged("[0, inf)", 32.0)
    beta_db: float = ranged("[0, inf)", 3.0)
    h_rain_km: float = ranged("[0, inf)", 5.0)
    k_cl: float = ranged("[0, inf)", 0.072)
    cloud_thickness_km: float = ranged("[0, inf)", 1.5)
    lwc_gm3: float = ranged("[0, inf)", 0.35)
    k_sn: float = ranged("[0, inf)", 0.004)
    snow_rate_mmh: float = ranged("[0, inf)", 4.0)
    h_snow_km: float = ranged("[0, inf)", 5.0)
    l_fixed_db: float = ranged("[0, inf)", 1.5)
    r_earth_km: float = ranged("[0, inf)", 6371.0)

    __post_init__ = check_fields


def specific_rain_attenuation(p: AtmosphereParams) -> float:
    """Specific rain attenuation, dB/km: k_rn * rain_rate ** epsilon."""
    return p.k_rn * p.rain_rate_mmh**p.epsilon


def horizontal_reduction_factor(l_g_km: float, gamma_r: float, fc_ghz: float) -> float:
    """Horizontal reduction factor for the rain path at 0.01% exceedance."""
    return 1.0 / (
        1.0
        + 0.78 * math.sqrt(l_g_km * gamma_r / fc_ghz)
        - 0.38 * (1.0 - math.exp(-2.0 * l_g_km))
    )


def rain_attenuation_db(
    psi_deg: Sequence[float] | np.ndarray,
    p: AtmosphereParams,
    gs_height_km: float,
    slant_mode: str = SLANT_AS_PRINTED,
    floor_deg: float = DEFAULT_ELEVATION_FLOOR_DEG,
    fc_ghz: float = DEFAULT_FC_GHZ,
) -> list[float]:
    """Rain attenuation in dB at each elevation, including the polarisation constant.

    The effective path length is computed as L_s * r_0.01, which is the
    algebraically cancelled form of (L_s cos(psi)) * r_0.01 / cos(psi)
    and therefore stays finite at zenith.  The carrier frequency enters
    through the horizontal reduction factor.
    """
    # Written so that NaN fails it.
    if not fc_ghz > 0.0:
        raise ValueError(f"carrier frequency must be positive, got {fc_ghz}")
    gamma_r = specific_rain_attenuation(p)
    l_s = np.array(rain_slant_length(
        psi_deg, p.h_rain_km, gs_height_km, p.r_earth_km, mode=slant_mode, floor_deg=floor_deg
    ))
    l_g = l_s * np.cos(np.radians(psi_deg))
    # A scalar call per elevation: numpy's exp can differ from math.exp in the last bit.
    r001 = [horizontal_reduction_factor(x, gamma_r, fc_ghz) for x in l_g.tolist()]
    return (gamma_r * (l_s * r001) + p.beta_db).tolist()


def cloud_attenuation_db(
    psi_deg: Sequence[float] | np.ndarray,
    p: AtmosphereParams,
    floor_deg: float = DEFAULT_ELEVATION_FLOOR_DEG,
) -> list[float]:
    """Cloud attenuation in dB at each elevation: k_cl * thickness * liquid water / sin(psi)."""
    s = np.sin(np.radians(check_elevations(psi_deg, floor_deg)))
    return (p.k_cl * p.cloud_thickness_km * p.lwc_gm3 / s).tolist()


def snow_attenuation_db(
    psi_deg: Sequence[float] | np.ndarray,
    p: AtmosphereParams,
    floor_deg: float = DEFAULT_ELEVATION_FLOOR_DEG,
) -> list[float]:
    """Snow attenuation in dB at each elevation: k_sn * snow rate * snow height / sin(psi)."""
    s = np.sin(np.radians(check_elevations(psi_deg, floor_deg)))
    return (p.k_sn * p.snow_rate_mmh * p.h_snow_km / s).tolist()


def total_atmospheric_db(
    psi_deg: Sequence[float] | np.ndarray,
    p: AtmosphereParams,
    gs_height_km: float,
    weather: frozenset[str] | set[str] = frozenset(),
    slant_mode: str = SLANT_AS_PRINTED,
    floor_deg: float = DEFAULT_ELEVATION_FLOOR_DEG,
    fc_ghz: float = DEFAULT_FC_GHZ,
) -> list[float]:
    """Sum of the enabled weather terms plus the fixed atmospheric loss, per elevation."""
    unknown = set(weather) - ALL_WEATHER
    if unknown:
        raise ValueError(f"unknown weather terms {sorted(unknown)}")
    total = np.full(check_elevations(psi_deg).shape, p.l_fixed_db)
    if WEATHER_RAIN in weather:
        total += rain_attenuation_db(
            psi_deg, p, gs_height_km, slant_mode=slant_mode, floor_deg=floor_deg, fc_ghz=fc_ghz
        )
    if WEATHER_CLOUDS in weather:
        total += cloud_attenuation_db(psi_deg, p, floor_deg=floor_deg)
    if WEATHER_SNOW in weather:
        total += snow_attenuation_db(psi_deg, p, floor_deg=floor_deg)
    return total.tolist()
