"""Synthetic multipath scenario generator.

This is scaffolding, not physics: it stands in for a ray-tracing export
so the pipeline can be exercised end to end and reproduces qualitative
pass behaviour only.  Per altitude it emits a free-space-consistent LOS
ray, usually a ground reflection at low elevations, and a handful of
building reflections whose count, relative power and excess delay all
shrink with elevation and with arc radius.  Below the shadowing
threshold the LOS amplitude is attenuated by a deep elevation-dependent
shadow (reflected rays are unaffected), so near-horizon snapshots show
sub-unity K-factors.  Everything is a pure function of
(geometry, settings, seed).
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import ElevationAngle, PassGeometry, altitude_to_elevation
from .link_budget import SPEED_OF_LIGHT_M_S
from .mpc import RAY_COLUMNS, RayTable

_REFERENCE_RADIUS_KM = 400.0

# Shadowing depth at the horizon, before jitter (dB).
_SHADOW_MAX_DB = 26.0
_SHADOW_JITTER_DB = 2.0

# Building-reflection richness: mean count at the horizon and its
# elevation decay, both scaled down for longer arcs.
_BUILDING_MEAN_AT_HORIZON = 6.0
_BUILDING_PSI_SCALE_DEG = 10.0

# Relative NLOS power decays with elevation: reflectors near the GS
# matter most when the link grazes them.
_GROUND_AMP_PSI_SCALE_DEG = 40.0
_BUILDING_AMP_PSI_SCALE_DEG = 35.0

_GROUND_EXCESS_SCALE_S = 0.4e-9
_BUILDING_EXCESS_SCALE_S = 0.8e-9


def _wrap_az(angle_deg: float) -> float:
    return angle_deg % 360.0


def _clip_el(angle_deg: float) -> float:
    return min(90.0, max(-90.0, angle_deg))


# Rays are emitted as rows (amplitude, phase_rad, delay_s, aod_az_deg,
# aod_el_deg, aoa_az_deg, aoa_el_deg, is_los), the ray table's column order.
Ray = tuple[float, float, float, float, float, float, float, bool]


def _los_ray(psi: ElevationAngle, d_km: float, fc_ghz: float, shadow_db: float) -> Ray:
    wavelength_m = SPEED_OF_LIGHT_M_S / (fc_ghz * 1e9)
    d_m = d_km * 1e3
    amplitude = wavelength_m / (4.0 * math.pi * d_m) * 10.0 ** (-shadow_db / 20.0)
    return (
        amplitude,
        (2.0 * math.pi * d_m / wavelength_m) % (2.0 * math.pi),
        d_m / SPEED_OF_LIGHT_M_S,
        180.0,
        -psi.psi_deg,
        0.0,
        psi.psi_deg,
        True,
    )


def _shadow_db(psi: ElevationAngle, psi2: ElevationAngle, rng: np.random.Generator) -> float:
    if psi.psi_deg >= psi2.psi_deg:
        return 0.0
    depth = _SHADOW_MAX_DB + _SHADOW_JITTER_DB * rng.standard_normal()
    return max(0.0, depth) * (1.0 - psi.psi_deg / psi2.psi_deg) ** 1.5


def _ground_ray(
    base_amplitude: float,
    los_delay_s: float,
    psi: ElevationAngle,
    radius_factor: float,
    rng: np.random.Generator,
) -> Ray:
    atten = math.exp(-psi.psi_deg / _GROUND_AMP_PSI_SCALE_DEG) * radius_factor
    amplitude = base_amplitude * rng.uniform(0.45, 0.85) * atten
    excess = rng.exponential(_GROUND_EXCESS_SCALE_S * radius_factor**2) + 0.05e-9
    # Tuple items are evaluated left to right, which fixes the draw sequence.
    return (
        amplitude,
        rng.uniform(0.0, 2.0 * math.pi),
        los_delay_s + excess,
        _wrap_az(180.0 + 0.005 * rng.standard_normal()),
        _clip_el(-psi.psi_deg + 0.005 * rng.standard_normal()),
        _wrap_az(0.5 * rng.standard_normal()),
        _clip_el(-psi.psi_deg * rng.uniform(0.8, 1.0)),
        False,
    )


def _building_rays(
    base_amplitude: float,
    los_delay_s: float,
    psi: ElevationAngle,
    radius_factor: float,
    count: int,
    rng: np.random.Generator,
) -> list[Ray]:
    # Rays arrive in per-scatterer groups of roughly two.  All rays of one
    # scatterer depart the satellite in the same direction and stay close
    # in delay and arrival angle, which is what the clustering stage finds.
    n_sources = max(1, math.ceil(count / 2))
    sources = [
        {
            "aoa_az": rng.uniform(0.0, 360.0),
            "aoa_el": rng.uniform(-5.0, 35.0),
            "aod_az": _wrap_az(180.0 + 0.01 * rng.standard_normal()),
            "aod_el": _clip_el(-psi.psi_deg + 0.01 * rng.standard_normal()),
            "excess": rng.exponential(_BUILDING_EXCESS_SCALE_S * radius_factor**2) + 0.1e-9,
            "amp": rng.uniform(0.1, 0.6),
        }
        for _ in range(n_sources)
    ]
    atten = math.exp(-psi.psi_deg / _BUILDING_AMP_PSI_SCALE_DEG) * radius_factor**2
    rays = []
    for j in range(count):
        src = sources[j % n_sources]
        rays.append(
            (
                base_amplitude * src["amp"] * rng.uniform(0.7, 1.0) * atten,
                rng.uniform(0.0, 2.0 * math.pi),
                los_delay_s + src["excess"] + abs(rng.normal(0.0, 0.03e-9)),
                src["aod_az"],
                src["aod_el"],
                _wrap_az(src["aoa_az"] + rng.normal(0.0, 0.6)),
                _clip_el(src["aoa_el"] + rng.normal(0.0, 0.5)),
                False,
            )
        )
    return rays


def synth_scenario(
    geometry: PassGeometry,
    fc_ghz: float,
    psi2: ElevationAngle,
    los_only: bool = False,
    max_extra_rays: int = 8,
    seed: int = 0,
) -> RayTable:
    """Generate one snapshot per configured altitude, deterministically.

    With ``los_only`` every snapshot holds exactly the (possibly
    shadowed) LOS ray, which makes clear-sky budget sweeps reduce to
    free-space loss plus the constant terms.
    """
    d = geometry.arc_radius_km
    radius_factor = _REFERENCE_RADIUS_KM / d
    wavelength_m = SPEED_OF_LIGHT_M_S / (fc_ghz * 1e9)
    base_amplitude = wavelength_m / (4.0 * math.pi * d * 1e3)
    rays: list[Ray] = []
    offsets = [0]
    psi_deg = []
    for idx, altitude in enumerate(geometry.altitudes_km):
        rng = np.random.default_rng([seed, idx])
        psi = altitude_to_elevation(altitude, d)
        los = _los_ray(psi, d, fc_ghz, _shadow_db(psi, psi2, rng))
        rays.append(los)
        if not los_only:
            if rng.random() < min(1.0, 1.05 * math.exp(-psi.psi_deg / 30.0) * radius_factor):
                rays.append(_ground_ray(base_amplitude, los[2], psi, radius_factor, rng))
            mean_extra = (
                _BUILDING_MEAN_AT_HORIZON
                * math.exp(-psi.psi_deg / _BUILDING_PSI_SCALE_DEG)
                * radius_factor**3
            )
            count = int(min(max_extra_rays, rng.poisson(mean_extra)))
            if count > 0:
                rays.extend(
                    _building_rays(base_amplitude, los[2], psi, radius_factor, count, rng)
                )
        offsets.append(len(rays))
        psi_deg.append(psi.psi_deg)
    columns = np.array(rays, dtype=float).reshape(-1, len(RAY_COLUMNS) + 1)
    return RayTable(
        dict(zip(RAY_COLUMNS, columns.T)),
        columns[:, -1] != 0.0,
        offsets,
        psi_deg,
        geometry.altitudes_km,
        d,
    )
