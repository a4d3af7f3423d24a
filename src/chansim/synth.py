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
from array import array

import numpy as np

from .geometry import ElevationAngle, PassGeometry, arc_elevations
from .link_budget import SPEED_OF_LIGHT_M_S, wavelength_m
from .mpc import RAY_COLUMNS, RayTable
from .streams import streams

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

# Floats a ray takes in the generator's buffer: the ray columns and is_los.
_RAY_FLOATS = len(RAY_COLUMNS) + 1


def synth_scenario(
    geometry: PassGeometry,
    fc_ghz: float,
    psi2: ElevationAngle,
    los_only: bool = False,
    max_extra_rays: int = 8,
    seed: int = 0,
) -> RayTable:
    """Generate one snapshot per configured altitude, deterministically.

    Snapshot ``idx`` draws from its own stream, numpy's default generator
    seeded with ``[seed, idx]``, so every snapshot is reproducible in
    isolation.  With ``los_only``
    every snapshot holds exactly the (possibly shadowed) LOS ray, which
    makes clear-sky budget sweeps reduce to free-space loss plus the
    constant terms.
    """
    d = geometry.arc_radius_km
    radius_factor = _REFERENCE_RADIUS_KM / d
    wavelength = wavelength_m(fc_ghz)
    base_amplitude = wavelength / (4.0 * math.pi * d * 1e3)
    # The LOS range terms are the same on the whole arc.
    d_m = d * 1e3
    los_amplitude = wavelength / (4.0 * math.pi * d_m)
    los_phase = (2.0 * math.pi * d_m / wavelength) % (2.0 * math.pi)
    los_delay = d_m / SPEED_OF_LIGHT_M_S
    ground_excess_scale = _GROUND_EXCESS_SCALE_S * radius_factor**2
    building_excess_scale = _BUILDING_EXCESS_SCALE_S * radius_factor**2
    two_pi = 2.0 * math.pi
    # Rays in the ray table's column order plus is_los (1.0 or 0.0), in one
    # flat buffer, so a pass holds no Python object per ray and the table is
    # built from views of it.  numpy computes
    # uniform(a, b) as a + (b - a) * random() (b * random() for a = 0),
    # normal(0, s) as s * standard_normal() and exponential(s) as
    # s * standard_exponential(), so the draws below are those of the
    # distribution methods, bit for bit.  Every draw is evaluated left to
    # right, which fixes the draw sequence.
    rays = array("d")
    offsets = array("q", [0])
    altitudes = geometry.altitudes_km
    rngs = streams([seed, idx] for idx in range(len(altitudes)))
    for psi, rng in zip(arc_elevations(altitudes, d), rngs):
        shadow_db = 0.0
        if psi < psi2.psi_deg:
            depth = _SHADOW_MAX_DB + _SHADOW_JITTER_DB * rng.standard_normal()
            shadow_db = max(0.0, depth) * (1.0 - psi / psi2.psi_deg) ** 1.5
        rays.extend((los_amplitude * 10.0 ** (-shadow_db / 20.0), los_phase, los_delay,
                     180.0, -psi, 0.0, psi, 1.0))
        if not los_only:
            if rng.random() < min(1.0, 1.05 * math.exp(-psi / 30.0) * radius_factor):
                atten = math.exp(-psi / _GROUND_AMP_PSI_SCALE_DEG) * radius_factor
                amplitude = base_amplitude * (0.45 + (0.85 - 0.45) * rng.random()) * atten
                excess = ground_excess_scale * rng.standard_exponential() + 0.05e-9
                rays.extend((
                    amplitude,
                    two_pi * rng.random(),
                    los_delay + excess,
                    (180.0 + 0.005 * rng.standard_normal()) % 360.0,
                    min(90.0, max(-90.0, -psi + 0.005 * rng.standard_normal())),
                    (0.5 * rng.standard_normal()) % 360.0,
                    min(90.0, max(-90.0, -psi * (0.8 + (1.0 - 0.8) * rng.random()))),
                    0.0,
                ))
            mean_extra = (
                _BUILDING_MEAN_AT_HORIZON
                * math.exp(-psi / _BUILDING_PSI_SCALE_DEG)
                * radius_factor**3
            )
            count = int(min(max_extra_rays, rng.poisson(mean_extra)))
            if count > 0:
                # Rays arrive in per-scatterer groups of roughly two.  All rays
                # of one scatterer depart the satellite in the same direction
                # and stay close in delay and arrival angle, which is what the
                # clustering stage finds.  A scatterer is (aoa_az, aoa_el,
                # aod_az, aod_el, excess delay, relative amplitude).
                sources = [
                    (
                        360.0 * rng.random(),
                        -5.0 + 40.0 * rng.random(),
                        (180.0 + 0.01 * rng.standard_normal()) % 360.0,
                        min(90.0, max(-90.0, -psi + 0.01 * rng.standard_normal())),
                        building_excess_scale * rng.standard_exponential() + 0.1e-9,
                        0.1 + (0.6 - 0.1) * rng.random(),
                    )
                    for _ in range(max(1, math.ceil(count / 2)))
                ]
                atten = math.exp(-psi / _BUILDING_AMP_PSI_SCALE_DEG) * radius_factor**2
                for j in range(count):
                    aoa_az, aoa_el, aod_az, aod_el, excess, amp = sources[j % len(sources)]
                    rays.extend((
                        base_amplitude * amp * (0.7 + (1.0 - 0.7) * rng.random()) * atten,
                        two_pi * rng.random(),
                        los_delay + excess + abs(0.03e-9 * rng.standard_normal()),
                        aod_az,
                        aod_el,
                        (aoa_az + 0.6 * rng.standard_normal()) % 360.0,
                        min(90.0, max(-90.0, aoa_el + 0.5 * rng.standard_normal())),
                        False,
                    ))
        offsets.append(len(rays) // _RAY_FLOATS)
    columns = np.frombuffer(rays, dtype=float).reshape(-1, _RAY_FLOATS)
    return RayTable(dict(zip(RAY_COLUMNS, columns.T)), columns[:, -1] != 0.0, offsets,
                    altitudes, d)
