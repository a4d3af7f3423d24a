"""Elevation-gated tapped-delay-line comparison channel.

Three TDL profiles cover the pass: profile A below psi1 (blocked LOS),
profile B between psi1 and psi2 (shadowed LOS), profile C above psi2
(clear LOS).  The attenuation is free-space path loss plus a log-normal
shadowing draw whose standard deviation shrinks with elevation, minus
any deterministic antenna gain offsets; weather and hardware terms are
deliberately excluded so the curve is comparable against the ray-based
budget without them.

Each profile is a name plus its shadowing sigma; tap delays and powers
are not modelled, since the comparison reads only the large-scale
attenuation.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .geometry import ElevationAngle
from .link_budget import fspl_db

PROFILE_A = "NTN-TDL-A"
PROFILE_B = "NTN-TDL-B"
PROFILE_C = "NTN-TDL-C"
PROFILE_NAMES = (PROFILE_A, PROFILE_B, PROFILE_C)

DEFAULT_PSI1_DEG = 10.0
DEFAULT_PSI2_DEG = 15.0

DEFAULT_SHADOW_SIGMA_DB = {PROFILE_A: 8.0, PROFILE_B: 6.0, PROFILE_C: 4.0}


def select_profile(
    psi: ElevationAngle,
    psi1_deg: float = DEFAULT_PSI1_DEG,
    psi2_deg: float = DEFAULT_PSI2_DEG,
) -> str:
    """Profile name for an elevation: A below psi1, B in [psi1, psi2), C above."""
    if psi1_deg >= psi2_deg:
        raise ConfigError(f"psi1 ({psi1_deg}) must be below psi2 ({psi2_deg})")
    if psi.psi_deg < psi1_deg:
        return PROFILE_A
    if psi.psi_deg < psi2_deg:
        return PROFILE_B
    return PROFILE_C


def shadowing_draws(sigma_db: float, n: int, seed: int) -> np.ndarray:
    """n log-normal shadowing draws (dB domain), reproducible under seed."""
    if n < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, sigma_db, size=n)


def ntn_attenuation_db(
    d_km: float,
    fc_ghz: float,
    sigma_db: float,
    antenna_gains_db: float = 0.0,
    seed: int = 0,
) -> float:
    """One stochastic attenuation draw: FSPL + shadowing - antenna gains.

    Deterministic under the seed; with zero sigma the value is exactly
    FSPL - gains, which is also the expectation over draws.
    """
    shadow = float(shadowing_draws(sigma_db, 1, seed)[0]) if sigma_db > 0.0 else 0.0
    return fspl_db(d_km, fc_ghz) + shadow - antenna_gains_db
