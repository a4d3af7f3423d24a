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

import math
from collections.abc import Sequence

import numpy as np

from .errors import ConfigError
from .geometry import check_elevations
from .link_budget import fspl_db
from .streams import streams

PROFILE_A = "NTN-TDL-A"
PROFILE_B = "NTN-TDL-B"
PROFILE_C = "NTN-TDL-C"
PROFILE_NAMES = (PROFILE_A, PROFILE_B, PROFILE_C)

DEFAULT_PSI1_DEG = 10.0
DEFAULT_PSI2_DEG = 15.0

DEFAULT_SHADOW_SIGMA_DB = {PROFILE_A: 8.0, PROFILE_B: 6.0, PROFILE_C: 4.0}


def select_profile(
    psi_deg: Sequence[float] | np.ndarray,
    psi1_deg: float = DEFAULT_PSI1_DEG,
    psi2_deg: float = DEFAULT_PSI2_DEG,
) -> list[str]:
    """Profile name per elevation: A below psi1, B in [psi1, psi2), C above."""
    if psi1_deg >= psi2_deg:
        raise ConfigError(f"psi1 ({psi1_deg}) must be below psi2 ({psi2_deg})")
    bins = np.digitize(check_elevations(psi_deg), [psi1_deg, psi2_deg])
    return [PROFILE_NAMES[i] for i in bins.tolist()]


def _checked_sigma(sigma_db: float) -> float:
    # Written so that NaN fails it.
    if not 0.0 <= sigma_db < math.inf:
        raise ValueError(f"shadowing sigma must be finite and non-negative, got {sigma_db}")
    return sigma_db


def shadowing_draws(sigma_db: float, n: int, seed: int) -> np.ndarray:
    """n log-normal shadowing draws (dB domain), reproducible under seed."""
    if n < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, _checked_sigma(sigma_db), size=n)


def ntn_attenuation_db(
    d_km: float,
    fc_ghz: float,
    sigma_db: Sequence[float],
    seeds: Sequence[int],
    antenna_gains_db: float = 0.0,
) -> list[float]:
    """One stochastic attenuation draw per row: FSPL + shadowing - antenna gains.

    Row i draws with ``sigma_db[i]`` from its own stream seeded with
    ``seeds[i]``, the draw ``shadowing_draws(sigma_db[i], 1, seeds[i])``
    makes, so every row is reproducible in isolation.  With zero sigma the value is exactly
    FSPL - gains, which is also the expectation over draws.  A sigma that is
    not finite and non-negative raises ``ValueError``.
    """
    base = fspl_db(d_km, fc_ghz)
    sigmas = [_checked_sigma(sigma) for sigma in sigma_db]
    # numpy draws normal(0, sigma) as sigma * standard_normal(), bit for bit.
    return [
        base + (sigma * rng.standard_normal() if sigma > 0.0 else 0.0) - antenna_gains_db
        for sigma, rng in zip(sigmas, streams(seeds), strict=True)
    ]
