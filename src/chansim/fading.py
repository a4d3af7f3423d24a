"""Small-scale fading regimes: shadowed Rician, Rician, deterministic LOS.

Three regimes cover a pass.  Below the threshold elevation ``psi2`` the
LOS path is shadowed by terrain and the amplitude follows the shadowed
Rician density implemented here verbatim; above it the fading is Rician
while non-LOS paths remain, and purely deterministic once only the LOS
path is left.

The shadowed density is the exact product form

    f(r) = 2 r (K+1)/Omega * exp(-(K+m)/(K+1))
           * I0(2 r sqrt(m K / (Omega (K+1))))
           * 1F1(m; 1; -(K+m)/(K+1) * r^2/Omega)

which is not normalised in general: its total mass exists and is
positive only for odd integer m when K > 0 and only for m = 1 when
K = 0, and the density itself is non-negative only for m <= 1.  The
1F1 factor is evaluated for integer m only (``special.hyp1f1_neg``), so
a non-integer m raises NumericError naming it, in the raw density too.
The ``normalized`` mode divides by the numerically measured mass where
that is well defined and raises NumericError with diagnostics elsewhere
rather than returning misleading values.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, check_fields, ranged
from .geometry import ElevationAngle
from .mpc import RayTable
from .numerics import bounded_minimum, qagi
from .special import hyp1f1_neg_array, integer_order, log_i0

# Quality gates for the numerically measured mass of the shadowed density.
# The quadrature error estimate is conservative by orders of magnitude on
# oscillatory integrands; the cancellation ratio is the primary integrity
# check and the estimate only catches outright failures.
_MASS_REL_ERR_LIMIT = 5e-6
_MASS_CANCELLATION_LIMIT = 1e-6

_MIN_FIT_SAMPLES = 100
_K_FIT_MAX = 1e7


class FadingRegime(enum.Enum):
    SHADOWED_RICIAN = "shadowed-rician"
    RICIAN = "rician"
    DETERMINISTIC_LOS = "deterministic-los"


@dataclass(frozen=True)
class RicianParams:
    """Rician amplitude distribution: K-factor and mean power, both linear."""

    k: float = ranged("[0, inf)")
    omega: float = ranged("(0, inf)")

    __post_init__ = check_fields


@dataclass(frozen=True)
class ShadowedRicianParams:
    """Shadowed Rician parameters: K-factor, shadowing shape m, mean power."""

    k: float = ranged("[0, inf)")
    m: float = ranged("(0, inf)")
    omega: float = ranged("(0, inf)")

    __post_init__ = check_fields


def select_regime(table: RayTable, psi2: ElevationAngle) -> list[FadingRegime]:
    """Fading regime of each snapshot given the shadowing threshold psi2.

    Below psi2 the LOS is treated as shadowed regardless of how many
    paths are present; at or above psi2 the regime is Rician while
    non-LOS paths remain and deterministic once only one path is left.
    """
    return [
        FadingRegime.SHADOWED_RICIAN if psi_deg < psi2.psi_deg
        else FadingRegime.RICIAN if n > 1
        else FadingRegime.DETERMINISTIC_LOS
        for psi_deg, n in zip(table.psi_deg.tolist(), table.counts.tolist())
    ]


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def _amplitudes(r: np.ndarray | float) -> np.ndarray:
    """r as a float array, refused if any value is negative or NaN."""
    r_arr = np.asarray(r, dtype=float)
    # Written so that NaN fails it, which a test of r < 0 would let through.
    if not np.all(r_arr >= 0.0):
        raise ValueError("amplitude must be non-negative and not NaN")
    return r_arr


def _rician_log_pdf(r: np.ndarray, k: float, omega: float) -> np.ndarray:
    """Log of the Rician amplitude density at amplitudes r > 0."""
    kp1 = k + 1.0
    return (
        np.log(2.0 * r * kp1 / omega)
        - k
        - kp1 * r * r / omega
        + log_i0(2.0 * r * math.sqrt(k * kp1 / omega))
    )


def rician_pdf(r: np.ndarray | float, p: RicianParams) -> np.ndarray | float:
    """Rician amplitude density, exact and normalised; reduces to Rayleigh at K=0."""
    r_arr = _amplitudes(r)
    out = np.zeros_like(r_arr)
    pos = (r_arr > 0.0) & (r_arr < np.inf)
    # r * r overflows to inf far in the tail, where the density is 0 as at r = inf.
    with np.errstate(over="ignore"):
        out[pos] = np.exp(_rician_log_pdf(r_arr[pos], p.k, p.omega))
    return out if np.ndim(r) else float(out)


def _shadowed_constants(k: float, m: float, omega: float) -> tuple[float, float, float]:
    """beta, c and the exponent (K+m)/(K+1) of the shadowed product form."""
    beta = math.sqrt(m * k / (omega * (k + 1.0)))
    c = (k + m) / ((k + 1.0) * omega)
    return beta, c, (k + m) / (k + 1.0)


def _log_envelope(r, k: float, omega: float, beta: float, shift: float):
    """log(2r(K+1)/Omega) - shift + log I0(2 beta r), on an array r > 0."""
    return np.log(2.0 * r * (k + 1.0) / omega) - shift + log_i0(2.0 * beta * r)


def _verbatim_terms(r: np.ndarray, p: ShadowedRicianParams) -> np.ndarray:
    """Signed value of the shadowed density product form at r > 0."""
    beta, c, shift = _shadowed_constants(p.k, p.m, p.omega)
    f11 = hyp1f1_neg_array(p.m, c * r * r)
    log_env = _log_envelope(r, p.k, p.omega, beta, shift)
    out = np.zeros_like(r)
    nz = f11 != 0.0
    out[nz] = np.sign(f11[nz]) * np.exp(log_env[nz] + np.log(np.abs(f11[nz])))
    return out


def shadowed_rician_mass(p: ShadowedRicianParams) -> float:
    """Total mass of the verbatim shadowed density, measured by quadrature.

    The mass is independent of omega (pure scale parameter) and is measured
    afresh on each call.  Raises NumericError when the product form is not
    normalisable: divergent for non-integer m with K > 0 and for m < 1 with
    K = 0, exactly zero for m > 1 with K = 0, negative for even integer m
    (refused before any quadrature), or numerically indeterminate when
    cancellation dominates the integral.
    """
    k, m = p.k, p.m
    if k == 0.0:
        if integer_order(m) == 1:
            return math.exp(-1.0)
        if m > 1.0:
            raise NumericError(
                f"shadowed density has exactly zero total mass for K=0, m={m}; "
                "normalisation is impossible"
            )
        raise NumericError(
            f"shadowed density is not integrable for K=0, m={m} < 1"
        )
    if (order := integer_order(m)) is None:
        raise NumericError(
            f"shadowed density has a divergent tail for non-integer m={m} with K>0; "
            "normalisation is impossible"
        )
    # The exact mass for integer m and K > 0 has the sign of (-1)^(m-1).
    if order % 2 == 0:
        raise NumericError(
            f"shadowed density has negative total mass for K={k}, m={m} (even m); "
            "normalisation is impossible"
        )

    unit = ShadowedRicianParams(k=k, m=m, omega=1.0)
    scale = math.exp(-_shadowed_constants(k, m, 1.0)[2])

    def signed(r: np.ndarray) -> np.ndarray:
        # The array density at omega = 1, zero where an abscissa rounds to 0.
        out = np.zeros_like(r)
        pos = r > 0.0
        out[pos] = _verbatim_terms(r[pos], unit) / scale
        return out

    # The constant exponential factor is divided out during integration to
    # keep the quadrature relative-accurate for strongly shadowed settings.
    net, net_err = qagi(signed)
    # For m = 1 the integrand is non-negative, so |signed| is signed at every node.
    gross = net if m == 1.0 else qagi(lambda r: np.abs(signed(r)))[0]
    if gross <= 0.0 or not math.isfinite(net):
        raise NumericError(f"shadowed mass quadrature failed for K={k}, m={m}")
    if abs(net) < _MASS_CANCELLATION_LIMIT * gross:
        raise NumericError(
            f"shadowed mass for K={k}, m={m} is cancellation-dominated "
            f"(net {net:.3e} vs gross {gross:.3e}); not resolvable in double precision"
        )
    if net_err > _MASS_REL_ERR_LIMIT * abs(net):
        raise NumericError(
            f"shadowed mass for K={k}, m={m} did not reach the required "
            f"quadrature accuracy (value {net:.6e}, error estimate {net_err:.1e})"
        )
    if net < 0.0:
        raise NumericError(
            f"shadowed mass quadrature gave a negative total {net * scale:.3e} for "
            f"K={k}, m={m}, whose exact mass is positive"
        )
    return net * scale


def shadowed_rician_pdf(
    r: np.ndarray | float,
    p: ShadowedRicianParams,
    normalized: bool = True,
) -> np.ndarray | float:
    """Shadowed Rician amplitude density, evaluated exactly as defined.

    With ``normalized=True`` (the default) the value is divided by the
    measured total mass so it integrates to one; the raw product form is
    returned otherwise.  A parameter object keeps its mass once measured,
    so integrating the density measures it once.  Note the form is
    signed for m > 1: far-tail values may be negative.
    """
    r_arr = _amplitudes(r)
    out = np.zeros_like(r_arr)
    pos = (r_arr > 0.0) & (r_arr < np.inf)
    if np.any(pos):
        with np.errstate(over="ignore"):
            out[pos] = _verbatim_terms(r_arr[pos], p)
    if normalized:
        if "_measured_mass" not in vars(p):
            object.__setattr__(p, "_measured_mass", shadowed_rician_mass(p))
        out = out / p._measured_mass
    return out if np.ndim(r) else float(out)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _rician_draws(p: RicianParams, n: int, rng: np.random.Generator) -> np.ndarray:
    nu = math.sqrt(p.k * p.omega / (p.k + 1.0))
    sigma = math.sqrt(p.omega / (2.0 * (p.k + 1.0)))
    x = nu + sigma * rng.standard_normal(n)
    y = sigma * rng.standard_normal(n)
    return np.hypot(x, y)


def _shadowed_grid(p: ShadowedRicianParams) -> np.ndarray:
    beta, c, _ = _shadowed_constants(p.k, p.m, p.omega)
    r_hi = (beta + math.sqrt(beta * beta + 60.0 * c)) / c
    return np.linspace(0.0, 1.5 * r_hi, 4097)


def _shadowed_draws(
    p: ShadowedRicianParams, n: int, rng: np.random.Generator
) -> np.ndarray:
    # m = 1 is the one shape that is a proper density for every K.
    if integer_order(p.m) != 1:
        raise NumericError(f"shadowed sampling takes shape m = 1 only, got m={p.m}")
    grid = _shadowed_grid(p)
    pdf = np.asarray(shadowed_rician_pdf(grid, p, normalized=True))
    cdf = np.concatenate(
        ([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid)))
    )
    if cdf[-1] <= 0.0:
        raise NumericError("shadowed density mass vanished on the sampling grid")
    cdf /= cdf[-1]
    return np.interp(rng.random(n), cdf, grid)


def sample(
    params: RicianParams | ShadowedRicianParams,
    n: int,
    seed: int,
) -> np.ndarray:
    """Draw n i.i.d. amplitudes from the given distribution, reproducibly.

    The seed fully determines the output, so parallel batches can each
    carry their own seed without shared state.  Shadowed draws take the
    shape m = 1 only; any other raises NumericError naming it.
    """
    if n < 1:
        raise ValueError("sample size must be at least 1")
    rng = np.random.default_rng(seed)
    if isinstance(params, RicianParams):
        return _rician_draws(params, n, rng)
    if isinstance(params, ShadowedRicianParams):
        return _shadowed_draws(params, n, rng)
    raise TypeError(f"unsupported parameter type {type(params).__name__}")


# ---------------------------------------------------------------------------
# Fitting
# ---------------------------------------------------------------------------


def _k_moment_estimate(r: np.ndarray) -> float:
    """Moment-based K estimate from the second/fourth amplitude moments."""
    m2 = float(np.mean(r**2))
    m4 = float(np.mean(r**4))
    y = m4 / (m2 * m2)
    if y >= 2.0:
        return 0.0
    if y <= 1.0:
        return _K_FIT_MAX
    return min(((2.0 - y) + math.sqrt(2.0 - y)) / (y - 1.0), _K_FIT_MAX)


def _rician_negll(k: float, r: np.ndarray, omega: float) -> float:
    return -float(np.sum(_rician_log_pdf(r, k, omega)))


def _shadowed_m1_scale(k: float, mean_power: float) -> float:
    # The normalised m=1 member has mean power omega*(2K+1)/(K+1), so the
    # scale is tied to the sample mean power per candidate K.
    return mean_power * (k + 1.0) / (2.0 * k + 1.0)


def _shadowed_m1_negll(k: float, r: np.ndarray, mean_power: float) -> float:
    # m = 1 is the single member of the family that is a proper density
    # for every K; 1F1(1;1;-z) collapses to exp(-z).
    omega = _shadowed_m1_scale(k, mean_power)
    p = ShadowedRicianParams(k=k, m=1.0, omega=omega)
    beta, _, shift = _shadowed_constants(k, 1.0, omega)
    log_pdf = (
        _log_envelope(r, k, omega, beta, shift)
        - r * r / omega
        - math.log(shadowed_rician_mass(p))
    )
    return -float(np.sum(log_pdf))


def _refine_k(negll, r: np.ndarray, omega: float) -> float:
    # Moment estimate localises the bounded likelihood search; ties near a
    # flat likelihood resolve toward the smaller K end of the bracket.
    k_init = _k_moment_estimate(r)
    upper = min(_K_FIT_MAX, 100.0 * k_init + 10.0)
    u = bounded_minimum(lambda u: negll(float(np.expm1(u)), r, omega),
                        0.0, math.log1p(upper))
    return float(np.expm1(u))


def fit(
    samples: np.ndarray,
    regime: FadingRegime,
) -> RicianParams | ShadowedRicianParams:
    """Estimate distribution parameters from amplitude samples.

    Moment-based initialisation followed by bounded likelihood
    refinement of the K-factor.  For the Rician regime omega is the
    empirical mean power, which the distribution's mean power equals.
    For the shadowed regime the shape is pinned to m = 1 (the only
    member of the implemented family whose normalised form is a valid
    density for every K) and omega is the family scale that matches the
    empirical mean power at the fitted K.

    The amplitudes must be positive and finite: a zero amplitude has zero
    density under every K, so no K is more likely than another.
    """
    r = np.asarray(samples, dtype=float)
    if r.size < _MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {_MIN_FIT_SAMPLES} samples, got {r.size}")
    # Written so that NaN fails it.
    if not np.all((0.0 <= r) & (r < math.inf)):
        raise ValueError("amplitudes must be non-negative and finite")
    if np.any(r == 0.0):
        raise ValueError("amplitudes must be positive: a zero amplitude has zero likelihood")
    if np.ptp(r) == 0.0:
        raise ValueError("degenerate samples: zero variance")
    if regime is FadingRegime.DETERMINISTIC_LOS:
        raise ValueError("deterministic single-path regime has no distribution to fit")

    mean_power = float(np.mean(r**2))
    if regime is FadingRegime.RICIAN:
        k = _refine_k(_rician_negll, r, mean_power)
        return RicianParams(k=k, omega=mean_power)
    if regime is FadingRegime.SHADOWED_RICIAN:
        k = _refine_k(_shadowed_m1_negll, r, mean_power)
        return ShadowedRicianParams(
            k=k, m=1.0, omega=_shadowed_m1_scale(k, mean_power)
        )
    raise ValueError(f"unsupported regime {regime}")


def fit_row(regime: FadingRegime, k_direct: float | None, omega: float, seed: int,
            n_samples: int) -> tuple:
    """(k_fit, m_fit, omega_fit, n_samples) of one pass snapshot, from its seed alone.

    Fits n_samples draws of the regime's law at (k_direct, omega), m = 1 when
    shadowed; a Rician fit has no m.  A deterministic snapshot, or an undefined
    (None) or infinite k_direct, gives (None, None, None, 0) without drawing.
    """
    if regime is FadingRegime.DETERMINISTIC_LOS or k_direct is None or not math.isfinite(k_direct):
        return None, None, None, 0
    params = (RicianParams(k=k_direct, omega=omega) if regime is FadingRegime.RICIAN
              else ShadowedRicianParams(k=k_direct, m=1.0, omega=omega))
    fitted = fit(sample(params, n_samples, seed), regime)
    return fitted.k, getattr(fitted, "m", None), fitted.omega, n_samples
