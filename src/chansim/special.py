"""Confluent hypergeometric helper for the shadowed fading density.

Evaluates 1F1(m; 1; -z) for m > 0, z >= 0.  Order m = 1 uses the exact
identity 1F1(1; 1; -z) = exp(-z), evaluated with ``math.exp`` and cut to
0 past z = 745: bit for bit what the paths below return at m = 1.  Otherwise
the primary path is the power series after Kummer's transformation,

    1F1(m; 1; -z) = exp(-z) * 1F1(1 - m; 1; z),

whose terms are positive for m <= 1 and whose alternating head is short
for moderate m, summed to absolute tolerance 1e-12 with at most 500
terms.  Severe cancellation (large m with z inside the oscillatory
region) and non-convergence are detected from the running maximum term.
Rejected arguments use the scaled Laguerre three-term recurrence for
integer m (1F1(m;1;-z) = exp(-z) L_{m-1}(z), stable at any degree) and
the library's asymptotic evaluation for non-integer m at large z; the
remaining corner raises NumericError with diagnostics.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as sp_special

from .errors import NumericError

SERIES_TOL = 1e-12
SERIES_MAX_TERMS = 500
# Accept the series only if fewer than ~4 digits were lost to cancellation.
_CANCELLATION_LIMIT = 1e4

_INTEGER_TOL = 1e-9
# scipy's large-argument path is asymptotic-accurate from here on.
_ASYMPTOTIC_Z = 100.0

_LOG2 = math.log(2.0)


def _kummer_series(a: float, z: float) -> tuple[float, bool]:
    """sum_n (a)_n z^n / ((1)_n n!) with convergence and cancellation guards."""
    term = 1.0
    total = 1.0
    max_abs = 1.0
    for n in range(SERIES_MAX_TERMS):
        term *= (a + n) * z / ((n + 1.0) * (n + 1.0))
        total += term
        max_abs = max(max_abs, abs(term))
        if not math.isfinite(total):
            return math.nan, False
        if abs(term) <= SERIES_TOL * max(1.0, abs(total)) and n >= abs(a):
            if total == 0.0 or max_abs / abs(total) > _CANCELLATION_LIMIT:
                return math.nan, False
            return total, True
    return math.nan, False


def _laguerre_scaled(m: int, z: float) -> float:
    """exp(-z) * L_{m-1}(z) by the scaled three-term recurrence."""
    n_max = m - 1
    t_prev = 1.0        # L_0
    t_curr = 1.0 - z    # L_1
    exponent = 0
    if n_max == 0:
        t_curr = t_prev
    for n in range(1, n_max):
        t_next = ((2.0 * n + 1.0 - z) * t_curr - n * t_prev) / (n + 1.0)
        t_prev, t_curr = t_curr, t_next
        peak = max(abs(t_prev), abs(t_curr))
        if peak > 1e250:
            t_prev /= 2.0**500
            t_curr /= 2.0**500
            exponent += 500
        elif 0.0 < peak < 1e-250:
            t_prev *= 2.0**500
            t_curr *= 2.0**500
            exponent -= 500
    if t_curr == 0.0:
        return 0.0
    log_value = math.log(abs(t_curr)) + exponent * _LOG2 - z
    if log_value < -745.0:
        return 0.0
    return math.copysign(math.exp(log_value), t_curr)


def hyp1f1_neg(m: float, z: float) -> float:
    """1F1(m; 1; -z) for m > 0 and z >= 0."""
    if m <= 0.0:
        raise ValueError("order m must be positive")
    if z < 0.0:
        raise ValueError("z must be non-negative")
    if m == 1.0:
        # The recurrence below returns 0 past z = 745, where math.exp(-z)
        # is still subnormal; the same cut keeps both paths' values.
        return 0.0 if z > 745.0 else math.exp(-z)
    if z == 0.0:
        return 1.0
    # exp(-z) underflows past ~745; the series result would be 0 * huge.
    if z < 700.0:
        total, ok = _kummer_series(1.0 - m, z)
        if ok:
            return math.exp(-z) * total
    if abs(m - round(m)) <= _INTEGER_TOL:
        return _laguerre_scaled(int(round(m)), z)
    if z >= _ASYMPTOTIC_Z:
        value = float(sp_special.hyp1f1(m, 1.0, -z))
        if math.isfinite(value):
            return value
    raise NumericError(
        f"1F1({m}; 1; {-z}) could not be evaluated to tolerance: the Kummer series "
        f"did not converge within {SERIES_MAX_TERMS} terms and no stable fallback "
        "covers non-integer order at this argument"
    )


def hyp1f1_neg_array(m: float, z: np.ndarray) -> np.ndarray:
    """Vectorised hyp1f1_neg over an array of non-negative arguments."""
    flat = np.asarray(z, dtype=float).ravel()
    out = np.array([hyp1f1_neg(m, v) for v in flat.tolist()])
    return out.reshape(np.shape(z))


def log_i0(x: np.ndarray | float) -> np.ndarray | float:
    """log(I0(x)) for x >= 0, an array or a float, stable for large arguments."""
    return np.log(sp_special.i0e(x)) + x
