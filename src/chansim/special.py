"""Confluent hypergeometric helper for the shadowed fading density.

Evaluates 1F1(m; 1; -z) for integer order m >= 1 and z >= 0, the only
shapes for which the shadowed product form has a normalisable mass.
Order m = 1 uses the exact identity 1F1(1; 1; -z) = exp(-z), evaluated
with ``math.exp`` and cut to 0 past z = 745: bit for bit what the
recurrence returns at m = 1.  Every other order uses

    1F1(m; 1; -z) = exp(-z) * L_{m-1}(z)

with the Laguerre polynomial from its three-term recurrence, rescaled by
2^±500 to stay in range, so it is stable at any degree and argument, and
cut to 0 past z = 1490, where |1F1| <= exp(-z/2) underflows.  A
non-integer order raises NumericError naming it.  ``log_i0`` is the one
user of scipy (``scipy.special.i0e``) and imports it at the call, so scipy
loads at the first fading fit, not with this module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError

_INTEGER_TOL = 1e-9

_LOG2 = math.log(2.0)


def integer_order(m: float) -> int | None:
    """The positive integer within 1e-9 of the shape m, or None if there is none."""
    if not math.isfinite(m):
        return None
    n = int(round(m))
    return n if n >= 1 and abs(m - n) <= _INTEGER_TOL else None


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
    """1F1(m; 1; -z) for integer order m >= 1 and z >= 0."""
    if not m > 0.0:
        raise ValueError("order m must be positive")
    if z < 0.0:
        raise ValueError("z must be non-negative")
    if m == 1.0:
        # The recurrence returns 0 past z = 745, where math.exp(-z) is
        # still subnormal; the same cut keeps both routes' values.
        return 0.0 if z > 745.0 else math.exp(-z)
    order = integer_order(m)
    if order is None:
        raise NumericError(f"1F1(m; 1; -z) is evaluated for integer shapes only, got m={m}")
    # |L_n(z)| <= exp(z/2) for z >= 0 (Szego), so |1F1| <= exp(-z/2) is below
    # the smallest subnormal past z = 1490, where the recurrence overflows.
    return 0.0 if z > 1490.0 else _laguerre_scaled(order, z)


def hyp1f1_neg_array(m: float, z: np.ndarray) -> np.ndarray:
    """hyp1f1_neg applied element by element to an array of non-negative arguments."""
    flat = np.asarray(z, dtype=float).ravel()
    out = np.array([hyp1f1_neg(m, v) for v in flat.tolist()])
    return out.reshape(np.shape(z))


def log_i0(x: np.ndarray | float) -> np.ndarray | float:
    """log(I0(x)) for x >= 0, an array or a float, stable for large arguments."""
    # Imported at the call, so that only a fading fit loads scipy.
    from scipy.special import i0e

    return np.log(i0e(x)) + x
