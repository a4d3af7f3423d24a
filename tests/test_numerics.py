"""The in-tree QUADPACK and bounded Brent ports against scipy, bit for bit.

scipy is the oracle here only; chansim.numerics must return exactly what
``scipy.integrate.quad(f, 0, inf, limit=400)`` and
``scipy.optimize.minimize_scalar(method="bounded", options={"xatol": 1e-10})``
return, compared through ``float.hex``.
"""

import math
import warnings

import numpy as np
import pytest
from scipy import integrate, optimize

from chansim import fading
from chansim.fading import RicianParams, ShadowedRicianParams, sample
from chansim.numerics import bounded_minimum, qagi

INTEGRANDS = {
    "exp": lambda x: np.exp(-x),
    "power-singular": lambda x: x**-0.9 * np.exp(-x),
    "log-singular": lambda x: np.log(x) * np.exp(-x),
    "lorentzian": lambda x: 1.0 / (1.0 + x * x),
    "slow-tail": lambda x: (1.0 + x) ** -1.01,
    "zero": lambda x: np.zeros_like(x),
    # Runs out of its 400 subintervals.
    "sinc": lambda x: np.sin(x) / x,
    # Needs 385 subintervals.
    "damped-cosine": lambda x: np.cos(x) * np.exp(-0.01 * x),
    "nan-band": lambda x: np.where((x > 3.0) & (x < 3.5), np.nan, np.exp(-x)),
    # Bisects towards 0 until the intervals are too small to split.
    "log-singular-strong": lambda x: np.where(x < 0.5, 1.0 / (x * np.log(x) ** 2), 0.0),
    # Fills the 52-entry epsilon table and keeps shrinking it.
    "log-tail": lambda x: 1.0 / ((2.0 + x) * np.log(2.0 + x) ** 2),
    # Roundoff in the extrapolated intervals.
    "power-log-singular": lambda x: x**-0.99 * np.log(x) ** 2 * np.exp(-x),
    # Extrapolation that stops improving.
    "chirp": lambda x: np.cos(x * x),
}


@pytest.mark.parametrize("name", sorted(INTEGRANDS))
def test_qagi_matches_quad(name):
    f = INTEGRANDS[name]
    abscissae = []

    def counted(x):
        abscissae.append(x.size)
        return f(x)

    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        expected = integrate.quad(lambda x: float(f(np.array([x]))[0]), 0.0, np.inf,
                                  limit=400, full_output=1)
        got = qagi(counted)
    assert [v.hex() for v in got] == [v.hex() for v in expected[:2]]
    # One 15-node call, then one 30-node call per bisection.
    assert abscissae == [15] + [30] * (len(abscissae) - 1)
    assert sum(abscissae) == expected[2]["neval"]


def test_qagi_keeps_no_state_between_calls():
    first = qagi(INTEGRANDS["sinc"])
    qagi(INTEGRANDS["damped-cosine"])
    assert qagi(INTEGRANDS["sinc"]) == first


def k_likelihood(negll, r, omega):
    """The bounded search of fading._refine_k: objective and bounds."""
    upper = min(fading._K_FIT_MAX, 100.0 * fading._k_moment_estimate(r) + 10.0)
    return (lambda u: negll(float(np.expm1(u)), r, omega)), 0.0, math.log1p(upper)


def likelihoods():
    cases = {}
    for k in (0.0, 1.0, 10.0):
        r = sample(RicianParams(k=k, omega=2.0), 200, seed=3)
        cases[f"rician-K{k}"] = k_likelihood(fading._rician_negll, r, float(np.mean(r**2)))
    for k in (0.5, 3.0):
        r = sample(ShadowedRicianParams(k=k, m=1.0, omega=1.0), 200, seed=4)
        cases[f"shadowed-K{k}"] = k_likelihood(
            fading._shadowed_m1_negll, r, float(np.mean(r**2)))
    return cases


GENERATED = {
    "off-centre-quadratic": (lambda x: (x - 0.3) ** 2 + 1.0, 0.0, 2.0),
    "minimum-at-bound": (lambda x: 2.0 * x, 1.0, 3.0),
    "abs": (lambda x: abs(x - 0.7), 0.0, 2.0),
    "constant": (lambda x: 5.0, -1.0, 4.0),
    "inf-beyond": (lambda x: math.inf if x > 1.5 else (x - 1.2) ** 2, 0.0, 4.0),
}

SEARCHES = {**likelihoods(), **GENERATED}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_bounded_minimum_matches_minimize_scalar(name):
    func, lower, upper = SEARCHES[name]
    runs = []
    for minimise in (
        lambda f: optimize.minimize_scalar(f, bounds=(lower, upper), method="bounded",
                                           options={"xatol": 1e-10}).x,
        lambda f: bounded_minimum(f, lower, upper),
    ):
        xs = []
        x = minimise(lambda v: xs.append(float(v).hex()) or func(v))
        runs.append((float(x).hex(), xs))
    # Same end point, through the same evaluations.
    assert runs[0] == runs[1]
