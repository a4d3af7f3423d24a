import math

import mpmath as mp
import numpy as np
import pytest

from chansim import special
from chansim.errors import NumericError
from chansim.fading import ShadowedRicianParams, shadowed_rician_pdf
from chansim.special import hyp1f1_neg, hyp1f1_neg_array, log_i0

mp.mp.dps = 40


def reference(m: float, z: float) -> float:
    return float(mp.hyp1f1(m, 1, -mp.mpf(z)))


class TestHyp1F1Neg:
    def test_zero_argument(self):
        assert hyp1f1_neg(3.0, 0.0) == 1.0

    def test_m_equals_one_is_exponential(self):
        for z in (0.1, 1.0, 10.0, 100.0):
            assert hyp1f1_neg(1.0, z) == pytest.approx(math.exp(-z), rel=1e-12)

    @pytest.mark.parametrize("m", [1.0, 2.0, 3.0, 5.0, 10.0])
    @pytest.mark.parametrize("z", [0.5, 2.0, 10.0, 30.0, 100.0, 400.0])
    def test_series_region_matches_mpmath(self, m, z):
        assert hyp1f1_neg(m, z) == pytest.approx(reference(m, z), rel=1e-9)

    @pytest.mark.parametrize(
        "m,z",
        [
            (50.0, 30.0),
            (50.0, 60.0),
            (50.0, 200.0),
            (500.0, 1.0),
            (500.0, 10.0),
            (500.0, 337.0),
            (500.0, 757.0),
        ],
    )
    def test_large_integer_order_matches_mpmath(self, m, z):
        # These arguments defeat the series (catastrophic cancellation in
        # the alternating head); the recurrence fallback must stay exact.
        assert hyp1f1_neg(m, z) == pytest.approx(reference(m, z), rel=1e-9)

    def test_huge_argument_integer_order(self):
        # Past exp underflow for the series; recurrence handles it in log space.
        assert hyp1f1_neg(5.0, 757.0) == pytest.approx(reference(5.0, 757.0), rel=1e-9)
        assert hyp1f1_neg(500.0, 3000.0) == reference(500.0, 3000.0) == 0.0

    @pytest.mark.parametrize("m,z", [(3.0, 1e155), (3.0, math.inf), (50.0, 1e70),
                                     (500.0, 1e60), (2.0, 1e300)])
    def test_far_tail_is_zero(self, m, z):
        # |L_n(z)| <= exp(z/2) (Szego), so |1F1(m; 1; -z)| <= exp(-z/2) is below
        # the smallest subnormal past z = 1490, where the recurrence overflows.
        assert hyp1f1_neg(m, z) == 0.0
        assert math.isnan(hyp1f1_neg(m, math.nan))

    def test_far_tail_cut_keeps_the_recurrence_bits(self):
        rng = np.random.default_rng(5)
        grid = np.concatenate([np.geomspace(math.nextafter(1490.0, math.inf), 1e150, 150),
                               rng.uniform(1490.0, 3000.0, 50)]).tolist()
        finite = 0
        for m in (2, 3, 5, 7, 50, 500):
            for z in grid:
                recurrence = special._laguerre_scaled(m, z)
                if math.isfinite(recurrence):
                    finite += 1
                    assert hyp1f1_neg(float(m), z).hex() == recurrence.hex(), (m, z)
        assert finite > 600

    def test_noninteger_order_raises_naming_it(self):
        # Only integer shapes have a normalisable shadowed density, so no
        # other order is evaluated, in the raw density either.
        with pytest.raises(NumericError, match=r"m=2\.5"):
            hyp1f1_neg(2.5, 1.0)
        with pytest.raises(NumericError, match="m=inf"):
            hyp1f1_neg(math.inf, 1.0)
        with pytest.raises(NumericError, match=r"m=0\.5"):
            shadowed_rician_pdf(0.7, ShadowedRicianParams(1.0, 0.5, 1.0), normalized=False)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            hyp1f1_neg(0.0, 1.0)
        with pytest.raises(ValueError):
            hyp1f1_neg(math.nan, 1.0)
        with pytest.raises(ValueError):
            hyp1f1_neg(2.0, -1.0)

    def test_array_wrapper_shape(self):
        z = np.array([[0.0, 1.0], [2.0, 3.0]])
        out = hyp1f1_neg_array(2.0, z)
        assert out.shape == z.shape
        assert out[0, 0] == 1.0


class TestLogI0:
    @pytest.mark.parametrize("x", [0.0, 0.5, 5.0, 50.0, 700.0, 5000.0])
    def test_matches_mpmath(self, x):
        expected = float(mp.log(mp.besseli(0, mp.mpf(x))))
        assert float(log_i0(np.array(x))) == pytest.approx(expected, rel=1e-12)


def recurrence_m1(z: float) -> float:
    """1F1(1; 1; -z) by the Laguerre recurrence the m = 1 identity bypasses."""
    return 1.0 if z == 0 else special._laguerre_scaled(1, z)


class TestOrderOneIdentity:
    BOUNDARY = [0.0, 5e-324, 1e-300, 1.0, math.nextafter(700.0, 0.0), 700.0,
                math.nextafter(700.0, math.inf), math.nextafter(745.0, 0.0), 745.0,
                math.nextafter(745.0, math.inf), 745.1, 745.2, 1e300, math.inf]

    def test_boundary_values_bit_for_bit(self):
        for z in self.BOUNDARY:
            assert hyp1f1_neg(1.0, z).hex() == recurrence_m1(z).hex(), z
        assert math.isnan(hyp1f1_neg(1.0, math.nan))
        assert math.isnan(recurrence_m1(math.nan))

    def test_dense_grid_bit_for_bit(self):
        # np.exp differs from math.exp in the last bit on a few percent of
        # these arguments, so the identity must stay on math.exp.
        rng = np.random.default_rng(3)
        grid = np.concatenate([rng.uniform(0.0, 760.0, 20000),
                               np.exp(rng.uniform(-700.0, 6.6, 20000))])
        got = hyp1f1_neg_array(1.0, grid)
        expected = np.array([recurrence_m1(z) for z in grid.tolist()])
        assert got.tobytes() == expected.tobytes()
