import numpy as np
import pytest

from chansim.errors import ConfigError
from chansim.geometry import ElevationAngle
from chansim.link_budget import fspl_db
from chansim.ntn import (
    PROFILE_A,
    PROFILE_B,
    PROFILE_C,
    ntn_attenuation_db,
    select_profile,
    shadowing_draws,
)


class TestSelectProfile:
    @pytest.mark.parametrize(
        "psi_deg,expected",
        [
            (5.0, PROFILE_A),
            (9.99, PROFILE_A),
            (10.0, PROFILE_B),
            (14.99, PROFILE_B),
            (15.0, PROFILE_C),
            (20.0, PROFILE_C),
            (90.0, PROFILE_C),
        ],
    )
    def test_gating(self, psi_deg, expected):
        assert select_profile([psi_deg]) == [expected]

    def test_bad_thresholds(self):
        with pytest.raises(ConfigError):
            select_profile([5.0], psi1_deg=15.0, psi2_deg=10.0)
        with pytest.raises(ConfigError):
            select_profile([5.0], psi1_deg=10.0, psi2_deg=10.0)

    def test_monotone_two_breakpoints(self):
        names = select_profile(np.linspace(0.5, 90.0, 400))
        changes = sum(1 for a, b in zip(names, names[1:]) if a != b)
        assert changes == 2
        assert names[0] == PROFILE_A and names[-1] == PROFILE_C

    def test_matches_per_elevation_reference(self):
        psi = np.concatenate([np.linspace(0.5, 90.0, 4001), [10.0, 15.0, 90.0]])
        psi = np.concatenate([psi, np.nextafter(psi[-3:], 0.0)])

        def ref(psi_deg, psi1_deg, psi2_deg):
            if psi_deg < psi1_deg:
                return PROFILE_A
            return PROFILE_B if psi_deg < psi2_deg else PROFILE_C

        for psi1, psi2 in ((10.0, 15.0), (0.5, 90.0), (30.0, 30.5)):
            expected = [ref(x, psi1, psi2) for x in psi.tolist()]
            assert select_profile(psi, psi1, psi2) == expected

    def test_elevation_range_checked(self):
        with pytest.raises(ValueError, match=r"\(0, 90\] deg, got 0.0"):
            select_profile([45.0, 0.0])

    def test_profile_c_covers_unshadowed_regime(self):
        # With aligned thresholds, every elevation the fading model treats
        # as unshadowed maps onto profile C.
        from chansim.fading import FadingRegime, select_regime
        from conftest import make_snapshot

        # The threshold is the boundary snapshot's own elevation.
        psi2 = float(make_snapshot([(1.0, 0.0, 0.0, True)], psi_deg=15.0).psi_deg[0])
        for psi_deg in (15.0, 20.0, 45.0, 75.0, 90.0):
            snap = make_snapshot([(1.0, 0.0, 0.0, True)], psi_deg=psi_deg)
            [regime] = select_regime(snap, ElevationAngle(psi2))
            assert regime is not FadingRegime.SHADOWED_RICIAN
            assert select_profile(snap.psi_deg, 10.0, psi2) == [PROFILE_C]


class TestAttenuation:
    def test_zero_sigma_is_exact(self):
        [value] = ntn_attenuation_db(400.0, 10.0, [0.0], [123], antenna_gains_db=7.0)
        assert value == pytest.approx(fspl_db(400.0, 10.0) - 7.0, rel=1e-12)

    def test_deterministic_under_seed(self):
        [a] = ntn_attenuation_db(400.0, 10.0, [4.0], [9])
        [b] = ntn_attenuation_db(400.0, 10.0, [4.0], [9])
        assert a == b
        assert [a] != ntn_attenuation_db(400.0, 10.0, [4.0], [10])

    def test_rows_match_per_row_reference(self):
        sigmas = [8.0, 0.0, 6.0, 4.0, 4.0]
        seeds = [1_000_003 + i for i in range(len(sigmas))]
        expected = [
            fspl_db(500.0, 20.0)
            + (float(shadowing_draws(sigma, 1, seed)[0]) if sigma > 0.0 else 0.0) - 11.0
            for sigma, seed in zip(sigmas, seeds)
        ]
        values = ntn_attenuation_db(500.0, 20.0, sigmas, seeds, antenna_gains_db=11.0)
        assert all(type(v) is float for v in values)
        assert values == expected

    @pytest.mark.parametrize("sigma", [float("nan"), -3.0, float("inf")])
    def test_sigma_must_be_finite_and_non_negative(self, sigma):
        match = f"sigma must be finite and non-negative, got {sigma}"
        with pytest.raises(ValueError, match=match):
            ntn_attenuation_db(400.0, 10.0, [4.0, sigma], [1, 2])
        with pytest.raises(ValueError, match=match):
            shadowing_draws(sigma, 1, 2)

    def test_one_seed_per_sigma(self):
        with pytest.raises(ValueError):
            ntn_attenuation_db(400.0, 10.0, [4.0, 6.0], [1])

    def test_mean_converges_to_fspl_minus_gains(self):
        draws = shadowing_draws(4.0, 100_000, seed=3)
        mean = fspl_db(400.0, 10.0) - 11.0 + float(np.mean(draws))
        assert mean == pytest.approx(fspl_db(400.0, 10.0) - 11.0, abs=0.1)

    @pytest.mark.parametrize("sigma", [8.0, 6.0, 4.0])
    def test_sigma_recovery(self, sigma):
        draws = shadowing_draws(sigma, 100_000, seed=17)
        assert float(np.std(draws)) == pytest.approx(sigma, rel=0.02)
