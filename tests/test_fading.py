import csv
import math
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate

from chansim import fading, report
from chansim.config import FadingConfig, ScenarioConfig
from chansim.errors import NumericError
from chansim.fading import (
    FadingRegime,
    RicianParams,
    ShadowedRicianParams,
    fit,
    rician_pdf,
    sample,
    select_regime,
    shadowed_rician_mass,
    shadowed_rician_pdf,
)
from chansim.geometry import ElevationAngle, default_psi2

from conftest import make_snapshot

mp.mp.dps = 30


def mp_verbatim_pdf(r, k, m, om):
    """Independent mpmath evaluation of the shadowed product form."""
    r, k, m, om = map(mp.mpf, (r, k, m, om))
    return (
        2 * r * (k + 1) / om
        * mp.e ** (-(k + m) / (k + 1))
        * mp.besseli(0, 2 * r * mp.sqrt(m * k / (om * (k + 1))))
        * mp.hyp1f1(m, 1, -(k + m) / (k + 1) * r * r / om)
    )


class TestRicianPdf:
    def test_rayleigh_point(self):
        # K=0, Omega=1 at r=1: 2 exp(-1), hand-evaluated
        assert rician_pdf(1.0, RicianParams(0.0, 1.0)) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-12
        )

    def test_zero_at_origin(self):
        assert rician_pdf(0.0, RicianParams(5.0, 2.0)) == 0.0

    def test_mass_k5_omega2(self):
        p = RicianParams(5.0, 2.0)
        mass, err = integrate.quad(lambda r: rician_pdf(r, p), 0.0, np.inf)
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("k", [0.0, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("omega", [0.5, 1.0, 4.0])
    def test_mass_grid(self, k, omega):
        p = RicianParams(k, omega)
        mass, _ = integrate.quad(lambda r: rician_pdf(r, p), 0.0, np.inf, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_k0_equals_rayleigh_pointwise(self):
        p = RicianParams(0.0, 2.0)
        r = np.linspace(0.0, 5.0, 301)
        rayleigh = 2.0 * r / p.omega * np.exp(-(r**2) / p.omega)
        np.testing.assert_allclose(np.asarray(rician_pdf(r, p)), rayleigh, atol=1e-12)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            rician_pdf(-0.5, RicianParams(1.0, 1.0))

    def test_nan_amplitude_rejected(self):
        with pytest.raises(ValueError, match="not NaN"):
            rician_pdf(math.nan, RicianParams(1.0, 1.0))
        with pytest.raises(ValueError, match="not NaN"):
            rician_pdf(np.array([0.5, math.nan]), RicianParams(1.0, 1.0))


class TestParamsNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["k", "omega"])
    def test_rician_field(self, field, bad):
        values = {"k": 1.0, "omega": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be a number, got {bad}"):
            RicianParams(**values)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["k", "m", "omega"])
    def test_shadowed_field(self, field, bad):
        values = {"k": 1.0, "m": 1.0, "omega": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"{field} must be a number, got {bad}"):
            ShadowedRicianParams(**values)


class TestShadowedRicianPdf:
    def test_zero_at_origin(self):
        assert shadowed_rician_pdf(0.0, ShadowedRicianParams(2.0, 3.0, 1.0)) == 0.0

    def test_verbatim_matches_mpmath_pointwise(self):
        cases = [(2.0, 3.0, 1.0), (1.0, 1.0, 2.0), (10.0, 5.0, 0.5)]
        for k, m, om in cases:
            p = ShadowedRicianParams(k, m, om)
            for r in (0.1, 0.5, 1.0, 2.0, 3.0):
                expected = float(mp_verbatim_pdf(r, k, m, om))
                got = shadowed_rician_pdf(r, p, normalized=False)
                assert got == pytest.approx(expected, rel=1e-9), (k, m, om, r)

    def test_mass_example_k2_m3(self):
        # Verbatim mass measured by independent mpmath quadrature:
        p = ShadowedRicianParams(2.0, 3.0, 1.0)
        expected = float(
            mp.quad(lambda r: mp_verbatim_pdf(r, 2, 3, 1), [0, 1, 5, mp.inf])
        )
        assert shadowed_rician_mass(p) == pytest.approx(expected, rel=1e-7)
        assert shadowed_rician_mass(p) == pytest.approx(0.8127074545138807, rel=1e-7)

    def test_normalized_mass_is_one(self):
        p = ShadowedRicianParams(2.0, 3.0, 1.0)
        mass, _ = integrate.quad(
            lambda r: shadowed_rician_pdf(r, p), 0.0, np.inf, limit=300
        )
        assert mass == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("k", [1.0, 10.0, 100.0])
    def test_m1_mass_analytic(self, k):
        # For m=1 the verbatim mass reduces to (K+1) exp(K/(K+1) - 1) in
        # closed form (Gaussian-Bessel integral), an independent oracle.
        p = ShadowedRicianParams(k, 1.0, 1.0)
        expected = (k + 1.0) * math.exp(k / (k + 1.0) - 1.0)
        assert shadowed_rician_mass(p) == pytest.approx(expected, rel=1e-9)

    def test_mass_omega_invariant(self):
        a = shadowed_rician_mass(ShadowedRicianParams(2.0, 3.0, 0.5))
        b = shadowed_rician_mass(ShadowedRicianParams(2.0, 3.0, 4.0))
        assert a == pytest.approx(b, rel=1e-9)

    def test_noninteger_m_with_positive_k_raises(self):
        with pytest.raises(NumericError, match="divergent"):
            shadowed_rician_mass(ShadowedRicianParams(1.0, 0.5, 1.0))

    def test_k0_m_above_one_has_zero_mass(self):
        with pytest.raises(NumericError, match="zero total mass"):
            shadowed_rician_mass(ShadowedRicianParams(0.0, 5.0, 1.0))

    def test_k0_m_below_one_not_integrable(self):
        with pytest.raises(NumericError, match="not integrable"):
            shadowed_rician_mass(ShadowedRicianParams(0.0, 0.5, 1.0))

    def test_even_m_negative_mass(self):
        with pytest.raises(NumericError, match="negative total mass"):
            shadowed_rician_mass(ShadowedRicianParams(1.0, 2.0, 1.0))

    def test_k0_m1_normalizable(self):
        p = ShadowedRicianParams(0.0, 1.0, 1.0)
        assert shadowed_rician_mass(p) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_huge_even_m_refused_before_quadrature(self, monkeypatch):
        # Every even m with K > 0 has a negative exact mass (here -e^-1888.8),
        # so it is refused before the two quadratures that took seconds.
        def no_quad(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(fading, "qagi", no_quad)
        with pytest.raises(NumericError, match=r"negative total mass .*\(even m\)"):
            shadowed_rician_mass(ShadowedRicianParams(5.0, 500.0, 1.0))

    def test_nan_amplitude_rejected(self):
        p = ShadowedRicianParams(1.0, 1.0, 1.0)
        for r in (math.nan, np.array([0.5, math.nan])):
            for normalized in (True, False):
                with pytest.raises(ValueError, match="not NaN"):
                    shadowed_rician_pdf(r, p, normalized=normalized)

    def test_verbatim_mode_needs_no_mass(self):
        # Raw evaluation works even where normalisation is impossible.
        p = ShadowedRicianParams(1.0, 2.0, 1.0)
        value = shadowed_rician_pdf(0.7, p, normalized=False)
        assert value == pytest.approx(float(mp_verbatim_pdf(0.7, 1, 2, 1)), rel=1e-9)


class TestSampling:
    def test_deterministic_under_seed(self):
        p = RicianParams(3.0, 1.0)
        a = sample(p, 5, seed=42)
        b = sample(p, 5, seed=42)
        np.testing.assert_array_equal(a, b)
        assert sample(p, 1, seed=1)[0] != sample(p, 1, seed=2)[0]

    def test_rician_mean_power(self):
        draws = sample(RicianParams(0.0, 1.0), 100_000, seed=7)
        assert float(np.mean(draws**2)) == pytest.approx(1.0, abs=0.02)

    def test_high_k_concentration(self):
        draws = sample(RicianParams(100.0, 1.0), 1000, seed=7)
        cov = float(np.std(draws) / np.mean(draws))
        assert cov < 0.12

    def test_shadowed_m1_mean_power(self):
        # Mean power of the normalised m=1 member is omega (2K+1)/(K+1),
        # derived from the same Gaussian-Bessel integral as the mass.
        k, om = 5.0, 2.0
        draws = sample(ShadowedRicianParams(k, 1.0, om), 200_000, seed=9)
        expected = om * (2.0 * k + 1.0) / (k + 1.0)
        assert float(np.mean(draws**2)) == pytest.approx(expected, rel=0.02)

    def test_shadowed_sign_indefinite_family_rejected(self):
        with pytest.raises(NumericError):
            sample(ShadowedRicianParams(1.0, 3.0, 1.0), 100, seed=0)

    @pytest.mark.parametrize("k", [0.0, 1e-6, 1.0, 1e4])
    @pytest.mark.parametrize("m", [0.5, 1.5, 2, 3, 5, 10**6])
    def test_shape_other_than_one_refused_before_the_density(self, monkeypatch, k, m):
        def unreachable(*args, **kwargs):
            raise AssertionError("the density was evaluated")

        monkeypatch.setattr(fading, "shadowed_rician_pdf", unreachable)
        with pytest.raises(NumericError, match=re.escape(f"m={float(m)}")):
            sample(ShadowedRicianParams(k, m, 1.0), 100, seed=0)

    @pytest.mark.parametrize("k", [0.0, 1.0])
    @pytest.mark.parametrize("m", [1.0 - 1e-10, 1.0 + 1e-10])
    def test_shape_within_tolerance_of_one_samples(self, k, m):
        draws = sample(ShadowedRicianParams(k, m, 1.0), 1000, seed=3)
        exact = sample(ShadowedRicianParams(k, 1.0, 1.0), 1000, seed=3)
        np.testing.assert_allclose(draws, exact, rtol=1e-6)

    def test_bad_size(self):
        with pytest.raises(ValueError):
            sample(RicianParams(1.0, 1.0), 0, seed=0)


class TestFit:
    def test_rician_recovery(self):
        draws = sample(RicianParams(10.0, 2.0), 100_000, seed=7)
        est = fit(draws, FadingRegime.RICIAN)
        assert isinstance(est, RicianParams)
        assert est.k == pytest.approx(10.0, rel=0.10)
        assert est.omega == pytest.approx(float(np.mean(draws**2)), rel=1e-12)

    def test_rayleigh_limit(self):
        draws = sample(RicianParams(0.0, 1.0), 100_000, seed=21)
        est = fit(draws, FadingRegime.RICIAN)
        assert est.k < 0.1

    def test_omega_tracks_mean_power(self):
        draws = sample(RicianParams(5.0, 3.0), 50_000, seed=5)
        est = fit(draws, FadingRegime.RICIAN)
        assert abs(est.omega - float(np.mean(draws**2))) / est.omega < 0.05

    def test_shadowed_round_trip(self):
        true = ShadowedRicianParams(0.3, 1.0, 1.0)
        draws = sample(true, 100_000, seed=11)
        est = fit(draws, FadingRegime.SHADOWED_RICIAN)
        assert isinstance(est, ShadowedRicianParams)
        assert est.m == 1.0
        assert est.k == pytest.approx(true.k, rel=0.2)
        assert est.omega == pytest.approx(true.omega, rel=0.05)

    def test_constant_samples_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            fit(np.ones(500), FadingRegime.RICIAN)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit(np.linspace(0.1, 1.0, 99), FadingRegime.RICIAN)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("regime", [FadingRegime.RICIAN, FadingRegime.SHADOWED_RICIAN])
    def test_non_finite_samples_rejected(self, regime, bad):
        draws = np.random.default_rng(4).rayleigh(size=500)
        draws[123] = bad
        with pytest.raises(ValueError, match="non-negative and finite"):
            fit(draws, regime)

    @pytest.mark.parametrize("regime", [FadingRegime.RICIAN, FadingRegime.SHADOWED_RICIAN])
    def test_zero_amplitude_rejected(self, regime):
        # A zero has zero likelihood under every K; it gave K = 537.23 and a log warning.
        draws = sample(RicianParams(5.0, 1.0), 1000, 3)
        draws[0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="must be positive: a zero amplitude"):
                fit(draws, regime)

    def test_deterministic_regime_has_no_fit(self):
        with pytest.raises(ValueError):
            fit(np.linspace(0.1, 1.0, 500), FadingRegime.DETERMINISTIC_LOS)


class TestFitRow:
    """fit_row: one report row's draws and fit, from its own seed."""

    @pytest.mark.parametrize("regime,k_direct", [
        (FadingRegime.DETERMINISTIC_LOS, 2.0),
        (FadingRegime.SHADOWED_RICIAN, None),
        (FadingRegime.RICIAN, math.inf),
        (FadingRegime.SHADOWED_RICIAN, math.inf),
    ], ids=["deterministic", "undefined-k", "rician-infinite-k", "shadowed-infinite-k"])
    def test_rows_without_a_law_draw_nothing(self, monkeypatch, regime, k_direct):
        def no_draws(*args):
            raise AssertionError("drew amplitudes for a row without a law")

        monkeypatch.setattr(fading, "sample", no_draws)
        assert fading.fit_row(regime, k_direct, 1.0, 7, 1000) == (None, None, None, 0)

    def test_fitted_rows_equal_the_report_cells(self, tmp_path):
        cfg = ScenarioConfig(fading=FadingConfig(fit_samples=500))
        fits = report.run_report(cfg, "fading", tmp_path)["fits"]
        with (tmp_path / "fading.csv").open() as f:
            omegas = [float(row["omega"]) for row in csv.DictReader(f)]
        keys = ("k_fit", "m_fit", "omega_fit", "n_samples")
        for regime in (FadingRegime.RICIAN, FadingRegime.SHADOWED_RICIAN):
            idx = next(i for i, row in enumerate(fits)
                       if row["regime"] == regime.value and row["n_samples"])
            row = fading.fit_row(regime, fits[idx]["k_direct"], omegas[idx],
                                 report._row_seed(cfg.seed, idx), 500)
            assert row == tuple(fits[idx][key] for key in keys)
            assert (row[1] is None) == (regime is FadingRegime.RICIAN)


class TestSelectRegime:
    def test_shadowed_below_threshold(self):
        snap = make_snapshot(
            [(1.0, 0.0, 0.0, True), (0.1, 0.0, 1e-9), (0.1, 0.0, 2e-9)], psi_deg=5.0
        )
        psi2 = ElevationAngle(14.477512185929925)
        assert select_regime(snap, psi2) == [FadingRegime.SHADOWED_RICIAN]

    def test_rician_above_threshold_with_nlos(self):
        snap = make_snapshot([(1.0, 0.0, 0.0, True), (0.1, 0.0, 1e-9)], psi_deg=30.0)
        assert select_regime(snap, ElevationAngle(14.48)) == [FadingRegime.RICIAN]

    def test_deterministic_single_path(self):
        snap = make_snapshot([(1.0, 0.0, 0.0, True)], psi_deg=45.0)
        assert select_regime(snap, ElevationAngle(14.48)) == [FadingRegime.DETERMINISTIC_LOS]

    def test_default_threshold(self):
        assert default_psi2(400.0).psi_deg == pytest.approx(14.477512185929925)
        with pytest.raises(ValueError):
            default_psi2(80.0)


class TestMassCache:
    """No shared cache: each mass is measured where it is asked for, and a
    normalised density keeps only its own object's mass, so fading rows on
    threads share no state."""

    @pytest.mark.parametrize("m,quads", [(1.0, 1), (3.0, 2)])
    def test_quadratures_per_uncached_mass(self, monkeypatch, m, quads):
        # m = 1 has a positive integrand, so its gross mass is its net mass.
        calls = []
        qagi = fading.qagi

        def counted(*args, **kwargs):
            calls.append(args)
            return qagi(*args, **kwargs)

        monkeypatch.setattr(fading, "qagi", counted)
        mass = shadowed_rician_mass(ShadowedRicianParams(2.0, m, 1.0))
        assert len(calls) == quads
        assert mass == shadowed_rician_mass(ShadowedRicianParams(2.0, m, 1.0))
        assert len(calls) == 2 * quads

    def test_normalised_density_measures_its_mass_once_per_object(self, monkeypatch):
        # A quadrature over the normalised density calls it once per node.
        measured = []
        mass = fading.shadowed_rician_mass
        monkeypatch.setattr(fading, "shadowed_rician_mass",
                            lambda p: measured.append(p) or mass(p))
        p = ShadowedRicianParams(2.0, 3.0, 1.0)
        first = shadowed_rician_pdf(0.5, p)
        assert shadowed_rician_pdf(0.5, p) == first
        assert len(measured) == 1
        assert shadowed_rician_pdf(0.5, ShadowedRicianParams(2.0, 3.0, 1.0)) == first
        assert len(measured) == 2


class TestMassLeavesWarningsAlone:
    """The mass and the fit neither warn nor filter warnings: the warnings
    filters are process-wide, shared by rows fitted on threads."""

    def test_filters_unchanged_by_fits_on_threads(self):
        # More threads than cores and a short switch interval interleave the
        # quadratures; a filter pushed and popped around each would leak.
        before = list(warnings.filters)
        rng = np.random.default_rng(5)
        draws = [rng.rayleigh(size=200) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(draws)) as pool:
                futures = [pool.submit(fit, r, FadingRegime.SHADOWED_RICIAN) for r in draws]
                fitted = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert [p.m for p in fitted] == [1.0] * len(draws)
        assert warnings.filters == before

    def test_fit_runs_where_integration_warnings_are_errors(self):
        # Every warning is an error here, so any warning the quadratures or
        # the search raised would fail the fit.
        before = list(warnings.filters)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = np.random.default_rng(6).rayleigh(size=200)
            fitted = fit(draws, FadingRegime.SHADOWED_RICIAN)
        assert fitted.m == 1.0 and fitted.k >= 0.0
        assert warnings.filters == before


def array_integrand(k, m):
    """The mass integrand as one-element arrays through the array density:
    the oracle whose scipy quadrature every mass must reproduce bit for bit."""
    unit = ShadowedRicianParams(k=k, m=m, omega=1.0)
    scale = math.exp(-(k + m) / (k + 1.0))

    def signed(r):
        return float(fading._verbatim_terms(np.array([r]), unit)[0]) / scale if r > 0.0 else 0.0

    return signed, scale


class TestFloatIntegrand:
    def test_masses_match_array_density_bit_for_bit(self):
        cases = [(k, 1.0) for k in np.logspace(-7.0, 4.0, 300).tolist()]
        cases += [(2.0, 3.0), (1.0, 5.0), (5.0, 7.0)]
        for k, m in cases:
            oracle, scale = array_integrand(k, m)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                expected = integrate.quad(oracle, 0.0, np.inf, limit=400)[0] * scale
            unit = ShadowedRicianParams(k, m, 1.0)
            assert shadowed_rician_mass(unit).hex() == expected.hex(), (k, m)
