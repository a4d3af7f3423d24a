"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from chansim.antenna import AntennaModel, misalignment_loss_db
from chansim.atmosphere import (
    AtmosphereParams,
    cloud_attenuation_db,
    snow_attenuation_db,
    specific_rain_attenuation,
)
from chansim.clustering import cluster_snapshot, dbscan
from chansim.config import ScenarioConfig
from chansim.dispersion import azimuth_spread, elevation_spread, spread_report
from chansim.fading import (
    FadingRegime,
    RicianParams,
    ShadowedRicianParams,
    fit,
    rician_pdf,
    sample,
    shadowed_rician_pdf,
)
from chansim.geometry import PassGeometry, default_psi2
from chansim.link_budget import fspl_db, sweep_pass
from chansim.mpc import coherent_power_dbm
from chansim.ntn import select_profile, shadowing_draws
from chansim.synth import synth_scenario

from conftest import make_snapshot, rows_of
from test_clustering import brute_force_dbscan, cluster_count, relabel_canonical

ISO = AntennaModel()
ATM = AtmosphereParams()


class Stopwatch:
    def __init__(self, limit_s: float):
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit_s, (
                f"runtime {self.elapsed:.2f}s exceeded {self.limit_s}s"
            )
        return False


def report(number, text):
    print(f"ACCEPTANCE {number:02d} PASS: {text}")


def test_criterion_01_closed_form_attenuation_goldens():
    with Stopwatch(1.0) as watch:
        gamma_r = specific_rain_attenuation(ATM)
        # 0.0363 * 32**1.095 evaluated independently via exp/log
        gamma_oracle = 0.0363 * math.exp(1.095 * math.log(32.0))
        assert gamma_r == pytest.approx(gamma_oracle, rel=1e-6)
        assert gamma_r == pytest.approx(1.6145290041688587, rel=1e-6)
        # the quoted 4-decimal figure 1.6146 is the same expression rounded
        assert abs(gamma_r - 1.6146) < 1e-3

        [cloud] = cloud_attenuation_db([90.0], ATM)
        assert cloud == pytest.approx(0.0378, rel=1e-6)
        [snow] = snow_attenuation_db([90.0], ATM)
        assert snow == pytest.approx(0.08, rel=1e-6)
    report(1, f"gamma_R={gamma_r:.7f} dB/km, cloud@90={cloud:.4f} dB, "
              f"snow@90={snow:.2f} dB ({watch.elapsed:.2f}s)")


def test_criterion_02_fspl_goldens():
    with Stopwatch(1.0) as watch:
        assert fspl_db(400.0, 10.0) == pytest.approx(164.49, abs=0.01)
        assert fspl_db(500.0, 10.0) == pytest.approx(166.43, abs=0.01)
    report(2, f"FSPL 400km={fspl_db(400.0, 10.0):.4f} dB, "
              f"500km={fspl_db(500.0, 10.0):.4f} dB ({watch.elapsed:.2f}s)")


def test_criterion_03_weather_sweep_reproduction():
    with Stopwatch(5.0) as watch:
        psi_grid = (2.0, 5.0, 9.0, 14.0, 16.0, 20.0, 30.0, 45.0, 60.0, 75.0, 90.0)
        d = 400.0
        geo = PassGeometry(
            arc_radius_km=d,
            gs_height_km=0.023,
            altitudes_km=tuple(d * math.sin(math.radians(p)) for p in psi_grid),
        )
        psi2 = default_psi2(d)
        snaps = synth_scenario(geo, 10.0, psi2, los_only=True, seed=1)
        scenario = ScenarioConfig(geometry=geo, atmosphere=ATM, p_tx_dbm=30.0, l_hd_db=1.5)
        clear = rows_of(sweep_pass(scenario, snaps))

        # above the shadowing region the clear-sky budget is FSPL + 3 dB
        above = [r for r in clear if r.psi_deg >= psi2.psi_deg]
        assert above, "sweep must cover the unshadowed region"
        for row in above:
            assert row.l_total_db - row.fspl_db == pytest.approx(3.0, abs=1e-9)

        deltas = {}
        for name in ("rain", "clouds", "snow"):
            rows = rows_of(sweep_pass(replace(scenario, weather=frozenset({name})), snaps))
            deltas[name] = [w.l_total_db - c.l_total_db for c, w in zip(clear, rows)]
        for i in range(len(clear)):
            assert deltas["rain"][i] > 0 and deltas["clouds"][i] > 0 and deltas["snow"][i] > 0
            assert deltas["rain"][i] > deltas["snow"][i] > deltas["clouds"][i]
    report(3, f"clear-sky offset 3.0 dB at {len(above)} unshadowed elevations; "
              f"rain > snow > clouds at all {len(clear)} elevations ({watch.elapsed:.2f}s)")


def test_criterion_04_distribution_suite():
    with Stopwatch(60.0) as watch:
        for k in (0.0, 1.0, 10.0, 100.0):
            for omega in (0.5, 1.0, 4.0):
                p = RicianParams(k, omega)
                mass, _ = integrate.quad(lambda r: rician_pdf(r, p), 0.0, np.inf, limit=200)
                assert mass == pytest.approx(1.0, abs=1e-6), (k, omega)

        shadow_grid = [
            (k, m, omega)
            for k in (1.0, 2.0, 10.0, 100.0)
            for m in (1.0, 3.0, 5.0)
            for omega in (0.5, 1.0, 4.0)
        ]
        assert len(shadow_grid) == 36
        for k, m, omega in shadow_grid:
            p = ShadowedRicianParams(k, m, omega)
            mass, _ = integrate.quad(
                lambda r: shadowed_rician_pdf(r, p), 0.0, np.inf, limit=300
            )
            assert mass == pytest.approx(1.0, abs=1e-6), (k, m, omega)

        for k_true in (1.0, 10.0, 100.0):
            draws = sample(RicianParams(k_true, 1.0), 100_000, seed=7)
            est = fit(draws, FadingRegime.RICIAN)
            assert est.k == pytest.approx(k_true, rel=0.10), k_true
    report(4, "Rician mass on 12-point grid, normalised shadowed mass on "
              f"36-point grid, K recovery at 1e5 samples ({watch.elapsed:.1f}s)")


def test_criterion_05_dispersion_goldens():
    with Stopwatch(1.0) as watch:
        snap = make_snapshot([(1.0, 0.0, 0.0, True), (0.5, 0.0, 5e-9)])
        [rep] = rows_of(spread_report(snap))
        rms, mean = rep.rms_ds_s, rep.mean_excess_delay_s
        assert rms == pytest.approx(2e-9, rel=1e-9)
        assert mean == pytest.approx(1e-9, rel=1e-9)

        assert azimuth_spread([0.0, 90.0]) == pytest.approx(47.701865433491434, rel=1e-9)
        assert elevation_spread([10.0, 20.0]) == pytest.approx(5.0, rel=1e-9)

        # invariances: delay shift, power scale, azimuth rotation
        shifted = make_snapshot([(1.0, 0.0, 1e-6, True), (0.5, 0.0, 1e-6 + 5e-9)])
        assert spread_report(shifted)["rms_ds_s"][0] == pytest.approx(rms, rel=1e-9)
        scaled = make_snapshot([(3.0, 0.0, 0.0, True), (1.5, 0.0, 5e-9)])
        assert spread_report(scaled)["rms_ds_s"][0] == pytest.approx(rms, rel=1e-9)
        assert azimuth_spread([123.0, 213.0]) == pytest.approx(
            azimuth_spread([0.0, 90.0]), rel=1e-9
        )
    report(5, f"RMS-DS 2 ns, azimuth spread 47.70 deg, elevation spread 5 deg, "
              f"invariances hold ({watch.elapsed:.2f}s)")


def test_criterion_06_dbscan_oracle_equivalence():
    with Stopwatch(10.0) as watch:
        rng = np.random.default_rng(987)
        for trial in range(200):
            n = int(rng.integers(1, 65))
            dim = int(rng.integers(1, 8))
            pts = rng.normal(0.0, 1.0, size=(n, dim)) * rng.uniform(0.2, 2.0)
            got = dbscan(pts, xi=0.3, zeta=2)
            expected = brute_force_dbscan(pts, 0.3, 2)
            assert relabel_canonical(got) == relabel_canonical(expected), trial
    report(6, f"labels match brute-force reference on 200 instances, N<=64 "
              f"({watch.elapsed:.1f}s)")


def test_criterion_07_misalignment_reproduction():
    with Stopwatch(5.0) as watch:
        single = AntennaModel(kind="single-element", peak_gain_dbi=35.0, hpbw_deg=2.0)
        array = AntennaModel(
            kind="phased-array", peak_gain_dbi=35.0, nx=60, ny=60, steer_az_deg=75.0
        )
        loss_single = misalignment_loss_db(single, 3.0, 0.0)
        loss_array = misalignment_loss_db(array, 3.0, 0.0)
        assert loss_array < loss_single
        for model in (ISO, single, array):
            assert misalignment_loss_db(model, 0.0, 0.0) == 0.0
    report(7, f"3 deg offset: 60x60@75deg loses {loss_array:.2f} dB < "
              f"single 2deg-HPBW {loss_single:.2f} dB; zero offset is lossless "
              f"({watch.elapsed:.2f}s)")


def test_criterion_08_ntn_gating_and_shadowing():
    with Stopwatch(10.0) as watch:
        cases = {9.99: "NTN-TDL-A", 10.0: "NTN-TDL-B", 14.99: "NTN-TDL-B", 15.0: "NTN-TDL-C"}
        for psi_deg, expected in cases.items():
            assert select_profile([psi_deg], 10.0, 15.0) == [expected]

        sigmas = ScenarioConfig().ntn.sigma_db
        for name, sigma in (("NTN-TDL-A", 8.0), ("NTN-TDL-B", 6.0), ("NTN-TDL-C", 4.0)):
            assert sigmas[name] == sigma
            draws = shadowing_draws(sigmas[name], 100_000, seed=31)
            assert float(np.std(draws)) == pytest.approx(sigma, rel=0.02)
    report(8, "profile gating at 9.99/10/14.99/15 deg; sigma recovered within "
              f"2% at 1e5 draws for all profiles ({watch.elapsed:.1f}s)")


def test_criterion_09_pass_comparison():
    with Stopwatch(10.0) as watch:
        psi_grid = (0.75, 1.5, 3.0, 5.0, 7.0, 10.0, 14.0, 20.0, 28.0, 38.0, 50.0, 65.0, 80.0)
        totals = {}
        for d in (400.0, 500.0):
            geo = PassGeometry(
                arc_radius_km=d,
                gs_height_km=0.023,
                altitudes_km=tuple(d * math.sin(math.radians(p)) for p in psi_grid),
            )
            snaps = synth_scenario(geo, 10.0, default_psi2(d), seed=1)
            labels = cluster_snapshot(snaps)
            totals[d] = {
                "mpcs": sum(len(s) for s in snaps),
                "clusters": sum(cluster_count(labels[rows]) for rows in snaps),
                "rms_median": float(np.median(spread_report(snaps)["rms_ds_s"])),
            }
        assert totals[400.0]["mpcs"] >= totals[500.0]["mpcs"]
        assert totals[400.0]["clusters"] >= totals[500.0]["clusters"]
        assert totals[400.0]["rms_median"] >= totals[500.0]["rms_median"]
    report(9, f"400 km vs 500 km: MPCs {totals[400.0]['mpcs']}>={totals[500.0]['mpcs']}, "
              f"clusters {totals[400.0]['clusters']}>={totals[500.0]['clusters']}, "
              f"median RMS-DS {totals[400.0]['rms_median']:.2e}>="
              f"{totals[500.0]['rms_median']:.2e} ({watch.elapsed:.1f}s)")


def test_criterion_10_budget_identity():
    with Stopwatch(1.0) as watch:
        from chansim.antenna import spatial_filter
        from chansim.atmosphere import total_atmospheric_db

        d = 400.0
        psi_grid = (5.0, 10.0, 20.0, 45.0, 75.0, 90.0)
        geo = PassGeometry(
            arc_radius_km=d,
            gs_height_km=0.023,
            altitudes_km=tuple(d * math.sin(math.radians(p)) for p in psi_grid),
        )
        gs = AntennaModel(kind="single-element", peak_gain_dbi=12.0, hpbw_deg=10.0)
        snaps = synth_scenario(geo, 10.0, default_psi2(d), seed=4)
        scenario = ScenarioConfig(
            geometry=geo, gs_antenna=gs, atmosphere=ATM,
            weather=frozenset({"rain", "clouds", "snow"}),
            misalign_az_deg=2.0, misalign_el_deg=1.0,
            p_tx_dbm=30.0,
            l_hd_db=1.5,
        )
        rows = rows_of(sweep_pass(scenario, snaps))
        by_alt = {round(h, 9): i for i, h in enumerate(snaps.altitude_km.tolist())}
        for row in rows:
            assert 30.0 - row.p_rx_dbm == pytest.approx(row.l_total_db, abs=1e-9)
            i = by_alt[round(row.altitude_km, 9)]
            [p_coh] = coherent_power_dbm(spatial_filter(snaps.take([i]), ISO, gs), p_tx_dbm=30.0)
            l_am = misalignment_loss_db(gs, 2.0, 1.0)
            [l_atm] = total_atmospheric_db(
                [float(snaps.psi_deg[i])], ATM, geo.gs_height_km,
                weather={"rain", "clouds", "snow"}
            )
            assert row.p_coh_dbm == pytest.approx(p_coh, abs=1e-9)
            assert row.l_am_db == pytest.approx(l_am, abs=1e-9)
            assert row.l_atm_db == pytest.approx(l_atm, abs=1e-9)
            assert row.p_rx_dbm == pytest.approx(
                p_coh - 1.5 - l_am - l_atm, abs=1e-9
            )
    report(10, f"P_tx - P_rx = L_tot and the four-term decomposition hold to "
               f"1e-9 dB on {len(rows)} rows ({watch.elapsed:.2f}s)")
