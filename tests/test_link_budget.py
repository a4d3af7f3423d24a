import math

import pytest

from chansim.antenna import AntennaModel
from chansim.atmosphere import AtmosphereParams, rain_attenuation_db
from chansim.config import ScenarioConfig
from chansim.geometry import PassGeometry
from chansim.link_budget import MISALIGN_PER_RAY, fspl_db, sweep_pass
from chansim.mpc import RAY_COLUMNS, RayTable

from conftest import make_snapshot, rows_of

GEO = PassGeometry(arc_radius_km=400.0, gs_height_km=0.023, altitudes_km=(100.0,))
ATM = AtmosphereParams()
NO_FIXED = AtmosphereParams(l_fixed_db=0.0)

FSPL_400 = 164.48898304844263  # 20 log10(4 pi 400e3 / lambda@10GHz), hand-evaluated
FSPL_500 = 166.42718330860376


def free_space_amplitude(d_km=400.0, fc_ghz=10.0):
    wavelength = 299792458.0 / (fc_ghz * 1e9)
    return wavelength / (4.0 * math.pi * d_km * 1e3)


def budget(table, geometry=GEO, **fields):
    """The budget rows of a table under a scenario with the given config fields."""
    return rows_of(sweep_pass(ScenarioConfig(geometry=geometry, **fields), table))


def single_los_snapshot(psi_deg=45.0, d_km=400.0, amplitude=None):
    if amplitude is None:
        amplitude = free_space_amplitude(d_km)
    return make_snapshot([(amplitude, 0.0, 0.0, True)], psi_deg=psi_deg, distance_km=d_km)


class TestFspl:
    def test_golden_400(self):
        assert fspl_db(400.0, 10.0) == pytest.approx(FSPL_400, abs=1e-9)
        assert fspl_db(400.0, 10.0) == pytest.approx(164.49, abs=0.01)

    def test_golden_500(self):
        assert fspl_db(500.0, 10.0) == pytest.approx(FSPL_500, abs=1e-9)
        assert fspl_db(500.0, 10.0) == pytest.approx(166.43, abs=0.01)

    def test_inverse_square_doubling(self):
        # 20 log10(2)
        assert fspl_db(2.0 * 123.0, 7.7) - fspl_db(123.0, 7.7) == pytest.approx(
            6.020599913279624, rel=1e-12
        )

    def test_validation(self):
        for d_km in (0.0, math.nan):
            with pytest.raises(ValueError, match=f"distance must be positive, got {d_km}"):
                fspl_db(d_km, 10.0)
        for fc_ghz in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=f"must be positive and finite, got {fc_ghz}"):
                fspl_db(100.0, fc_ghz)


class TestEvaluate:
    def test_single_los_identity(self):
        # L_tot = FSPL + L_hd + L_fx with isotropic antennas and clear sky
        snap = single_los_snapshot()
        [row] = budget(snap, atmosphere=ATM, p_tx_dbm=30.0, l_hd_db=1.5)
        assert row.l_total_db == pytest.approx(FSPL_400 + 3.0, rel=1e-9)
        assert row.p_rx_dbm == pytest.approx(30.0 - FSPL_400 - 3.0, rel=1e-9)

    def test_misalignment_adds_exactly(self):
        gs = AntennaModel(kind="single-element", peak_gain_dbi=0.0, hpbw_deg=2.0)
        snap = single_los_snapshot()
        [aligned] = budget(snap, gs_antenna=gs, atmosphere=ATM, misalign_az_deg=0.0)
        [skewed] = budget(snap, gs_antenna=gs, atmosphere=ATM, misalign_az_deg=1.0)
        assert skewed.l_total_db - aligned.l_total_db == pytest.approx(3.0, rel=1e-9)
        assert skewed.l_am_db == pytest.approx(3.0, rel=1e-9)

    def test_zero_loss_degenerate(self):
        snap = single_los_snapshot(amplitude=1.0)
        [row] = budget(snap, atmosphere=NO_FIXED, p_tx_dbm=30.0, l_hd_db=0.0)
        assert row.l_total_db == pytest.approx(0.0, abs=1e-12)

    def test_budget_identity_and_decomposition(self):
        snap = single_los_snapshot(psi_deg=20.0)
        gs = AntennaModel(kind="single-element", peak_gain_dbi=12.0, hpbw_deg=10.0)
        [row] = budget(
            snap, gs_antenna=gs, atmosphere=ATM,
            weather=frozenset({"rain", "clouds"}),
            misalign_az_deg=2.0, misalign_el_deg=1.0,
            p_tx_dbm=30.0,
            l_hd_db=1.5,
        )
        assert 30.0 - row.p_rx_dbm == pytest.approx(row.l_total_db, abs=1e-12)
        assert row.p_rx_dbm == pytest.approx(
            row.p_coh_dbm - row.l_hd_db - row.l_am_db - row.l_atm_db, abs=1e-12
        )

    def test_per_ray_mode_reports_zero_l_am(self):
        snap = single_los_snapshot()
        gs = AntennaModel(kind="single-element", peak_gain_dbi=0.0, hpbw_deg=2.0)
        [row] = budget(
            snap, gs_antenna=gs, atmosphere=ATM, misalign_az_deg=1.0,
            misalign_mode=MISALIGN_PER_RAY,
        )
        assert row.l_am_db == 0.0
        # the loss lands inside the coherent power instead
        [aligned] = budget(snap, gs_antenna=gs, atmosphere=ATM, misalign_az_deg=0.0)
        assert row.l_total_db - aligned.l_total_db == pytest.approx(3.0, rel=1e-6)

    def test_bad_misalign_mode(self):
        with pytest.raises(ValueError):
            budget(single_los_snapshot(), atmosphere=ATM, misalign_mode="both")


class TestSweep:
    def _snapshots(self, altitudes, d_km=400.0):
        geo = PassGeometry(arc_radius_km=d_km, gs_height_km=0.023, altitudes_km=altitudes)
        n = len(altitudes)
        columns = {name: [0.0] * n for name in RAY_COLUMNS}
        columns["amplitude"] = [free_space_amplitude(d_km)] * n
        return geo, RayTable(columns, [True] * n, range(n + 1), geo.altitudes_km, d_km)

    def test_clear_sky_offset_constant(self):
        geo, snaps = self._snapshots((50.0, 136.0, 264.0, 371.0))
        rows = budget(snaps, geo, atmosphere=ATM)
        for row in rows:
            assert row.l_total_db - row.fspl_db == pytest.approx(3.0, rel=1e-9)

    def test_zero_loss_sweep_reproduces_fspl(self):
        geo, snaps = self._snapshots((50.0, 136.0, 264.0, 371.0))
        rows = budget(snaps, geo, atmosphere=NO_FIXED, l_hd_db=0.0)
        for row in rows:
            assert row.l_total_db == pytest.approx(row.fspl_db, abs=1e-9)

    def test_rows_ordered_by_altitude(self):
        geo, snaps = self._snapshots((264.0, 50.0, 371.0))
        rows = budget(snaps, geo, atmosphere=ATM)
        alts = [row.altitude_km for row in rows]
        assert alts == sorted(alts)

    def test_rain_delta_matches_term(self):
        geo, snaps = self._snapshots((50.0, 136.0, 371.0))
        clear = budget(snaps, geo, atmosphere=ATM)
        rainy = budget(snaps, geo, atmosphere=ATM, weather=frozenset({"rain"}))
        for c, r in zip(clear, rainy):
            [expected] = rain_attenuation_db([c.psi_deg], ATM, geo.gs_height_km)
            assert r.l_total_db - c.l_total_db == pytest.approx(expected, rel=1e-9)

    def test_weather_never_decreases_total(self):
        geo, snaps = self._snapshots((50.0, 136.0, 371.0))
        base = budget(snaps, geo, atmosphere=ATM)
        for weather in ({"rain"}, {"clouds"}, {"snow"}, {"rain", "clouds", "snow"}):
            rows = budget(snaps, geo, atmosphere=ATM, weather=frozenset(weather))
            for b, w in zip(base, rows):
                assert w.l_total_db >= b.l_total_db

    def test_column_order(self):
        geo, snaps = self._snapshots((50.0,))
        assert tuple(sweep_pass(ScenarioConfig(geometry=geo), snaps)) == (
            "psi_deg",
            "altitude_km",
            "l_total_db",
            "p_rx_dbm",
            "p_coh_dbm",
            "l_hd_db",
            "l_am_db",
            "l_atm_db",
            "fspl_db",
        )
