
import numpy as np
import pytest
from hypothesis import given, strategies as st

from chansim.dispersion import (
    UNBOUNDED_SPREAD,
    azimuth_spread,
    elevation_spread,
    spread_report,
)

from conftest import make_snapshot, rows_of


def delay_spread(snapshot):
    """RMS delay spread and mean excess delay of a one-snapshot table."""
    [rep] = rows_of(spread_report(snapshot))
    return rep.rms_ds_s, rep.mean_excess_delay_s


class TestRmsDelaySpread:
    def test_two_point_symmetry(self):
        snap = make_snapshot([(1.0, 0.0, 0.0, True), (1.0, 0.0, 2e-9)])
        rms, mean = delay_spread(snap)
        assert mean == pytest.approx(1e-9, rel=1e-12)
        assert rms == pytest.approx(1e-9, rel=1e-12)

    def test_unequal_powers(self):
        # powers {1, 0.25} at {0, 5 ns}: mean 1 ns, rms 2 ns, hand-evaluated
        snap = make_snapshot([(1.0, 0.0, 0.0, True), (0.5, 0.0, 5e-9)])
        rms, mean = delay_spread(snap)
        assert mean == pytest.approx(1e-9, rel=1e-9)
        assert rms == pytest.approx(2e-9, rel=1e-9)

    def test_single_path(self):
        snap = make_snapshot([(1.0, 0.0, 3e-9, True)])
        rms, mean = delay_spread(snap)
        assert rms == 0.0
        assert mean == pytest.approx(3e-9)

    def test_zero_power_errors(self):
        snap = make_snapshot([(0.0, 0.0, 0.0, True)])
        with pytest.raises(ValueError):
            delay_spread(snap)

    @given(
        st.floats(min_value=-1e-6, max_value=1e-6),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_shift_and_scale_invariance(self, shift, scale):
        base = [(1.0, 0.0, 10e-9, True), (0.5, 0.0, 12e-9), (0.2, 0.0, 20e-9)]
        moved = [(a * scale, ph, d + shift + 1e-6) for a, ph, d, *_ in base]
        moved[0] = moved[0] + (True,)
        rms_base, _ = delay_spread(make_snapshot(base))
        rms_moved, _ = delay_spread(make_snapshot(moved))
        assert rms_moved == pytest.approx(rms_base, rel=1e-6, abs=1e-18)


class TestAzimuthSpread:
    def test_aligned_angles(self):
        assert azimuth_spread([37.0, 37.0, 37.0]) == 0.0

    def test_orthogonal_pair(self):
        # l = sqrt(2)/2 -> (180/pi) sqrt(ln 4), hand-evaluated
        assert azimuth_spread([0.0, 90.0]) == pytest.approx(47.701865433491434, rel=1e-9)

    def test_uniform_four_points_saturates(self):
        assert azimuth_spread([0.0, 90.0, 180.0, 270.0]) == UNBOUNDED_SPREAD

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            azimuth_spread([])

    @given(st.floats(min_value=0.0, max_value=360.0))
    def test_rotation_invariance(self, rot):
        base = np.array([10.0, 40.0, 95.0, 270.0])
        rotated = (base + rot) % 360.0
        assert azimuth_spread(rotated) == pytest.approx(azimuth_spread(base), abs=1e-7)

    def test_continuity_at_small_dispersion(self):
        assert azimuth_spread([20.0, 20.01]) < 0.01


class TestElevationSpread:
    def test_two_angles(self):
        assert elevation_spread([10.0, 20.0]) == pytest.approx(5.0, rel=1e-12)

    def test_single_angle(self):
        assert elevation_spread([15.0]) == 0.0

    def test_three_angles(self):
        # mean 10, sqrt((100+100+400)/3), hand-evaluated
        assert elevation_spread([0.0, 0.0, 30.0]) == pytest.approx(
            14.142135623730951, rel=1e-12
        )

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            elevation_spread([])


class TestSpreadReport:
    def test_single_path_all_zero(self):
        snap = make_snapshot([(1.0, 0.0, 1e-9, True)])
        [rep] = rows_of(spread_report(snap))
        assert rep.rms_ds_s == 0.0
        assert rep.az_spread_sat_deg == 0.0
        assert rep.el_spread_sat_deg == 0.0
        assert rep.az_spread_gs_deg == 0.0
        assert rep.el_spread_gs_deg == 0.0

    def test_report_uses_both_ends(self):
        snap = make_snapshot(
            [(1.0, 0.0, 0.0, True), (0.5, 0.0, 1e-9)], psi_deg=30.0,
            aod_az_deg=[10.0, 10.0], aod_el_deg=[-5.0, -5.0],
            aoa_az_deg=[0.0, 90.0], aoa_el_deg=[10.0, 20.0],
        )
        [rep] = rows_of(spread_report(snap))
        assert rep.az_spread_sat_deg == 0.0
        assert rep.el_spread_sat_deg == 0.0
        assert rep.az_spread_gs_deg == pytest.approx(47.701865433491434, rel=1e-9)
        assert rep.el_spread_gs_deg == pytest.approx(5.0, rel=1e-12)
