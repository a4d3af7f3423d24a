import math

import pytest
from hypothesis import given, strategies as st

from chansim.geometry import ElevationAngle
from chansim.mpc import (
    COHERENT_PHASOR_SUM,
    COHERENT_POWER_SUM,
    Mpc,
    Snapshot,
    coherent_power_dbm,
    k_factor,
)

from conftest import make_snapshot


class TestMpcValidation:
    def test_phase_normalised(self):
        ray = Mpc(amplitude=1.0, phase_rad=7.0, delay_s=0.0)
        assert 0.0 <= ray.phase_rad < 2.0 * math.pi
        assert ray.phase_rad == pytest.approx(7.0 - 2.0 * math.pi)

    @pytest.mark.parametrize("phase", [-1e-300, -1e-17, -2.0 * math.pi])
    def test_phase_wraps_into_half_open_range(self, phase):
        ray = Mpc(amplitude=1.0, phase_rad=phase, delay_s=0.0)
        assert 0.0 <= ray.phase_rad < 2.0 * math.pi

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"amplitude": -0.1},
            {"delay_s": -1e-9},
            {"aoa_az_deg": 360.0},
            {"aod_el_deg": 90.5},
        ],
    )
    def test_field_ranges(self, kwargs):
        base = {"amplitude": 1.0, "phase_rad": 0.0, "delay_s": 0.0}
        base.update(kwargs)
        with pytest.raises(ValueError):
            Mpc(**base)

    def test_snapshot_sorts_delays(self):
        snap = make_snapshot([(1.0, 0.0, 5e-9), (1.0, 0.0, 1e-9)])
        assert [m.delay_s for m in snap.mpcs] == [1e-9, 5e-9]

    def test_snapshot_rejects_empty_and_double_los(self):
        with pytest.raises(ValueError):
            Snapshot(psi=ElevationAngle(45.0), distance_km=400.0, mpcs=())
        with pytest.raises(ValueError):
            make_snapshot([(1.0, 0.0, 0.0, True), (1.0, 0.0, 1e-9, True)])


class TestCoherentPower:
    def test_single_path_both_modes(self):
        snap = make_snapshot([(0.1, 1.234, 0.0, True)])
        for mode in (COHERENT_POWER_SUM, COHERENT_PHASOR_SUM):
            assert coherent_power_dbm(snap, mode, 30.0) == pytest.approx(10.0, abs=1e-9)

    def test_two_inphase_paths(self):
        snap = make_snapshot([(0.1, 0.0, 0.0, True), (0.1, 0.0, 1e-9)])
        # 30 + 10 log10(0.02) and 30 + 10 log10(0.04), hand-evaluated
        assert coherent_power_dbm(snap, COHERENT_POWER_SUM, 30.0) == pytest.approx(
            13.010299956639813, rel=1e-12
        )
        assert coherent_power_dbm(snap, COHERENT_PHASOR_SUM, 30.0) == pytest.approx(
            16.020599913279625, rel=1e-12
        )

    def test_perfect_cancellation(self):
        snap = make_snapshot([(0.1, 0.0, 0.0, True), (0.1, math.pi, 1e-9)])
        assert coherent_power_dbm(snap, COHERENT_PHASOR_SUM, 30.0) == -math.inf
        assert coherent_power_dbm(snap, COHERENT_POWER_SUM, 30.0) == pytest.approx(
            13.010299956639813, rel=1e-12
        )

    def test_all_zero_amplitudes(self):
        snap = make_snapshot([(0.0, 0.0, 0.0, True)])
        assert coherent_power_dbm(snap, COHERENT_POWER_SUM, 30.0) == -math.inf

    def test_bad_mode(self):
        snap = make_snapshot([(0.1, 0.0, 0.0, True)])
        with pytest.raises(ValueError):
            coherent_power_dbm(snap, "sum", 30.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=1e-6, max_value=10.0),
                st.floats(min_value=0.0, max_value=6.28),
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_phasor_bounded_by_power_sum(self, rays):
        snap = make_snapshot(
            [(a, ph, i * 1e-9) for i, (a, ph) in enumerate(rays)], psi_deg=30.0
        )
        p_power = coherent_power_dbm(snap, COHERENT_POWER_SUM, 0.0)
        p_phasor = coherent_power_dbm(snap, COHERENT_PHASOR_SUM, 0.0)
        # Cauchy-Schwarz: |sum a e^{j chi}|^2 <= N * sum a^2
        assert p_phasor <= p_power + 10.0 * math.log10(len(rays)) + 1e-9

    @given(
        st.floats(min_value=-40.0, max_value=40.0),
        st.lists(st.floats(min_value=1e-6, max_value=10.0), min_size=1, max_size=6),
    )
    def test_gain_shift(self, shift_db, amps):
        snap = make_snapshot([(a, 0.3 * i, i * 1e-9) for i, a in enumerate(amps)])
        scale = 10.0 ** (shift_db / 20.0)
        scaled = make_snapshot(
            [(a * scale, 0.3 * i, i * 1e-9) for i, a in enumerate(amps)]
        )
        base = coherent_power_dbm(snap, COHERENT_POWER_SUM, 0.0)
        assert coherent_power_dbm(scaled, COHERENT_POWER_SUM, 0.0) == pytest.approx(
            base + shift_db, abs=1e-8
        )


class TestKFactor:
    def test_direct_ratio(self):
        # LOS power 1, NLOS powers 0.05 + 0.05 -> K = 10
        snap = make_snapshot(
            [
                (1.0, 0.0, 0.0, True),
                (math.sqrt(0.05), 0.0, 1e-9),
                (math.sqrt(0.05), 0.0, 2e-9),
            ]
        )
        assert k_factor(snap) == pytest.approx(10.0, rel=1e-12)

    def test_los_only_undefined(self):
        snap = make_snapshot([(1.0, 0.0, 0.0, True)])
        assert k_factor(snap) is None

    def test_equal_power(self):
        snap = make_snapshot([(1.0, 0.0, 0.0, True), (1.0, 0.0, 1e-9)])
        assert k_factor(snap) == pytest.approx(1.0)

    def test_missing_los_is_structural_error(self):
        snap = make_snapshot([(1.0, 0.0, 0.0), (0.5, 0.0, 1e-9)])
        with pytest.raises(ValueError):
            k_factor(snap)
        # explicit opt-in designates the strongest path
        assert k_factor(snap, designate_strongest=True) == pytest.approx(4.0)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, scale):
        snap = make_snapshot(
            [(1.0 * scale, 0.0, 0.0, True), (0.5 * scale, 0.0, 1e-9), (0.25 * scale, 0.0, 2e-9)]
        )
        assert k_factor(snap) == pytest.approx(1.0 / (0.25 + 0.0625), rel=1e-9)
