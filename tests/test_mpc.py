import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from chansim.mpc import (
    COHERENT_PHASOR_SUM,
    COHERENT_POWER_SUM,
    RAY_COLUMNS,
    RayTable,
    coherent_power_dbm,
    k_factor,
    running_sum,
)

from conftest import make_snapshot


def one_ray_table(amplitude, phase_rad=0.0, delay_s=0.0, **angles):
    """A one-snapshot table of one ray; angles not given are zero."""
    return make_snapshot([(amplitude, phase_rad, delay_s)],
                         **{name: [value] for name, value in angles.items()})


class TestMpcValidation:
    def test_phase_normalised(self):
        [phase] = one_ray_table(amplitude=1.0, phase_rad=7.0).phase_rad.tolist()
        assert 0.0 <= phase < 2.0 * math.pi
        assert phase == pytest.approx(7.0 - 2.0 * math.pi)

    @pytest.mark.parametrize("phase", [-1e-300, -1e-17, -2.0 * math.pi])
    def test_phase_wraps_into_half_open_range(self, phase):
        [wrapped] = one_ray_table(amplitude=1.0, phase_rad=phase).phase_rad.tolist()
        assert 0.0 <= wrapped < 2.0 * math.pi

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
            one_ray_table(**base)

    def test_snapshot_sorts_delays(self):
        snap = make_snapshot([(1.0, 0.0, 5e-9), (1.0, 0.0, 1e-9)])
        assert snap.delay_s.tolist() == [1e-9, 5e-9]

    def test_snapshot_rejects_empty_and_double_los(self):
        with pytest.raises(ValueError):
            make_snapshot([])
        with pytest.raises(ValueError):
            make_snapshot([(1.0, 0.0, 0.0, True), (1.0, 0.0, 1e-9, True)])


class TestCoherentPower:
    def test_single_path_both_modes(self):
        snap = make_snapshot([(0.1, 1.234, 0.0, True)])
        for mode in (COHERENT_POWER_SUM, COHERENT_PHASOR_SUM):
            assert coherent_power_dbm(snap, mode, 30.0)[0] == pytest.approx(10.0, abs=1e-9)

    def test_two_inphase_paths(self):
        snap = make_snapshot([(0.1, 0.0, 0.0, True), (0.1, 0.0, 1e-9)])
        # 30 + 10 log10(0.02) and 30 + 10 log10(0.04), hand-evaluated
        assert coherent_power_dbm(snap, COHERENT_POWER_SUM, 30.0)[0] == pytest.approx(
            13.010299956639813, rel=1e-12
        )
        assert coherent_power_dbm(snap, COHERENT_PHASOR_SUM, 30.0)[0] == pytest.approx(
            16.020599913279625, rel=1e-12
        )

    def test_perfect_cancellation(self):
        snap = make_snapshot([(0.1, 0.0, 0.0, True), (0.1, math.pi, 1e-9)])
        assert coherent_power_dbm(snap, COHERENT_PHASOR_SUM, 30.0)[0] == -math.inf
        assert coherent_power_dbm(snap, COHERENT_POWER_SUM, 30.0)[0] == pytest.approx(
            13.010299956639813, rel=1e-12
        )

    def test_all_zero_amplitudes(self):
        snap = make_snapshot([(0.0, 0.0, 0.0, True)])
        assert coherent_power_dbm(snap, COHERENT_POWER_SUM, 30.0)[0] == -math.inf

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
        p_power = coherent_power_dbm(snap, COHERENT_POWER_SUM, 0.0)[0]
        p_phasor = coherent_power_dbm(snap, COHERENT_PHASOR_SUM, 0.0)[0]
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
        base = coherent_power_dbm(snap, COHERENT_POWER_SUM, 0.0)[0]
        assert coherent_power_dbm(scaled, COHERENT_POWER_SUM, 0.0)[0] == pytest.approx(
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
        assert k_factor(snap)[0] == pytest.approx(10.0, rel=1e-12)

    def test_los_only_undefined(self):
        snap = make_snapshot([(1.0, 0.0, 0.0, True)])
        assert k_factor(snap)[0] is None

    def test_equal_power(self):
        snap = make_snapshot([(1.0, 0.0, 0.0, True), (1.0, 0.0, 1e-9)])
        assert k_factor(snap)[0] == pytest.approx(1.0)

    def test_missing_los_is_structural_error(self):
        snap = make_snapshot([(1.0, 0.0, 0.0), (0.5, 0.0, 1e-9)])
        with pytest.raises(ValueError):
            k_factor(snap)
        # explicit opt-in designates the strongest path
        assert k_factor(snap, designate_strongest=True)[0] == pytest.approx(4.0)

    @pytest.mark.parametrize("designate, altitude, remedy", [
        (False, 200.0, "flag one or pass designate_strongest=True"),
        (True, 300.0, "flag one: designate_strongest promotes the strongest path only in a "
                      "snapshot of more than one ray"),
    ], ids=["flag-only", "designate-strongest"])
    def test_missing_los_names_the_first_such_snapshot(self, designate, altitude, remedy):
        # Snapshots at 100, 200 and 300 km: one flagged ray, two unflagged rays, one unflagged.
        columns = {name: [0.0] * 4 for name in RAY_COLUMNS}
        columns["amplitude"] = [1.0, 1.0, 0.5, 1.0]
        table = RayTable(columns, [True, False, False, False], [0, 1, 3, 4],
                         [100.0, 200.0, 300.0], 400.0)
        with pytest.raises(ValueError) as info:
            k_factor(table, designate_strongest=designate)
        assert str(info.value) == (
            f"snapshot at altitude {altitude} km has no LOS-flagged MPC; {remedy}")

    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, scale):
        snap = make_snapshot(
            [(1.0 * scale, 0.0, 0.0, True), (0.5 * scale, 0.0, 1e-9), (0.25 * scale, 0.0, 2e-9)]
        )
        assert k_factor(snap)[0] == pytest.approx(1.0 / (0.25 + 0.0625), rel=1e-9)


def left_to_right(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def ref_k_factor(amps, los, designate_strongest):
    """One snapshot's K from its delay-ordered amplitudes, as Python floats."""
    if los is None:
        if len(amps) == 1 or not designate_strongest:
            raise ValueError("no LOS")
        los = amps.index(max(amps))
    if len(amps) == 1:
        return None
    nlos = left_to_right(a * a for i, a in enumerate(amps) if i != los)
    return math.inf if nlos == 0.0 else amps[los] * amps[los] / nlos


# A snapshot: rays of (amplitude, delay) and the index of the LOS ray, or None.
# Small integer delays give ties, which keep their input order, and move the
# LOS ray to any position once the table sorts by delay.
snapshot_specs = st.lists(
    st.tuples(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=10.0)),
              st.integers(0, 5)),
    min_size=1, max_size=9,
).flatmap(lambda rays: st.tuples(
    st.just(rays), st.one_of(st.none(), st.integers(0, len(rays) - 1))))


def spec_table(specs) -> RayTable:
    rays = [ray for spec_rays, _ in specs for ray in spec_rays]
    counts = [len(spec_rays) for spec_rays, _ in specs]
    columns = {name: [0.0] * len(rays) for name in RAY_COLUMNS}
    columns["amplitude"] = [a for a, _ in rays]
    columns["delay_s"] = [d * 1e-9 for _, d in rays]
    is_los = [i == los for spec_rays, los in specs for i in range(len(spec_rays))]
    return RayTable(columns, is_los, np.concatenate([[0], np.cumsum(counts)]),
                    [200.0] * len(specs), 400.0)


def delay_ordered(spec):
    rays, los = spec
    order = sorted(range(len(rays)), key=lambda i: rays[i][1])
    return [rays[i][0] for i in order], None if los is None else order.index(los)


class TestTableReductions:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(snapshot_specs, min_size=1, max_size=6), st.booleans())
    @example([([(1.0, 3), (0.5, 1), (0.0, 2)], 0), ([(2.0, 0)], 0)], False)
    @example([([(1.0, 0), (0.0, 1)], 0), ([(0.0, 0), (0.0, 0)], 1)], False)
    @example([([(0.5, 0), (2.0, 0), (2.0, 1)], None)], True)
    @example([([(0.5, 0), (2.0, 0)], None), ([(1.0, 0)], 0)], False)
    @example([([(0.5, 0)], None)], True)
    def test_k_factor_and_power_sums_match_left_to_right(self, specs, designate):
        table = spec_table(specs)
        ordered = [delay_ordered(spec) for spec in specs]
        powers = [left_to_right(a * a for a in amps) for amps, _ in ordered]
        a = table.amplitude
        assert table.reduce(running_sum, a * a).tolist() == powers
        assert coherent_power_dbm(table) == [
            -math.inf if p == 0.0 else 10.0 * math.log10(p) for p in powers]
        try:
            expected = [ref_k_factor(amps, los, designate) for amps, los in ordered]
        except ValueError:
            with pytest.raises(ValueError, match="no LOS-flagged"):
                k_factor(table, designate_strongest=designate)
            return
        assert k_factor(table, designate_strongest=designate) == expected
