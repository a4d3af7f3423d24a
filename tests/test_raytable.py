"""The columnar ray table: construction, views, trace round trips, and
pass-level layers against per-snapshot loop references."""

import cmath
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chansim.antenna import AntennaModel, gain_dbi, spatial_filter
from chansim.clustering import build_features, cluster_snapshot
from chansim.config import ScenarioConfig
from chansim.dispersion import spread_report
from chansim.errors import RayRowError
from chansim.geometry import altitude_to_elevation
from chansim.mpc import (
    _BLOCK_RAYS,
    COHERENT_PHASOR_SUM,
    COHERENT_MODES,
    COHERENT_POWER_SUM,
    RAY_COLUMNS,
    RayTable,
    coherent_power_dbm,
    k_factor,
    running_sum,
)
from chansim.report import run_report
from chansim.traceio import load_trace, save_trace

from conftest import rows_of
from test_clustering import brute_force_dbscan

# Ray counts around numpy's pairwise-summation block of 8, plus a dense one.
RAY_COUNTS = (1, 7, 8, 9, 300)


def left_to_right(values) -> float:
    total = 0.0
    for v in values:
        total += v
    return total


def rays_of(table: RayTable) -> list[list[SimpleNamespace]]:
    """Each snapshot's rays, in delay order, as records of Python floats."""
    columns = {name: getattr(table, name).tolist() for name in (*RAY_COLUMNS, "is_los")}
    bounds = table.offsets.tolist()
    return [
        [SimpleNamespace(**{name: col[r] for name, col in columns.items()})
         for r in range(lo, hi)]
        for lo, hi in zip(bounds[:-1], bounds[1:])
    ]


# --- per-snapshot loop references: one snapshot's rays as Python floats ---

def ref_coherent_dbm(rays, mode, p_tx_dbm):
    if mode == COHERENT_POWER_SUM:
        total = left_to_right(m.amplitude * m.amplitude for m in rays)
        null_floor = 0.0
    else:
        phasor = 0j
        for m in rays:
            phasor += m.amplitude * cmath.exp(1j * m.phase_rad)
        total = abs(phasor) ** 2
        null_floor = left_to_right(m.amplitude for m in rays) ** 2 * 1e-30
    return -math.inf if total <= null_floor else p_tx_dbm + 10.0 * math.log10(total)


def ref_spreads(rays):
    powers = np.array([m.amplitude * m.amplitude for m in rays])
    delays = np.array([m.delay_s for m in rays])
    total = float(powers.sum())
    mean = float(np.sum(powers * delays) / total)
    rms = math.sqrt(float(np.sum(powers * (delays - mean) ** 2) / total))

    def az(values):
        angles = np.radians(np.array(values))
        length = math.hypot(float(np.sum(np.cos(angles))), float(np.sum(np.sin(angles))))
        length /= angles.size
        if length < 1e-12:
            return math.inf
        return 0.0 if length >= 1.0 else math.degrees(math.sqrt(-2.0 * math.log(length)))

    return (
        rms,
        mean,
        az([m.aod_az_deg for m in rays]),
        float(np.std([m.aod_el_deg for m in rays])),
        az([m.aoa_az_deg for m in rays]),
        float(np.std([m.aoa_el_deg for m in rays])),
    )


def ref_features(rays):
    aod = np.radians([m.aod_az_deg for m in rays])
    aoa = np.radians([m.aoa_az_deg for m in rays])
    raw = np.column_stack([
        [m.delay_s for m in rays], np.sin(aod), np.cos(aod), [m.aod_el_deg for m in rays],
        np.sin(aoa), np.cos(aoa), [m.aoa_el_deg for m in rays],
    ])
    out = np.zeros_like(raw)
    for j in range(raw.shape[1]):
        col = raw[:, j]
        std = float(np.std(col))
        if std <= 1e-12 * max(1.0, float(np.max(np.abs(col)))):
            continue
        out[:, j] = (col - np.mean(col)) / std
    return out


def ref_gain_db(model, az_off, el_off):
    # The per-ray scalar pattern, with math-module transcendentals.
    if model.kind == "isotropic":
        return 0.0
    if model.kind == "single-element":
        ratio_sq = (az_off**2 + el_off**2) / model.hpbw_deg**2
        return model.peak_gain_dbi - min(12.0 * ratio_sq, model.floor_db)

    def plane(n, steer, off):
        if n == 1:
            return 0.0
        u = math.sin(math.radians(steer + off)) - math.sin(math.radians(steer))
        x = math.pi * model.spacing_wavelengths * u
        if abs(math.sin(x)) < 1e-15:
            return 0.0
        af = math.sin(n * x) / (n * math.sin(x))
        return -math.inf if af == 0.0 else 20.0 * math.log10(abs(af))

    pattern = plane(model.nx, model.steer_az_deg, az_off) + plane(
        model.ny, model.steer_el_deg, el_off)
    return model.peak_gain_dbi + max(pattern, -model.floor_db)


def dense_pass(seed: int = 5, counts=RAY_COUNTS * 3) -> RayTable:
    """Snapshots of the given ray counts (by default every count in RAY_COUNTS,
    three each), interleaved, with trace-like scales: ms delays with ns
    excesses and 0.01-deg azimuths."""
    rng = np.random.default_rng(seed)
    counts = list(counts)
    rng.shuffle(counts)
    radius = 500.0
    altitudes = np.sort(rng.uniform(5.0, radius, len(counts)))
    cols = {name: [] for name in RAY_COLUMNS}
    los = []
    for n in counts:
        cols["amplitude"].append(rng.uniform(1e-10, 4e-9, n))
        cols["phase_rad"].append(rng.uniform(0.0, 2.0 * math.pi, n))
        cols["delay_s"].append(1.6678e-3 + rng.exponential(50e-9, n))
        cols["aod_az_deg"].append(np.round(180.0 + rng.normal(0.0, 0.01, n), 2))
        cols["aod_el_deg"].append(np.clip(rng.normal(-20.0, 5.0, n), -90.0, 90.0))
        cols["aoa_az_deg"].append(np.round(rng.uniform(0.0, 360.0, n), 2) % 360.0)
        cols["aoa_el_deg"].append(np.clip(rng.normal(10.0, 8.0, n), -90.0, 90.0))
        flags = np.zeros(n, dtype=bool)
        flags[0] = True
        los.append(flags)
    return RayTable(
        {name: np.concatenate(parts) for name, parts in cols.items()},
        np.concatenate(los),
        np.concatenate([[0], np.cumsum(counts)]),
        altitudes,
        radius,
    )


class TestPassLayersMatchPerSnapshotLoops:
    table = dense_pass()

    def test_block_sizes_present(self):
        assert sorted(set(self.table.counts.tolist())) == list(RAY_COUNTS)

    @pytest.mark.parametrize("mode", [COHERENT_POWER_SUM, COHERENT_PHASOR_SUM])
    def test_coherent_power(self, mode):
        got = coherent_power_dbm(self.table, mode, 30.0)
        assert got == [ref_coherent_dbm(rays, mode, 30.0) for rays in rays_of(self.table)]

    def test_spreads(self):
        got = spread_report(self.table)
        assert list(zip(*got.values())) == [
            ref_spreads(rays) for rays in rays_of(self.table)
        ]

    def test_features(self):
        feats = build_features(self.table)
        for i, rays in enumerate(rays_of(self.table)):
            lo, hi = self.table.offsets[i], self.table.offsets[i + 1]
            np.testing.assert_array_equal(feats[lo:hi], ref_features(rays))

    def test_clusters(self):
        labels = cluster_snapshot(self.table, xi=0.3, zeta=2)
        assert labels.shape == (self.table.n_rays,)
        for i, rays in enumerate(rays_of(self.table)):
            expected = brute_force_dbscan(ref_features(rays), 0.3, 2)
            lo, hi = self.table.offsets[i], self.table.offsets[i + 1]
            assert labels[lo:hi].tolist() == expected.tolist()

    def test_powers_and_k_factor(self):
        a = self.table.amplitude
        totals = self.table.reduce(running_sum, a * a).tolist()
        for rays, total, k in zip(rays_of(self.table), totals, k_factor(self.table)):
            powers = [m.amplitude * m.amplitude for m in rays]
            assert total == left_to_right(powers)
            los = next(i for i, m in enumerate(rays) if m.is_los)
            if len(rays) > 1:
                nlos = left_to_right(p for i, p in enumerate(powers) if i != los)
                assert k == powers[los] / nlos
            else:
                assert k is None

    def test_snapshot_views_agree_with_table(self):
        # A one-snapshot table is reduced in a block of its own.
        for i, report in enumerate(rows_of(spread_report(self.table))):
            assert rows_of(spread_report(self.table.take([i]))) == [report]

    def test_spatial_filter(self):
        sat = AntennaModel(kind="phased-array", peak_gain_dbi=20.0, nx=8, ny=8,
                           steer_az_deg=180.0, steer_el_deg=-20.0)
        gs = AntennaModel(kind="single-element", peak_gain_dbi=35.0, hpbw_deg=2.0,
                          steer_el_deg=10.0)
        out = spatial_filter(self.table, sat, gs)
        assert out.psi_deg.tolist() == self.table.psi_deg.tolist()
        assert out.offsets.tolist() == self.table.offsets.tolist()
        for before, after in zip(rays_of(self.table), rays_of(out)):
            for b, a in zip(before, after):
                g = ref_gain_db(sat, (b.aod_az_deg - 180.0 + 180.0) % 360.0 - 180.0,
                                b.aod_el_deg + 20.0)
                g += ref_gain_db(gs, (b.aoa_az_deg + 180.0) % 360.0 - 180.0,
                                 b.aoa_el_deg - 10.0)
                # numpy's log10 and power may differ from libm in the last bit.
                assert a.amplitude == pytest.approx(b.amplitude * 10.0 ** (g / 20.0),
                                                    rel=1e-14)
                assert (a.phase_rad, a.delay_s, a.aoa_az_deg) == (
                    b.phase_rad, b.delay_s, b.aoa_az_deg)

    def test_array_gains_match_scalar_pattern(self):
        model = AntennaModel(kind="phased-array", peak_gain_dbi=30.0, nx=16, ny=4,
                             steer_az_deg=40.0)
        offsets = np.linspace(-180.0, 180.0, 721)
        got = gain_dbi(model, offsets, offsets / 3.0)
        want = [ref_gain_db(model, a, a / 3.0) for a in offsets]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-12)


class TestSplitBlocksMatchOneSnapshotTables:
    """More rays of one count than a block holds: the blocks split, and every
    layer equals its result on each snapshot alone, a block of its own."""

    # Three blocks of 300-ray snapshots and two of 7-ray ones.
    table = dense_pass(seed=11, counts=[300] * (2 * (_BLOCK_RAYS // 300) + 1)
                       + [7] * (_BLOCK_RAYS // 7 + 5))
    singles = list(map(table.take, np.arange(len(table))[:, None]))

    def each(self, layer) -> list:
        return [layer(single) for single in self.singles]

    def test_blocks_are_split_and_capped(self):
        blocks = self.table.blocks()
        assert [rows.shape for _, rows in blocks] == [
            (_BLOCK_RAYS // 7, 7), (5, 7), *[(_BLOCK_RAYS // 300, 300)] * 2, (1, 300)]
        assert sorted(np.concatenate([snaps for snaps, _ in blocks]).tolist()) == list(
            range(len(self.table)))

    def test_reduce_and_map_rays(self):
        a = self.table.amplitude
        totals = self.table.reduce(running_sum, a * a)
        assert totals.tolist() == [t for [t] in self.each(
            lambda s: s.reduce(running_sum, s.amplitude * s.amplitude).tolist())]
        sums = self.table.map_rays(lambda d: np.cumsum(d, axis=1), self.table.delay_s)
        assert sums.tolist() == [x for t in self.each(
            lambda s: s.map_rays(lambda d: np.cumsum(d, axis=1), s.delay_s).tolist())
            for x in t]

    def test_spreads(self):
        assert rows_of(spread_report(self.table)) == [
            row for [row] in self.each(lambda s: rows_of(spread_report(s)))]

    def test_k_factor_and_coherent_power(self):
        assert k_factor(self.table) == [k for [k] in self.each(k_factor)]
        for mode in COHERENT_MODES:
            assert coherent_power_dbm(self.table, mode, 30.0) == [
                p for [p] in self.each(lambda s: coherent_power_dbm(s, mode, 30.0))]

    def test_features_and_clusters(self):
        np.testing.assert_array_equal(build_features(self.table),
                                      np.concatenate(self.each(build_features)))
        labels = cluster_snapshot(self.table, xi=0.6, zeta=2)
        assert labels.max() > 0
        np.testing.assert_array_equal(
            labels, np.concatenate(self.each(lambda s: cluster_snapshot(s, xi=0.6, zeta=2))))


class TestRayTable:
    def make(self, **overrides):
        spec = dict(
            columns={
                "amplitude": [1.0, 2.0, 3.0], "phase_rad": [7.0, 0.0, -1.0],
                "delay_s": [2e-9, 1e-9, 1e-9], "aod_az_deg": [0.0, 1.0, 2.0],
                "aod_el_deg": [0.0, 0.0, 0.0], "aoa_az_deg": [0.0, 0.0, 0.0],
                "aoa_el_deg": [0.0, 0.0, 0.0],
            },
            is_los=[True, False, False], offsets=[0, 1, 3],
            altitude_km=[200.0, 69.0], arc_radius_km=400.0,
        )
        spec.update(overrides)
        return RayTable(**spec)

    def test_sorts_by_delay_stably_and_normalises_phase(self):
        table = self.make()
        assert table.amplitude.tolist() == [1.0, 2.0, 3.0]
        table = self.make(offsets=[0, 3], altitude_km=[200.0])
        assert table.amplitude.tolist() == [2.0, 3.0, 1.0]
        assert table.phase_rad.tolist() == [0.0, 2.0 * math.pi - 1.0, 7.0 - 2.0 * math.pi]

    @pytest.mark.parametrize("overrides,match", [
        ({"offsets": [0, 0, 3]}, "at least one MPC"),
        ({"is_los": [True, True, True], "offsets": [0, 3],
          "altitude_km": [200.0]}, "at most one"),
        ({"altitude_km": [200.0, 0.0]}, "altitude 0.0 km outside"),
        ({"arc_radius_km": 0.0}, "arc radius"),
        ({"offsets": [0, 1, 2]}, "offsets"),
        ({"altitude_km": [200.0]}, "one altitude"),
    ])
    def test_structure_validated(self, overrides, match):
        with pytest.raises(ValueError, match=match):
            self.make(**overrides)

    @pytest.mark.parametrize("overrides,row,match", [
        ({"altitude_km": [200.0, -5.0]}, 1, r"altitude -5.0 km outside \(0, 400.0\] km"),
        ({"altitude_km": [0.0, 69.0]}, 0, "altitude 0.0 km outside"),
        ({"altitude_km": [200.0, 400.5]}, 1, "altitude 400.5 km outside"),
        ({"altitude_km": [1e6, 69.0]}, 0, "altitude 1000000.0 km outside"),
        ({"altitude_km": [200.0, math.nan]}, 1, "altitude nan km outside"),
        # h/d underflows to zero, so the elevation would be 0 deg.
        ({"altitude_km": [200.0, 5e-324]}, 1, "altitude 5e-324 km outside"),
        ({"is_los": [True, True, True], "offsets": [0, 3], "altitude_km": [200.0]}, 1,
         "duplicate LOS ray for altitude 200.0 km: at most one MPC may be flagged LOS"),
    ])
    def test_pass_rules_name_input_row(self, overrides, row, match):
        with pytest.raises(RayRowError, match=match) as info:
            self.make(**overrides)
        assert info.value.row == row

    def test_field_fault_names_input_row(self):
        columns = {name: [0.0, 0.0, 0.0] for name in RAY_COLUMNS}
        columns["delay_s"] = [3e-9, 2e-9, -1e-9]
        with pytest.raises(RayRowError, match="delay must be non-negative") as info:
            self.make(columns=columns)
        assert info.value.row == 2

    @pytest.mark.parametrize("name,value,match", [
        ("amplitude", math.nan, "amplitude must be non-negative and finite, got nan"),
        ("amplitude", math.inf, "amplitude must be non-negative and finite, got inf"),
        ("phase_rad", math.inf, "phase must be finite, got inf"),
        ("phase_rad", math.nan, "phase must be finite, got nan"),
        ("delay_s", math.nan, "delay must be non-negative and finite, got nan"),
        ("delay_s", -math.inf, "delay must be non-negative and finite, got -inf"),
    ])
    def test_non_finite_field_names_input_row(self, name, value, match):
        columns = {col: [0.0, 0.0, 0.0] for col in RAY_COLUMNS}
        columns[name] = [0.0, value, 0.0]
        with pytest.raises(RayRowError, match=match) as info:
            self.make(columns=columns)
        assert info.value.row == 1

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -400.0, 0.0])
    def test_arc_radius_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="arc radius must be positive and finite"):
            self.make(arc_radius_km=radius)

    def test_elevations_derived_from_altitudes(self):
        table = self.make(altitude_km=[400.0, 100.0])
        assert table.psi_deg.tolist() == [90.0, altitude_to_elevation(100.0, 400.0).psi_deg]

    def test_columns_are_read_only(self):
        table = self.make()
        with pytest.raises(ValueError):
            table.amplitude[0] = 5.0
        with pytest.raises(ValueError):
            table.take([1]).delay_s[0] = 0.0

    def test_sequence_of_snapshot_views(self):
        table = self.make()
        assert len(table) == 2 and list(table) == [range(0, 1), range(1, 3)]
        assert table.altitude_km.tolist() == [200.0, 69.0]
        assert table.psi_deg.tolist() == [altitude_to_elevation(h, 400.0).psi_deg
                                          for h in (200.0, 69.0)]
        reverse = table.take([1, 0])
        assert reverse.altitude_km.tolist() == [69.0, 200.0]
        assert table.sorted_by_altitude() == reverse
        assert repr(table) == "RayTable(2 snapshots, 3 rays, arc_radius_km=400.0)"
        assert table.take([-1, -2]) == reverse
        for index in (2, -3):
            with pytest.raises(IndexError, match="axis 0 with size 2"):
                table.take([index])
        # Negative indices count from the end on a pass of uneven ray counts.
        counts = [5, 4, 1, 2]
        uneven = self.make(
            columns={name: np.arange(12.0) * (1e-9 if name == "delay_s" else 1.0)
                     for name in RAY_COLUMNS},
            is_los=np.zeros(12, dtype=bool), offsets=np.cumsum([0, *counts]),
            altitude_km=[5.0, 100.0, 300.0, 350.0])
        for k in range(1, 5):
            assert uneven.take([-k]) == uneven.take([4 - k])
            assert uneven.take([-k]).counts.tolist() == [counts[4 - k]]
        assert uneven.take([-1, 0, -3]) == uneven.take([3, 0, 1])
        with pytest.raises(IndexError, match="axis 0 with size 4"):
            uneven.take([-5])


finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def numpy_tables(draw):
    """Ray tables whose every input is a numpy scalar or array."""
    radius = np.float64(draw(st.floats(min_value=150.0, max_value=2000.0)))
    altitudes = draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=1,
                              max_size=4, unique=True))
    counts = draw(st.lists(st.integers(1, 5), min_size=len(altitudes),
                           max_size=len(altitudes)))
    n = sum(counts)
    column = lambda lo, hi: np.array(draw(st.lists(
        st.floats(min_value=lo, max_value=hi, exclude_max=hi == 360.0),
        min_size=n, max_size=n)))
    cols = {
        "amplitude": column(0.0, 1e3),
        "phase_rad": column(-100.0, 100.0),
        "delay_s": column(0.0, 1.0),
        "aod_az_deg": column(0.0, 360.0),
        "aod_el_deg": column(-90.0, 90.0),
        "aoa_az_deg": column(0.0, 360.0),
        "aoa_el_deg": column(-90.0, 90.0),
    }
    los = np.zeros(n, dtype=bool)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    for start, has_los in zip(offsets[:-1], draw(st.lists(st.booleans(), min_size=len(counts),
                                                          max_size=len(counts)))):
        los[start] = has_los
    alt = np.array([np.float64(a) * radius for a in altitudes])
    return RayTable(cols, los, offsets, alt, radius)


@st.composite
def arc_tables(draw):
    """Tables on any finite, positive arc, at any altitudes on it, with any
    finite ray fields in range."""
    radius = draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    altitudes = draw(st.lists(
        st.floats(min_value=0.0, max_value=radius, exclude_min=True).filter(
            lambda h: h / radius > 0.0),
        min_size=1, max_size=4, unique=True))
    counts = draw(st.lists(st.integers(1, 4), min_size=len(altitudes),
                           max_size=len(altitudes)))
    n = sum(counts)

    def column(**bounds):
        return draw(st.lists(st.floats(allow_nan=False, allow_infinity=False, **bounds),
                             min_size=n, max_size=n))

    azimuth = dict(min_value=0.0, max_value=360.0, exclude_max=True)
    elevation = dict(min_value=-90.0, max_value=90.0)
    cols = {
        "amplitude": column(min_value=0.0),
        "phase_rad": column(),
        "delay_s": column(min_value=0.0),
        "aod_az_deg": column(**azimuth),
        "aod_el_deg": column(**elevation),
        "aoa_az_deg": column(**azimuth),
        "aoa_el_deg": column(**elevation),
    }
    offsets = np.concatenate([[0], np.cumsum(counts)])
    los = np.zeros(n, dtype=bool)
    for start, count in zip(offsets[:-1], counts):
        position = draw(st.one_of(st.none(), st.integers(0, count - 1)))
        if position is not None:
            los[start + position] = True
    return RayTable(cols, los, offsets, altitudes, radius)


def ref_first_snapshot_fault(is_los, counts, altitudes, radius):
    """Input row and message start of the first broken snapshot rule, one snapshot at a time."""
    start = 0
    for n, h in zip(counts, altitudes):
        los_rows = [start + i for i in range(n) if is_los[start + i]]
        if len(los_rows) > 1:
            return los_rows[1], f"duplicate LOS ray for altitude {h} km"
        if not 0.0 < h <= radius:
            return start, f"altitude {h} km outside"
        start += n
    return None


class TestSnapshotRulesMatchLoop:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.booleans(), min_size=1, max_size=4),
                              st.sampled_from([-5.0, 0.0, 50.0, 200.0, 400.0, 401.0])),
                    min_size=1, max_size=6))
    def test_first_fault(self, snapshots):
        is_los = [flag for flags, _ in snapshots for flag in flags]
        counts = [len(flags) for flags, _ in snapshots]
        altitudes = [h for _, h in snapshots]
        columns = {name: [0.0] * len(is_los) for name in RAY_COLUMNS}
        build = lambda: RayTable(columns, is_los, np.concatenate([[0], np.cumsum(counts)]),
                                 altitudes, 400.0)
        expected = ref_first_snapshot_fault(is_los, counts, altitudes, 400.0)
        if expected is None:
            build()
            return
        with pytest.raises(RayRowError, match=re.escape(expected[1])) as info:
            build()
        assert info.value.row == expected[0]


class TestTraceRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(arc_tables())
    def test_any_table_on_its_arc_round_trips(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        save_trace(table, path)
        assert load_trace(path) == table

    @settings(max_examples=40, deadline=None)
    @given(numpy_tables())
    def test_save_load_exact_and_plain(self, tmp_path_factory, table):
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        save_trace(table, path)
        assert "np." not in path.read_text()
        assert load_trace(path) == table

    @settings(max_examples=10, deadline=None)
    @given(numpy_tables())
    def test_reports_from_numpy_tables_are_plain(self, tmp_path_factory, table):
        out = tmp_path_factory.mktemp("out")
        save_trace(table, out / "t.csv")
        subs = ["linkbudget", "cluster"]
        if -math.inf not in coherent_power_dbm(table):
            subs.append("spreads")  # a zero-power snapshot has no delay spread
        for sub in subs:
            run_report(ScenarioConfig(), sub, out / sub, trace_path=out / "t.csv")
            for f in (out / sub).iterdir():
                assert "np." not in f.read_text(), f
