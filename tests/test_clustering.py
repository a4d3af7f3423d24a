import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chansim import clustering
from chansim.clustering import (
    NOISE,
    build_features,
    cluster_snapshot,
    dbscan,
)
from conftest import make_snapshot
from test_traceio import generated_table


def brute_force_dbscan(points: np.ndarray, xi: float, zeta: int) -> np.ndarray:
    """Reference DBSCAN: explicit O(N^2) pairwise loops and a BFS frontier,
    written independently of the production code path."""
    n = len(points)
    dist = np.array(
        [[np.linalg.norm(points[i] - points[j]) for j in range(n)] for i in range(n)]
    )
    neigh = [sorted(np.flatnonzero(dist[i] <= xi)) for i in range(n)]
    core = [len(neigh[i]) >= zeta for i in range(n)]
    labels: list[int | None] = [None] * n
    label = 0
    for i in range(n):
        if labels[i] is not None or not core[i]:
            continue
        labels[i] = label
        frontier = [i]
        while frontier:
            j = frontier.pop(0)
            if not core[j]:
                continue  # border point: claimed but never expanded
            for nb in neigh[j]:
                if labels[nb] is None:
                    labels[nb] = label
                    frontier.append(nb)
        label += 1
    return np.array([-1 if l is None else l for l in labels])


def cluster_count(labels) -> int:
    """A point set's cluster count as the cluster report reads it: the largest
    label plus one, 0 when every point is noise."""
    return int(np.max(labels, initial=NOISE)) + 1


def relabel_canonical(labels) -> list:
    mapping = {}
    out = []
    for l in labels:
        if l == NOISE:
            out.append(NOISE)
            continue
        if l not in mapping:
            mapping[l] = len(mapping)
        out.append(mapping[l])
    return out


class TestBuildFeatures:
    def test_single_mpc_all_zero(self):
        snap = make_snapshot([(1.0, 0.0, 1e-9, True)])
        feats = build_features(snap)
        assert feats.shape == (1, 7)
        np.testing.assert_array_equal(feats, np.zeros((1, 7)))

    def test_delay_column_zscore(self):
        snap = make_snapshot([(1.0, 0.0, 0.0, True), (1.0, 0.0, 10e-9)])
        feats = build_features(snap)
        np.testing.assert_allclose(feats[:, 0], [-1.0, 1.0], atol=1e-12)
        # identical angles: every angle column zeroed
        np.testing.assert_allclose(feats[:, 1:], np.zeros((2, 6)), atol=1e-12)

    def test_opposite_azimuths_unit_circle(self):
        snap = make_snapshot([(1.0, 0.0, 0.0, True), (1.0, 0.0, 0.0)],
                             aoa_az_deg=[0.0, 180.0])
        feats = build_features(snap)
        # sin(0)=sin(180)=0 -> constant column -> zeros
        np.testing.assert_allclose(feats[:, 4], [0.0, 0.0], atol=1e-12)
        # cos column {+1,-1} is already zero-mean unit-variance
        np.testing.assert_allclose(feats[:, 5], [1.0, -1.0], atol=1e-12)

    def test_normalisation_invariants(self):
        rng = np.random.default_rng(3)
        rays = [
            [float(rng.uniform(0, 50e-9)), float(rng.uniform(0, 360)),
             float(rng.uniform(-30, 30)), float(rng.uniform(0, 360)),
             float(rng.uniform(-30, 30))]
            for _ in range(16)
        ]
        delay, aod_az, aod_el, aoa_az, aoa_el = zip(*rays)
        snap = make_snapshot([(1.0, 0.0, d) for d in delay], psi_deg=30.0,
                             aod_az_deg=aod_az, aod_el_deg=aod_el,
                             aoa_az_deg=aoa_az, aoa_el_deg=aoa_el)
        feats = build_features(snap)
        np.testing.assert_allclose(feats.mean(axis=0), np.zeros(7), atol=1e-9)
        np.testing.assert_allclose(feats.var(axis=0), np.ones(7), atol=1e-9)


class TestDbscan:
    def test_two_separated_groups(self):
        xi = 0.3
        group_a = np.zeros((3, 2))
        group_b = np.full((3, 2), 10.0 * xi)
        labels = dbscan(np.vstack([group_a, group_b]), xi=xi, zeta=2)
        assert cluster_count(labels) == 2
        assert NOISE not in labels
        assert labels.tolist() == [0, 0, 0, 1, 1, 1]

    def test_all_isolated(self):
        pts = np.arange(8.0).reshape(-1, 1) * 10.0
        labels = dbscan(pts, xi=0.3, zeta=2)
        assert cluster_count(labels) == 0
        assert set(labels.tolist()) == {NOISE}

    def test_no_points(self):
        labels = dbscan(np.zeros((0, 7)), xi=0.3, zeta=2)
        assert labels.shape == (0,) and cluster_count(labels) == 0
        assert dbscan(np.zeros((3, 0, 7))).shape == (3, 0)
        assert dbscan(np.zeros((0, 5, 7))).shape == (0, 5)

    def test_single_point_zeta2(self):
        labels = dbscan(np.zeros((1, 7)), xi=0.3, zeta=2)
        assert cluster_count(labels) == 0
        assert labels.tolist() == [NOISE]

    def test_neighborhood_is_closed_and_includes_self(self):
        # two points exactly xi apart: each neighbourhood holds both points
        pts = np.array([[0.0], [0.3]])
        labels = dbscan(pts, xi=0.3, zeta=2)
        assert cluster_count(labels) == 1

    def test_parameter_validation(self):
        for xi in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match=f"radius must be positive, got {xi}"):
                dbscan(np.zeros((2, 2)), xi=xi, zeta=2)
        with pytest.raises(ValueError):
            dbscan(np.zeros((2, 2)), xi=0.3, zeta=0)

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(12345)
        for trial in range(100):
            n = int(rng.integers(1, 65))
            dim = int(rng.integers(1, 8))
            pts = rng.normal(0.0, 1.0, size=(n, dim))
            got = dbscan(pts, xi=0.3, zeta=2)
            expected = brute_force_dbscan(pts, 0.3, 2)
            assert relabel_canonical(got) == relabel_canonical(expected), trial
            assert cluster_count(got) == len(set(expected[expected >= 0]))

    def test_permutation_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(0.0, 0.4, size=(24, 3))
        base = dbscan(pts, xi=0.5, zeta=3)
        for _ in range(10):
            perm = rng.permutation(len(pts))
            permuted = dbscan(pts[perm], xi=0.5, zeta=3)
            # partition comparison: same groups of original indices
            def partition(labels, order):
                groups = {}
                for pos, lab in enumerate(labels):
                    if lab != NOISE:
                        groups.setdefault(lab, set()).add(int(order[pos]))
                return sorted(map(frozenset, groups.values()), key=sorted)

            assert partition(base, np.arange(len(pts))) == partition(permuted, perm)

    def test_growing_xi_never_loses_points(self):
        rng = np.random.default_rng(42)
        pts = rng.normal(0.0, 1.0, size=(40, 2))
        previous = -1
        for xi in (0.1, 0.2, 0.4, 0.8, 1.6):
            non_noise = int(np.count_nonzero(dbscan(pts, xi=xi, zeta=2) != NOISE))
            assert non_noise >= previous
            previous = non_noise


class TestDbscanPool:
    """A stack's batches, and a table's blocks, run on the calling thread."""

    N_POINTS = 64

    @pytest.fixture
    def stack(self):
        # Enough equal-size sets for three batches and one more set.
        per_batch = clustering._BATCH_CELLS // self.N_POINTS**2
        rng = np.random.default_rng(2024)
        return rng.normal(0.0, 1.0, size=(3 * per_batch + 1, self.N_POINTS, 7))

    @staticmethod
    def record_threads(monkeypatch) -> list[str]:
        """Make _batch_labels record the name of each thread that runs a batch."""
        names = []
        real_labels = clustering._batch_labels

        def recorded_labels(pts, xi, zeta):
            names.append(threading.current_thread().name)
            return real_labels(pts, xi, zeta)

        monkeypatch.setattr(clustering, "_batch_labels", recorded_labels)
        return names

    def test_stack_equals_one_by_one(self, monkeypatch, stack):
        one_by_one = np.stack([dbscan(p, xi=1.5, zeta=3) for p in stack])
        assert sum(map(cluster_count, one_by_one)) > 0
        batch_threads = self.record_threads(monkeypatch)
        np.testing.assert_array_equal(dbscan(stack, xi=1.5, zeta=3), one_by_one)
        assert len(batch_threads) == 4

    def test_table_blocks_run_on_the_calling_thread(self, monkeypatch):
        # Two blocks of 300-ray snapshots, six and two, each of one-set batches.
        table = generated_table(n_snapshots=8, n_rays=300)
        assert len(table.blocks()) == 2
        batch_threads = self.record_threads(monkeypatch)
        cluster_snapshot(table)
        assert batch_threads == [threading.current_thread().name] * 8

    def test_stack_matches_brute_force(self, stack):
        labels = dbscan(stack, xi=1.5, zeta=3)
        assert labels.shape == stack.shape[:2]
        for i in (0, len(stack) - 1):
            expected = brute_force_dbscan(stack[i], 1.5, 3)
            assert labels[i].tolist() == expected.tolist()
            assert cluster_count(labels[i]) == len(set(expected[expected >= 0]))


class TestClusterSnapshot:
    def test_two_mpcs_far_apart_no_cluster(self):
        snap = make_snapshot([(1.0, 0.0, 0.0, True), (0.5, 0.0, 10e-9)])
        labels = cluster_snapshot(snap, xi=0.3, zeta=2)
        # z-scored columns put the two rows ~2 apart: both noise
        assert labels.tolist() == [NOISE, NOISE]
        assert cluster_count(labels) == 0

    def test_tight_pair_clusters(self):
        snap = make_snapshot(
            [(1.0, 0.0, 0.0, True), (0.5, 0.0, 50e-9), (0.5, 0.0, 50.2e-9), (0.4, 0.0, 90e-9)],
            psi_deg=20.0,
            aoa_az_deg=[10.0, 200.0, 201.0, 100.0],
            aoa_el_deg=[5.0, -20.0, -20.5, 30.0],
        )
        labels = cluster_snapshot(snap, xi=0.3, zeta=2)
        assert labels.shape == (4,)
        assert cluster_count(labels) == 1
        assert labels[1] == labels[2] != NOISE
        assert labels[0] == NOISE and labels[3] == NOISE


@st.composite
def lattice_points(draw):
    """Small integer lattices: duplicates are common and many pairs sit at
    exactly the (integer) radius, where the closed ball must include them."""
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(1, 30))
    coords = draw(st.lists(st.lists(st.integers(0, 4), min_size=dim, max_size=dim),
                           min_size=n, max_size=n))
    return np.array(coords, dtype=float)


class TestDbscanOracle:
    @settings(max_examples=300, deadline=None)
    @given(lattice_points(), st.sampled_from([1.0, 2.0]), st.integers(1, 5))
    def test_matches_brute_force_exactly(self, pts, xi, zeta):
        got = dbscan(pts, xi=xi, zeta=zeta)
        expected = brute_force_dbscan(pts, xi, zeta)
        assert got.tolist() == expected.tolist()
        assert cluster_count(got) == len(set(expected[expected >= 0]))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(lattice_points(), min_size=1, max_size=4), st.integers(1, 4))
    def test_stack_equals_one_by_one(self, sets, zeta):
        n = min(len(p) for p in sets)
        stack = np.stack([p[:n, :1] for p in sets])
        np.testing.assert_array_equal(dbscan(stack, xi=1.0, zeta=zeta),
                                      [dbscan(p, xi=1.0, zeta=zeta) for p in stack])

    @pytest.mark.parametrize("border_first", [True, False])
    def test_border_point_reachable_from_two_clusters(self, border_first):
        # Cores (0,0) and (2,0) each see four points; the border (1,0) sees
        # three, one core of each cluster, and joins the lower cluster id.
        a = [(0.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
        b = [(2.0, 0.0), (3.0, 0.0), (2.0, 1.0), (2.0, -1.0)]
        border = [(1.0, 0.0)]
        pts = np.array(border + b + a if border_first else b + a + border)
        got = dbscan(pts, xi=1.0, zeta=4)
        assert cluster_count(got) == 2
        assert got.tolist() == brute_force_dbscan(pts, 1.0, 4).tolist()
        border_label = got[0] if border_first else got[-1]
        assert border_label == 0


class TestBoundedMemory:
    """DBSCAN holds one bool per point pair of a batch, not float64 (k, n, n)
    buffers, and a pass is clustered a block of the table at a time."""

    @staticmethod
    def peak_mb(call) -> float:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    def test_dbscan_on_4000_points(self):
        # Eight Gaussian clusters in 7-D: about 17 B per point pair, 272 MB,
        # with the batched float64 kernel.
        rng = np.random.default_rng(0)
        centres = rng.normal(0.0, 1.5, size=(8, 7))
        pts = centres[rng.integers(0, 8, 4000)] + rng.normal(0.0, 0.2, size=(4000, 7))
        labels = []
        assert self.peak_mb(lambda: labels.append(dbscan(pts, xi=0.3, zeta=2))) < 40.0
        assert cluster_count(labels[0]) > 0

    def test_cluster_snapshot_on_100_x_300_rays(self):
        # About 8 MB when the whole pass's features were built before clustering.
        table = generated_table(n_snapshots=100, n_rays=300)
        assert self.peak_mb(lambda: cluster_snapshot(table)) < 4.0
