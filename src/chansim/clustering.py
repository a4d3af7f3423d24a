"""DBSCAN clustering of multipath components in delay/angle feature space.

Each path contributes the feature vector [delay, departure azimuth,
departure elevation, arrival azimuth, arrival elevation]; azimuths are
mapped to the unit circle (sin, cos) to respect their periodicity, so
the working matrix has 7 columns, each z-score normalised.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat

import numpy as np

from .mpc import RayTable
from .pool import ordered_map

NOISE = -1

FEATURE_COLUMNS = (
    "delay_s",
    "aod_az_sin",
    "aod_az_cos",
    "aod_el_deg",
    "aoa_az_sin",
    "aoa_az_cos",
    "aoa_el_deg",
)

# A column whose variation is below this (relative to max(1, scale)) carries
# no clustering information and is zeroed instead of divided by ~0.
_CONSTANT_COLUMN_TOL = 1e-12

DEFAULT_XI = 0.3
DEFAULT_ZETA = 2


def _zscored_features(delay, aod_az_deg, aod_el_deg, aoa_az_deg, aoa_el_deg) -> np.ndarray:
    # (snapshots, rays) blocks in, (snapshots, rays, 7) features out.
    k, n = delay.shape
    aod_az = np.radians(aod_az_deg)
    aoa_az = np.radians(aoa_az_deg)
    raw = np.stack(
        [delay, np.sin(aod_az), np.cos(aod_az), aod_el_deg, np.sin(aoa_az), np.cos(aoa_az),
         aoa_el_deg],
        axis=1,
    ).reshape(k * len(FEATURE_COLUMNS), n)
    std = np.std(raw, axis=1)
    scale = np.fmax(1.0, np.max(np.abs(raw), axis=1))
    informative = ~(std <= _CONSTANT_COLUMN_TOL * scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = (raw - np.mean(raw, axis=1)[:, None]) / std[:, None]
    out = np.where(informative[:, None], scaled, 0.0)
    return out.reshape(k, len(FEATURE_COLUMNS), n).transpose(0, 2, 1)


def _feature_columns(table: RayTable) -> tuple[np.ndarray, ...]:
    return table.delay_s, table.aod_az_deg, table.aod_el_deg, table.aoa_az_deg, table.aoa_el_deg


def build_features(table: RayTable) -> np.ndarray:
    """Normalised feature matrix (N x 7), one row per ray of the table.

    Azimuths are expanded to (sin, cos) pairs before normalisation; every
    column is then scaled, snapshot by snapshot, to zero mean and unit
    (population) variance, except constant columns which are set to all
    zeros.  Rows follow the table's ray order, so snapshot ``i`` owns rows
    ``offsets[i]:offsets[i + 1]``.
    """
    return table.map_rays(_zscored_features, *_feature_columns(table))


# Point pairs per batch of equal-size point sets.  The kernel holds one bool
# per pair of a batch, and makes the float64 distances of at most this many
# pairs at a time: a set of more pairs is a batch of its own, taken a block
# of rows at a time.  On a 100 x 300-ray trace (2 vCPU) a `cluster` run's
# peak RSS read 37.3, 37.8 and 38.8 MB with 2^14, 2^15 and 2^16 pairs, and
# 2^14 clustered it about a third slower.
_BATCH_CELLS = 1 << 15


def _neighbourhoods(pts: np.ndarray, xi: float, rows: list[slice]) -> np.ndarray:
    """(k, n, n) bools: which points of each set lie within xi of each other."""
    k, n, dim = pts.shape
    near = np.empty((k, n, n), dtype=bool)
    # Two distance buffers, made once and viewed in each block's shape.
    buffers = np.empty((2, k * n * max((r.stop - r.start for r in rows), default=0)))
    for r in rows:
        a = pts[:, r]
        d2, diff = buffers[:, :k * a.shape[1] * n].reshape(2, k, a.shape[1], n)
        # Squared distances are added feature by feature, the order a sum
        # over the feature axis of the pairwise differences takes.
        np.subtract(a[:, :, 0, None], pts[:, None, :, 0], out=d2)
        np.multiply(d2, d2, out=d2)
        for j in range(1, dim):
            np.subtract(a[:, :, j, None], pts[:, None, :, j], out=diff)
            np.multiply(diff, diff, out=diff)
            d2 += diff
        np.less_equal(np.sqrt(d2, out=d2), xi, out=near[:, r])
    return near


def _batch_labels(pts: np.ndarray, xi: float, zeta: int) -> np.ndarray:
    """DBSCAN labels (k, n) of a batch of k point sets of n points."""
    k, n, _ = pts.shape
    # Blocks of rows of at most _BATCH_CELLS pairs; a batch of several sets is one block.
    per_block = max(1, _BATCH_CELLS // max(1, k * n))
    rows = [slice(lo, min(lo + per_block, n)) for lo in range(0, n, per_block)]
    near = _neighbourhoods(pts, xi, rows)
    core = np.count_nonzero(near, axis=2) >= zeta
    # Point indices, n meaning "none", and NOISE fit the narrowest signed type
    # holding -1 .. n, which keeps the index blocks small.
    itype = np.min_scalar_type(-1 - n)
    none = itype.type(n)
    index = np.arange(n, dtype=itype)

    def neighbour_minima(values: np.ndarray) -> np.ndarray:
        # Each point's least value over its neighbours, a block of rows at a time.
        out = np.empty((k, n), dtype=itype)
        for r in rows:
            np.min(np.where(near[:, r], values[:, None, :], none),
                   axis=2, initial=none, out=out[:, r])
        return out

    # Each core point takes the lowest core index it can reach: min-label
    # propagation with pointer jumping.  A non-core point's root is "none",
    # so the minima over all neighbours are the minima over core neighbours.
    root = np.where(core, index, none)
    sentinel = np.full((k, 1), none)
    while True:
        step = np.where(core, neighbour_minima(root), none)
        step = np.take_along_axis(np.concatenate([step, sentinel], axis=1), step, axis=1)
        if np.array_equal(step, root):
            break
        root = step
    is_root = root == index
    rank = np.cumsum(is_root, axis=1, dtype=itype) - 1
    core_cluster = np.where(core, np.take_along_axis(rank, np.where(core, root, 0), axis=1), none)
    labels = neighbour_minima(core_cluster)
    labels[labels == none] = NOISE
    return labels


def dbscan(features: np.ndarray, xi: float = DEFAULT_XI, zeta: int = DEFAULT_ZETA) -> np.ndarray:
    """Density-based clustering with Euclidean distance.

    A point is a core point when its closed xi-neighbourhood (which
    includes the point itself) holds at least zeta points.  Clusters are
    the connected components of core points under neighbourhood, numbered
    by their lowest core index; a non-core point within xi of a core
    point is a border point and takes the smallest cluster id among its
    core neighbours; everything else is noise (``NOISE``).  This is the
    labelling a scan in input order with first-come border assignment
    produces, so a point set's cluster count is its largest label plus one.

    ``features`` is one (N x D) point set or a stack (K x N x D) of point
    sets of equal size; the integer labels have the shape (N,) or (K, N).
    A stack is clustered in batches of at most ``_BATCH_CELLS`` point
    pairs (or one set of more), on the shared thread pool
    (``chansim.pool``); the labels do not depend on its size.  A batch
    holds one bool per point pair, its neighbourhoods, and index and
    float64 temporaries of at most ``_BATCH_CELLS`` pairs, made a block
    of rows at a time; so one set of n points takes about n² bytes.
    """
    if xi <= 0.0:
        raise ValueError("neighbourhood radius must be positive")
    if zeta < 1:
        raise ValueError("minimum points must be at least 1")
    pts = np.asarray(features, dtype=float)
    if pts.ndim not in (2, 3):
        raise ValueError("features must be one (N x D) point set or a (K x N x D) stack")
    batch = pts if pts.ndim == 3 else pts[None]
    k, n = batch.shape[:2]
    step = max(1, _BATCH_CELLS // max(1, n * n))
    batches = [batch[lo:lo + step] for lo in range(0, k, step)]
    parts = ordered_map(_batch_labels, batches, repeat(xi), repeat(zeta))
    # The empty block keeps the (0, n) shape of a stack of no point sets.
    labels = np.concatenate([np.empty((0, n), dtype=np.intp), *parts], dtype=np.intp)
    return labels.reshape(pts.shape[:-1])


def _cluster_block(xi: float, zeta: int, *columns: np.ndarray) -> np.ndarray:
    return dbscan(_zscored_features(*columns), xi, zeta)


def cluster_snapshot(
    table: RayTable, xi: float = DEFAULT_XI, zeta: int = DEFAULT_ZETA
) -> np.ndarray:
    """Cluster each snapshot's rays on their own: one label per ray, in table order.

    Each block of the table (``RayTable.blocks``) has its features built
    and clustered before the next block's, on the shared thread pool, so
    the whole pass's feature matrix is never held at once.
    """
    return table.map_rays(partial(_cluster_block, xi, zeta), *_feature_columns(table))
