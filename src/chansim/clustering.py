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


def build_features(table: RayTable) -> np.ndarray:
    """Normalised feature matrix (N x 7), one row per ray of the table.

    Azimuths are expanded to (sin, cos) pairs before normalisation; every
    column is then scaled, snapshot by snapshot, to zero mean and unit
    (population) variance, except constant columns which are set to all
    zeros.  Rows follow the table's ray order, so snapshot ``i`` owns rows
    ``offsets[i]:offsets[i + 1]``.
    """
    return table.map_rays(
        _zscored_features,
        table.delay_s, table.aod_az_deg, table.aod_el_deg, table.aoa_az_deg, table.aoa_el_deg,
    )


def _labels(pts: np.ndarray, xi: float, zeta: int) -> np.ndarray:
    """DBSCAN labels (k, n) of k point sets of n points."""
    k, n, dim = pts.shape
    # Squared distances are added feature by feature, the order a sum over
    # the feature axis of the pairwise differences takes; the first feature
    # is squared in place (0 + x*x is x*x) and the rest go through one buffer.
    d2 = np.zeros((k, n, n))
    diff = np.empty_like(d2)
    for j in range(dim):
        out = diff if j else d2
        np.subtract(pts[:, :, j, None], pts[:, None, :, j], out=out)
        np.multiply(out, out, out=out)
        if j:
            d2 += diff
    del diff
    near = np.sqrt(d2, out=d2) <= xi
    del d2
    core = near.sum(axis=2) >= zeta
    links = near & core[:, None, :]
    links &= core[:, :, None]
    # Point indices, n meaning "none", and NOISE fit the narrowest signed type
    # holding -1 .. n, which keeps the (k, n, n) index arrays small.
    itype = np.min_scalar_type(-1 - n)
    none = itype.type(n)
    index = np.arange(n, dtype=itype)
    # Each core point takes the lowest core index it can reach: min-label
    # propagation with pointer jumping.
    root = np.where(core, index, none)
    sentinel = np.full((k, 1), none)
    while True:
        step = np.where(links, root[:, None, :], none).min(axis=2, initial=none)
        step = np.take_along_axis(np.concatenate([step, sentinel], axis=1), step, axis=1)
        if np.array_equal(step, root):
            break
        root = step
    del links
    is_root = root == index
    rank = np.cumsum(is_root, axis=1, dtype=itype) - 1
    core_cluster = np.where(core, np.take_along_axis(rank, np.where(core, root, 0), axis=1), none)
    labels = np.where(near, core_cluster[:, None, :], none).min(axis=2, initial=none)
    labels[labels == none] = NOISE
    return labels


# Point pairs handled per batch of equal-size point sets.  The pool runs up
# to two batches at once, so this bounds their (sets, n, n) work arrays to a
# few MB together.
_BATCH_PAIRS = 1 << 17


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
    A stack is clustered in batches, on the shared thread pool
    (``chansim.pool``); the labels do not depend on its size.
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
    step = max(1, _BATCH_PAIRS // max(1, n * n))
    batches = [batch[lo:lo + step] for lo in range(0, k, step)]
    parts = ordered_map(_labels, batches, repeat(xi), repeat(zeta))
    # The empty block keeps the (0, n) shape of a stack of no point sets.
    labels = np.concatenate([np.empty((0, n), dtype=np.intp), *parts], dtype=np.intp)
    return labels.reshape(pts.shape[:-1])


def cluster_snapshot(
    table: RayTable, xi: float = DEFAULT_XI, zeta: int = DEFAULT_ZETA
) -> np.ndarray:
    """Build features and cluster each snapshot's rays on their own: one label
    per ray, in table order."""
    return table.map_rays(partial(dbscan, xi=xi, zeta=zeta), build_features(table))
