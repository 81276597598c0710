"""Exact nearest-neighbor search restricted to one target subgroup."""
from __future__ import annotations

import math
import sys

import numpy as np

from .data import Dataset, SubgroupKey, check_finite, check_sizes, subgroup_indices

# Queries are searched in blocks of at least one row whose (rows, members, d)
# difference array would hold about this many float64 values. From 8 features
# on, that array is what each block allocates; below 8, a block allocates two
# (rows, members) arrays instead.
_BLOCK_VALUES = 2**15


def target_members(dataset: Dataset, target: SubgroupKey, k: int) -> np.ndarray:
    """Ascending dataset indices of the target subgroup, which must hold at least k."""
    members = subgroup_indices(dataset, SubgroupKey(*target))
    if members.size < k:
        raise ValueError(
            f"insufficient target subgroup (y={target[0]}, z={target[1]}): "
            f"has {members.size} members, need k={k}"
        )
    return members


def knn_in_subgroup(
    dataset: Dataset,
    query: np.ndarray,
    target: SubgroupKey,
    k: int,
) -> np.ndarray:
    """Dataset indices of the k nearest target-subgroup members, nearest first.

    A query of shape (d,) returns shape (k,); a block of queries of shape
    (m, d) returns shape (m, k), row r for query row r, as m one-row calls
    would. Ties in distance go to the smaller dataset index. Distances are
    Euclidean in the dataset's own feature space; a caller that wants
    z-scored distances passes a z-scored dataset and query. Each block of
    queries allocates a (rows, members, d) difference array of about
    _BLOCK_VALUES values from 8 features on, and two (rows, members) arrays
    below 8.
    """
    check_sizes(k=k)
    if dataset.dim == 0:
        raise ValueError("features must have at least one column, got 0")
    query = np.asarray(query, dtype=np.float64)
    if query.ndim not in (1, 2) or query.shape[-1] != dataset.dim:
        raise ValueError(
            f"query has shape {query.shape}, expected ({dataset.dim},) or (m, {dataset.dim})"
        )
    check_finite(query)
    members = target_members(dataset, target, k)
    xt = np.ascontiguousarray(dataset.x[members].T)
    queries = np.atleast_2d(query)
    # a finite gap can overflow when squared and summed; distances order the
    # same at any scale, so features that large are searched scaled to [-1, 1]
    scale = max(xt.max(), -xt.min(), queries.max(initial=0.0), -queries.min(initial=0.0))
    if scale > math.sqrt(sys.float_info.max / (4 * dataset.dim)):
        xt, queries = xt / scale, queries / scale
    rows = max(1, _BLOCK_VALUES // max(1, xt.size))
    nearest = np.empty((len(queries), k), dtype=np.int64)
    for start in range(0, len(queries), rows):
        dist = _squared_distances(xt, queries[start:start + rows])
        np.sqrt(dist, out=dist)
        nearest[start:start + rows] = _k_smallest(dist, k)
    return members[nearest.reshape(query.shape[:-1] + (k,))]


def _squared_distances(xt: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(rows, M) sums over features of (xt[j] - q[:, j])², xt of shape (d, M).

    Each entry is the bits of `np.square(xt.T - q[:, None]).sum(-1)`. Below
    8 features numpy adds a contiguous axis left to right, so adding the
    columns in order gives its bits without a (rows, M, d) array; from 8 on
    it sums pairwise, so the expression itself is returned.
    """
    if len(xt) >= 8:
        # order="C" keeps the feature axis contiguous: numpy sums a strided
        # axis in another order, with other bits
        diff = np.subtract(xt.T, q[:, None], order="C")
        return np.square(diff, out=diff).sum(-1)
    total = np.subtract(xt[0], q[:, 0, None])
    np.square(total, out=total)
    scratch = np.empty_like(total)
    for j in range(1, len(xt)):
        np.subtract(xt[j], q[:, j, None], out=scratch)
        total += np.square(scratch, out=scratch)
    return total


def _k_smallest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest values, smallest first.

    Equal values go to the smaller column, as a stable full sort would order
    them, but only k values per row are sorted.
    """
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    # each row has at least k values <= its k-th; when no row has more,
    # those are the k wanted
    taken = dist <= kth
    if np.count_nonzero(taken) != taken.shape[0] * k:
        below = dist < kth
        tied = dist == kth
        # every value below the k-th, then the leftmost ties until k are taken
        wanted = k - below.sum(axis=1, keepdims=True)
        taken = below | (tied & (np.cumsum(tied, axis=1) <= wanted))
    rows = np.arange(len(dist))[:, None]
    cols = np.nonzero(taken)[1].reshape(len(dist), k)
    return cols[rows, np.argsort(dist[rows, cols], axis=1, kind="stable")]
