"""Exact nearest-neighbor search restricted to one target subgroup."""
from __future__ import annotations

import numpy as np

from .data import Dataset, SubgroupKey, check_finite, subgroup_indices

# Queries are searched in blocks whose (rows, members, d) difference array
# holds about this many float64 values, and at least one query row.
_BLOCK_VALUES = 2**15


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
    z-scored distances passes a z-scored dataset and query.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float64)
    if query.ndim not in (1, 2) or query.shape[-1] != dataset.dim:
        raise ValueError(
            f"query has shape {query.shape}, expected ({dataset.dim},) or (m, {dataset.dim})"
        )
    check_finite(query)
    check_finite(dataset.x)
    members = subgroup_indices(dataset, SubgroupKey(*target))
    if members.size < k:
        raise ValueError(
            f"insufficient target subgroup (y={target[0]}, z={target[1]}): "
            f"has {members.size} members, need k={k}"
        )
    xt = dataset.x[members]
    queries = np.atleast_2d(query)
    rows = max(1, _BLOCK_VALUES // max(1, xt.size))
    nearest = np.empty((len(queries), k), dtype=np.int64)
    for start in range(0, len(queries), rows):
        diff = xt - queries[start:start + rows, None]
        dist = np.sqrt(np.square(diff, out=diff).sum(axis=-1))
        nearest[start:start + rows] = _k_smallest(dist, k)
    return members[nearest.reshape(query.shape[:-1] + (k,))]


def _k_smallest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest values, smallest first.

    Equal values go to the smaller column, as a stable full sort would order
    them, but only k values per row are sorted.
    """
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1:k]
    below = dist < kth
    tied = dist == kth
    # every value below the k-th, then the leftmost ties until k are taken
    wanted = k - below.sum(axis=1, keepdims=True)
    taken = below | (tied & (np.cumsum(tied, axis=1) <= wanted))
    cols = np.nonzero(taken)[1].reshape(len(dist), k)
    order = np.argsort(np.take_along_axis(dist, cols, axis=1), axis=1, kind="stable")
    return np.take_along_axis(cols, order, axis=1)
