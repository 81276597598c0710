"""Exact nearest-neighbor search restricted to one target subgroup."""
from __future__ import annotations

import math
import sys

import numpy as np

from .data import Dataset, SubgroupKey, check_finite, check_sizes, subgroup_indices

# Queries are searched in blocks of at least one row whose (rows, members, d)
# difference array holds about this many float64 values.
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
    queries allocates one (rows, members, d) difference array of about
    _BLOCK_VALUES values.
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
    xm = dataset.x[members]
    queries = np.atleast_2d(query)
    # a finite gap can overflow when squared and summed; distances order the
    # same at any scale, so features that large are searched scaled to [-1, 1]
    scale = max(xm.max(), -xm.min(), queries.max(initial=0.0), -queries.min(initial=0.0))
    if scale > math.sqrt(sys.float_info.max / (4 * dataset.dim)):
        xm, queries = xm / scale, queries / scale
    rows = max(1, _BLOCK_VALUES // max(1, xm.size))
    nearest = np.empty((len(queries), k), dtype=np.int64)
    for start in range(0, len(queries), rows):
        diff = xm - queries[start:start + rows, None]
        dist = np.sqrt(np.square(diff, out=diff).sum(-1))
        nearest[start:start + rows] = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return members[nearest.reshape(query.shape[:-1] + (k,))]
