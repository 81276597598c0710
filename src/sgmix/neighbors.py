"""Exact nearest-neighbor search restricted to one target subgroup."""
from __future__ import annotations

import numpy as np

from .data import Dataset, SubgroupKey, subgroup_indices


def knn_in_subgroup(
    dataset: Dataset,
    query: np.ndarray,
    target: SubgroupKey,
    k: int,
) -> np.ndarray:
    """Dataset indices of the k nearest target-subgroup members, nearest first.

    Ties in distance go to the smaller dataset index. Distances are
    Euclidean in the dataset's own feature space; a caller that wants
    z-scored distances passes a z-scored dataset and query.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (dataset.dim,):
        raise ValueError(f"query has shape {query.shape}, expected ({dataset.dim},)")
    members = subgroup_indices(dataset, SubgroupKey(*target))
    if members.size < k:
        raise ValueError(
            f"insufficient target subgroup (y={target[0]}, z={target[1]}): "
            f"has {members.size} members, need k={k}"
        )
    dist = np.sqrt(((dataset.x[members] - query) ** 2).sum(axis=1))
    return members[np.lexsort((members, dist))[:k]]
