"""Exact nearest-neighbor search restricted to one target subgroup."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, SubgroupKey, subgroup_indices


@dataclass(frozen=True)
class NeighborResult:
    """K neighbor indices into the dataset, ascending by distance."""

    indices: np.ndarray
    distances: np.ndarray


def knn_in_subgroup(
    dataset: Dataset,
    query: np.ndarray,
    target: SubgroupKey,
    k: int,
) -> NeighborResult:
    """The k nearest members of the target subgroup, ties broken by dataset index.

    Distances are Euclidean in the dataset's own feature space; a caller that
    wants z-scored distances passes a z-scored dataset and query.
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
    order = np.lexsort((members, dist))[:k]
    return NeighborResult(indices=members[order], distances=dist[order])
