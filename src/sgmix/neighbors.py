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


def feature_standardizer(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Dataset-wide per-feature mean and standard deviation (zeros become 1)."""
    mean = dataset.x.mean(axis=0) if len(dataset) else np.zeros(dataset.dim)
    std = dataset.x.std(axis=0) if len(dataset) else np.ones(dataset.dim)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def knn_in_subgroup(
    dataset: Dataset,
    query: np.ndarray,
    target: SubgroupKey,
    k: int,
    exclude: int | None = None,
    standardize: bool = False,
) -> NeighborResult:
    """The k nearest members of the target subgroup, ties broken by dataset index.

    With `standardize` set, distances are computed in dataset-wide z-scored
    feature space (the query is transformed with the same statistics); the
    returned distances then live in that space too.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query = np.asarray(query, dtype=np.float64)
    if query.shape != (dataset.dim,):
        raise ValueError(f"query has shape {query.shape}, expected ({dataset.dim},)")
    members = subgroup_indices(dataset, SubgroupKey(*target))
    if exclude is not None:
        members = members[members != exclude]
    if members.size < k:
        raise ValueError(
            f"insufficient target subgroup (y={target[0]}, z={target[1]}): "
            f"has {members.size} members, need k={k}"
        )
    feats = dataset.x[members]
    if standardize:
        mean, std = feature_standardizer(dataset)
        feats = (feats - mean) / std
        query = (query - mean) / std
    dist = np.sqrt(((feats - query) ** 2).sum(axis=1))
    order = np.lexsort((members, dist))[:k]
    return NeighborResult(indices=members[order], distances=dist[order])
