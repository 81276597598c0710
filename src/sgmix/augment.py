"""Subgroup mixup augmentation and the baseline augmenters.

The central routine, :func:`fsgm_augment`, draws a sample from a chosen
source subgroup, finds its k nearest neighbors inside a chosen target
subgroup, and emits convex combinations of the pair sharing one Beta-drawn
mixing weight per source draw. It makes every draw first and then reads
each source's neighbors from its pair's table. A row's neighbors depend only
on the dataset, so the dataset keeps the tables: each pair's source subgroup
is searched once per dataset, k and scaling, however many calls draw from
it.
Class and group labels of the new samples are the indicator of the
interpolated label reaching 1/2, so each new point inherits the labels of
whichever parent it lies closer to.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import (
    Dataset, SubgroupKey, check_sizes, concat, feature_standardizer, subgroup_indices,
)
from .neighbors import knn_in_subgroup, target_members
from .rng import RngStream, beta_sample


class MixPair(NamedTuple):
    """Source and target subgroups for one interpolation direction."""

    source: SubgroupKey
    target: SubgroupKey


def make_pair(source, target) -> MixPair:
    return MixPair(SubgroupKey(*source), SubgroupKey(*target))


def check_pairs(pairs) -> tuple[MixPair, ...]:
    """Normalise pairs with make_pair; reject a string, a scalar or a mis-nested
    pair, none, repeats, loops and non-0/1 labels."""
    try:
        pairs = tuple(make_pair(*p) for p in pairs)
    except TypeError:
        raise ValueError(f"pairs must hold ((y, z), (y, z)) pairs, got {pairs!r}") from None
    if not pairs:
        raise ValueError("at least one source/target pair is required")
    if len(set(pairs)) != len(pairs):
        raise ValueError("pairs must be distinct")
    for p in pairs:
        if p.source == p.target:
            raise ValueError(f"source and target subgroup coincide: {p}")
        if not set(p.source + p.target) <= {0, 1}:
            raise ValueError(f"pair labels must be 0 or 1: {p}")
    return pairs


@dataclass(frozen=True)
class FsgmConfig:
    """Settings for one subgroup-mixup run.

    pairs:       interpolation directions, scheduled round-robin
    k:           neighbors per source draw
    alpha:       Beta(alpha, alpha) shape for the mixing weight
    new_count:   exact number of new samples to produce
    seed:        stream seed; same seed and config give bit-identical output
    standardize: compute neighbor distances in z-scored feature space
    """

    pairs: tuple[MixPair, ...]
    new_count: int
    k: int = 5
    alpha: float = 1.0
    seed: int = 0
    standardize: bool = False

    def __post_init__(self):
        object.__setattr__(self, "pairs", check_pairs(self.pairs))
        check_sizes(new_count=self.new_count, k=self.k)
        if not 0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not isinstance(self.standardize, (bool, np.bool_)):
            raise ValueError(f"standardize must be True or False, got {self.standardize!r}")
        object.__setattr__(self, "standardize", bool(self.standardize))


@dataclass(frozen=True)
class AugmentationReport:
    """New samples plus bookkeeping of how they were produced."""

    produced: Dataset
    per_pair_counts: dict[MixPair, int] = field(default_factory=dict)
    lambda_draws: int = 0


def _weights(lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=np.float64)
    if not ((lam >= 0.0) & (lam <= 1.0)).all():
        raise ValueError(f"mixing weight must lie in [0, 1], got {lam}")
    return lam


def mix_features(x_s: np.ndarray, x_t: np.ndarray, lam) -> np.ndarray:
    """(1-lam)*x_s + lam*x_t for two points, or for paired rows with one lam per row."""
    lam = _weights(lam)
    x_s = np.asarray(x_s, dtype=np.float64)
    x_t = np.asarray(x_t, dtype=np.float64)
    if x_s.shape != x_t.shape:
        raise ValueError(f"length mismatch: {x_s.shape} vs {x_t.shape}")
    if lam.ndim:
        if x_s.shape[:1] != lam.shape:
            raise ValueError(f"{lam.size} weights for rows of shape {x_s.shape}")
        lam = lam[:, None]
    return (1.0 - lam) * x_s + lam * x_t


def mix_label(y_s, y_t, lam):
    """Indicator of the interpolated label reaching 1/2 (inclusive); an int, or per row."""
    lam = _weights(lam)
    snapped = ((1.0 - lam) * y_s + lam * y_t >= 0.5).astype(np.int64)
    return int(snapped) if snapped.ndim == 0 else snapped


def mix_group(z_s, z_t, lam):
    """Same indicator rule as mix_label, applied to group labels."""
    return mix_label(z_s, z_t, lam)


def _mix_rows(dataset: Dataset, i, j, lam) -> Dataset:
    """Row r mixes dataset rows i[r] and j[r] with weight lam[r]."""
    return Dataset(
        mix_features(dataset.x[i], dataset.x[j], lam),
        mix_label(dataset.y[i], dataset.y[j], lam),
        mix_group(dataset.z[i], dataset.z[j], lam),
    )


def fsgm_augment(dataset: Dataset, config: FsgmConfig) -> AugmentationReport:
    """Produce exactly config.new_count subgroup-mixup samples.

    Each batch: pick the next pair round-robin, draw a uniform source sample,
    then one mixing weight, and emit k mixed samples sharing that weight, one
    per nearest target-subgroup neighbor of the source. Every batch is drawn
    first; then every batch reads its source's neighbors from the pair's table
    in dataset.memo. Each pair's source subgroup is searched once per dataset,
    k and scaling, by the first call that needs the table.
    The last of the ceil(new_count / k) batches is truncated so the count is exact.
    """
    source_members = []
    for pair in config.pairs:
        src = subgroup_indices(dataset, pair.source)
        if src.size == 0:
            raise ValueError(
                f"empty source subgroup (y={pair.source.y}, z={pair.source.z})"
            )
        target_members(dataset, pair.target, config.k)  # fail before any draw
        source_members.append(src)

    n, k, stride = config.new_count, config.k, len(config.pairs)
    batches = -(-n // k)
    stream = RngStream(config.seed)
    sizes = [members.size for members in source_members]
    picks, lams = [], []
    for b in range(batches):
        picks.append(stream.integers(sizes[b % stride]))
        lams.append(beta_sample(stream, config.alpha))
    picks = np.array(picks, dtype=np.int64)
    # a row's neighbors depend only on the dataset, the target, k and the
    # scaling, so the first call that needs a pair's table searches the
    # pair's whole source subgroup and the dataset keeps the table, whose
    # row i holds source member i's neighbors
    search = None  # the search space, z-scored when asked, built on first need
    sources = np.empty(batches, dtype=np.int64)
    neighbors = np.empty((batches, k), dtype=np.int64)
    for p, (pair, members) in enumerate(zip(config.pairs, source_members)):
        key = (pair, k, config.standardize)
        if key not in dataset.memo:
            if search is None:
                search = dataset
                if config.standardize:
                    mean, std = feature_standardizer(dataset.x)
                    search = Dataset((dataset.x - mean) / std, dataset.y, dataset.z)
            dataset.memo[key] = knn_in_subgroup(search, search.x[members], pair.target, k)
        sources[p::stride] = members[picks[p::stride]]
        neighbors[p::stride] = dataset.memo[key][picks[p::stride]]

    produced = _mix_rows(dataset, np.repeat(sources, k)[:n], neighbors.ravel()[:n],
                         np.repeat(np.array(lams), k)[:n])
    counts = np.bincount(np.arange(n) // k % stride, minlength=stride)
    return AugmentationReport(produced, dict(zip(config.pairs, counts.tolist())), batches)


def vanilla_mixup(dataset: Dataset, new_count: int, alpha: float, seed: int) -> Dataset:
    """Mixup between uniformly drawn sample pairs from different classes.

    Every emission draws its own pair and its own mixing weight; group labels
    are mixed by the same indicator rule as class labels.
    """
    check_sizes(new_count=new_count)
    # partners[c] holds the rows of the class a class-c row mixes with
    partners = tuple(np.nonzero(dataset.y == 1 - c)[0] for c in (0, 1))
    for c in (0, 1):
        if partners[1 - c].size == 0:
            raise ValueError(f"class {c} is empty; cross-class mixup needs both classes")
    n, labels = len(dataset), dataset.y.tolist()
    stream = RngStream(seed)
    draws = []
    for _ in range(new_count):
        i = stream.integers(n)
        others = partners[labels[i]]
        j = others[stream.integers(others.size)]
        draws.append((i, j, beta_sample(stream, alpha)))
    return _mix_rows(dataset, *(np.array(column) for column in zip(*draws)))


def group_swap_augment(dataset: Dataset, new_count: int, seed: int) -> Dataset:
    """Uniform-with-replacement copies of existing samples with the group flipped.

    Copies keep their features and class label; only z becomes 1 - z.
    """
    if len(dataset) == 0:
        raise ValueError("cannot augment an empty dataset")
    check_sizes(new_count=new_count)
    picks = RngStream(seed).integers(len(dataset), size=new_count)
    return Dataset(dataset.x[picks], dataset.y[picks], 1 - dataset.z[picks])


def bootstrap(dataset: Dataset, total_size: int, seed: int) -> Dataset:
    """Original samples plus uniform-with-replacement copies up to total_size."""
    if len(dataset) == 0:
        raise ValueError("cannot bootstrap an empty dataset")
    check_sizes(total_size=total_size)
    if total_size < len(dataset):
        raise ValueError(
            f"total_size {total_size} is smaller than the dataset ({len(dataset)})"
        )
    extra = total_size - len(dataset)
    if extra == 0:
        return dataset
    picks = RngStream(seed).integers(len(dataset), size=extra)
    copies = Dataset(dataset.x[picks], dataset.y[picks], dataset.z[picks])
    return concat(dataset, copies)
