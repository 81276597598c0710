"""Data model for group-annotated labeled tabular data and subgroup bookkeeping."""
from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np


class SubgroupKey(NamedTuple):
    """One (class label, group label) cell of the binary-by-binary partition."""

    y: int
    z: int


ALL_SUBGROUPS: tuple[SubgroupKey, ...] = (
    SubgroupKey(0, 0),
    SubgroupKey(0, 1),
    SubgroupKey(1, 0),
    SubgroupKey(1, 1),
)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable ordered collection of samples with a fixed feature dimension.

    Features live in a read-only (T, d) matrix of finite float64 values; class
    and group labels in read-only 0/1 int vectors. A frozen dataclass: setting
    any attribute raises AttributeError, and == and hash are identity.
    Augmenters never mutate a Dataset, they return new ones, so every cell of
    a replicate reads the same train and test sets. memo keeps each fsgm
    pair's source members and neighbour table for the dataset's lifetime, so
    each pair's source subgroup is searched once per dataset, k and scaling; a
    new Dataset, such as a subset, a concat or an augmenter's output, starts
    with an empty memo.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64, copy=True, order="C")
        y, z = np.asarray(self.y), np.asarray(self.z)
        if x.ndim != 2:
            raise ValueError(f"features must form a (T, d) matrix, got shape {x.shape}")
        if y.shape != (x.shape[0],) or z.shape != (x.shape[0],):
            raise ValueError(
                f"label shapes {y.shape}/{z.shape} do not match {x.shape[0]} feature rows"
            )
        for name, labels in (("class", y), ("group", z)):
            bad = np.flatnonzero((labels != 0) & (labels != 1))
            if bad.size:
                value = labels.tolist()[bad[0]]  # a Python scalar, so a string shows quoted
                raise ValueError(f"sample {bad[0]}: {name} label {value!r} outside {{0, 1}}")
        # Cast only checked labels: a cast would cut 0.5 to 0 and warn on NaN.
        y, z = y.astype(np.int64), z.astype(np.int64)
        check_finite(x)
        for name, arr in (("x", x), ("y", y), ("z", z)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def empty(cls, dim: int) -> "Dataset":
        return cls(np.empty((0, dim)), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.x.shape[0]

    def __repr__(self) -> str:
        return f"Dataset(T={len(self)}, d={self.dim})"

    def subset(self, indices: np.ndarray) -> "Dataset":
        """The rows at integer positions indices, in that order."""
        idx = np.asarray(indices)
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise ValueError(f"subset indices must be integers, got dtype {idx.dtype}")
        idx = idx.astype(np.int64, copy=False)
        return Dataset(self.x[idx], self.y[idx], self.z[idx])


def concat(first: Dataset, second: Dataset) -> Dataset:
    """Concatenate two datasets, first's rows before second's."""
    if first.dim != second.dim:
        raise ValueError(f"dimension mismatch: {first.dim} vs {second.dim}")
    return Dataset(
        np.vstack([first.x, second.x]),
        np.concatenate([first.y, second.y]),
        np.concatenate([first.z, second.z]),
    )


def subgroup_counts(dataset: Dataset) -> np.ndarray:
    """Count samples per (y, z) cell; counts[y, z] indexes class then group."""
    return np.bincount(2 * dataset.y + dataset.z, minlength=4).reshape(2, 2)


def subgroup_indices(dataset: Dataset, key: SubgroupKey) -> np.ndarray:
    """Ascending dataset indices of all samples in the given subgroup."""
    key = SubgroupKey(*key)
    return np.nonzero((dataset.y == key.y) & (dataset.z == key.z))[0]


def check_sizes(**sizes) -> None:
    """Reject any named size that is not an integer, such as 2.5, 2.0 or True,
    is below 1, or does not fit in int64; None passes.

    range and numpy would truncate a fractional size or fail deep inside a
    run, and a size past int64 cannot describe a run that ends, so each is a
    config error.
    """
    for name, value in sizes.items():
        if value is None:
            continue
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value}")
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
        if value >= 2**63:
            raise ValueError(f"{name} must fit in int64, got {value}")


def check_finite(x: np.ndarray) -> None:
    """Reject features that hold NaN or inf."""
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")


def feature_standardizer(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and standard deviation of the rows of x (zeros become 1).

    A column whose plain mean or std overflows, as a column holding 1e160
    does when its deviations are squared, is divided by its largest absolute
    value, measured, and scaled back; every other column keeps numpy's bits.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        std = x.std(axis=0)
    wide = ~(np.isfinite(mean) & np.isfinite(std))
    if wide.any():
        scale = np.abs(x[:, wide]).max(axis=0)
        scaled = x[:, wide] / scale
        mean[wide] = scaled.mean(axis=0) * scale
        std[wide] = scaled.std(axis=0) * scale
    std[std == 0.0] = 1.0
    return mean, std

