"""Seeded random streams and the draw primitives the pipeline needs.

One master seed drives an experiment replicate; each pipeline stage draws
from its own stream, keyed by the seed and a path of fixed offsets, so
changing how one stage consumes randomness never perturbs another stage's
draws.
"""
from __future__ import annotations

import numpy as np

# Fixed offsets for named pipeline stages.
STREAM_OFFSETS = {
    "data-gen": 1,
    "test-gen": 2,
    "split": 3,
    "augmentation": 4,
    "model-init": 5,
    "bootstrap": 6,
    "alpha-search": 7,
    "batch-shuffle": 8,
}


def derive_seed(seed: int, *path: int) -> int:
    """Deterministically derive a child seed from a master seed and offset path."""
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class RngStream:
    """Deterministic pseudo-random stream; equal seeds give equal sequences.

    The stream is keyed by (seed, path), the path being a tuple of offsets
    such as STREAM_OFFSETS values. A stream is single-owner: never share one
    instance across concurrent workers. Streams at distinct paths are
    statistically independent and may be handed to separate workers.
    """

    __slots__ = ("seed", "path", "gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"


def beta_sample(stream: RngStream, alpha: float) -> float:
    """Draw one value from Beta(alpha, alpha) via two Gamma(alpha) variates.

    The gamma-ratio construction stays valid for every alpha > 0, including
    alpha < 1 where the density is unbounded at the endpoints.
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    g1 = stream.gen.gamma(alpha)
    g2 = stream.gen.gamma(alpha)
    while g1 + g2 == 0.0:  # underflow guard for tiny alpha
        g1 = stream.gen.gamma(alpha)
        g2 = stream.gen.gamma(alpha)
    return float(g1 / (g1 + g2))


def uniform_index(stream: RngStream, candidates, size: int | None = None):
    """Uniform draw (with replacement across calls) from a nonempty index list."""
    arr = np.asarray(candidates, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("empty source subgroup: no candidates to sample from")
    pos = stream.gen.integers(arr.size, size=size)
    if size is None:
        return int(arr[pos])
    return arr[pos]
