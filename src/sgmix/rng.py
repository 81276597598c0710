"""Seeded random streams and the draw primitives the pipeline needs.

One master seed drives an experiment replicate; each pipeline stage works on
its own substream, derived from a fixed offset, so changing how one stage
consumes randomness never perturbs another stage's draws.
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

    A stream is single-owner: never share one instance across concurrent
    workers. Substreams at distinct offsets are statistically independent and
    may be handed to separate workers.
    """

    __slots__ = ("seed", "path", "gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self.gen = np.random.Generator(np.random.PCG64(ss))

    def substream(self, offset: int | str) -> "RngStream":
        """Fresh stream at a fixed offset; `offset` may be a stage name."""
        if isinstance(offset, str):
            offset = STREAM_OFFSETS[offset]
        return RngStream(self.seed, self.path + (int(offset),))

    def __repr__(self) -> str:
        return f"RngStream(seed={self.seed}, path={self.path})"


def beta_sample(stream: RngStream, alpha: float, size: int | None = None):
    """Draw from Beta(alpha, alpha) via two Gamma(alpha) variates.

    The gamma-ratio construction stays valid for every alpha > 0, including
    alpha < 1 where the density is unbounded at the endpoints.
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if size is None:
        g1 = stream.gen.gamma(alpha)
        g2 = stream.gen.gamma(alpha)
        while g1 + g2 == 0.0:  # underflow guard for tiny alpha
            g1 = stream.gen.gamma(alpha)
            g2 = stream.gen.gamma(alpha)
        return float(g1 / (g1 + g2))
    g1 = stream.gen.gamma(alpha, size=size)
    g2 = stream.gen.gamma(alpha, size=size)
    total = g1 + g2
    return np.where(total > 0, g1 / np.where(total > 0, total, 1.0), 0.5)


def uniform_index(stream: RngStream, candidates, size: int | None = None):
    """Uniform draw (with replacement across calls) from a nonempty index list."""
    arr = np.asarray(candidates, dtype=np.int64)
    if arr.size == 0:
        raise ValueError("empty source subgroup: no candidates to sample from")
    pos = stream.gen.integers(arr.size, size=size)
    if size is None:
        return int(arr[pos])
    return arr[pos]
