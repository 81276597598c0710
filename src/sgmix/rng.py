"""Seeded random streams and the Beta draw the mixup weights need.

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


class RngStream(np.random.Generator):
    """A numpy Generator keyed by (seed, path); equal keys give equal sequences.

    The path is a tuple of offsets such as STREAM_OFFSETS values. Each stage,
    tree and model makes its own stream and is its only user, so its draws
    depend only on its key, never on what ran before it. Streams at distinct
    paths are statistically independent.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        super().__init__(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=path)))


def beta_sample(stream: RngStream, alpha: float) -> float:
    """Draw one value from Beta(alpha, alpha) via two Gamma(alpha) variates.

    The gamma-ratio construction stays valid for every alpha > 0, including
    alpha < 1 where the density is unbounded at the endpoints.
    """
    alpha = float(alpha)
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    g1 = stream.gamma(alpha)
    g2 = stream.gamma(alpha)
    while g1 + g2 == 0.0:  # underflow guard for tiny alpha
        g1 = stream.gamma(alpha)
        g2 = stream.gamma(alpha)
    return float(g1 / (g1 + g2))

