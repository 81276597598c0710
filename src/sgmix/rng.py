"""Seeded random streams and the Beta draw the mixup weights need.

One master seed drives an experiment replicate; each pipeline stage draws
from its own stream, keyed by the seed and a path of fixed offsets, so
changing how one stage consumes randomness never perturbs another stage's
draws.
"""
from __future__ import annotations

import numpy as np

from .data import check_integer

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
    check_integer(seed=seed)
    ss = np.random.SeedSequence(int(seed), spawn_key=tuple(int(p) for p in path))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


class RngStream(np.random.Generator):
    """A numpy Generator keyed by (seed, path); equal keys give equal sequences.

    The path is a tuple of offsets such as STREAM_OFFSETS values. Each stage,
    tree and model makes its own stream and is its only user, so its draws
    depend only on its key, never on what ran before it. Streams at distinct
    paths are statistically independent. A seed that is not an integer,
    such as 1.5, raises ValueError rather than being cut to its integer part.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        check_integer(seed=seed)
        super().__init__(np.random.PCG64(np.random.SeedSequence(int(seed), spawn_key=path)))


def beta_sample(stream: RngStream, alpha: float) -> float:
    """Draw one value from Beta(alpha, alpha) via two Gamma(alpha) variates.

    The gamma-ratio construction stays valid for every finite alpha > 0,
    including alpha < 1 where the density is unbounded at the endpoints.
    If both draws underflow to 0, as at a tiny alpha, the pair is drawn once
    more in log space: log Gamma(a) = log Gamma(a + 1) + log(U) / a.
    """
    alpha = float(alpha)
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    g1, g2 = stream.gamma(alpha), stream.gamma(alpha)
    if g1 + g2 > 0.0:
        return float(g1 / (g1 + g2))
    # U = 1 - random() lies in (0, 1]; g1 / (g1 + g2) = 1 / (1 + exp(log g2 - log g1)),
    # and a difference past the float range gives exactly 0 or 1.
    lg, lu = np.log(stream.gamma(alpha + 1.0, size=2)), np.log1p(-stream.random(2))
    with np.errstate(over="ignore"):
        return float(1.0 / (1.0 + np.exp((lu[1] - lu[0]) / alpha + (lg[1] - lg[0]))))

