"""Conditional Gaussian data generator and the three bias scenario presets.

Features are drawn from N(B(y) + C(z), I_d): a class-dependent shift B and a
group-dependent shift C, each antisymmetric in its label. The angle between
B(1) and C(1) controls how confounded class and group are in feature space.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset, check_sizes
from .rng import STREAM_OFFSETS, RngStream


@dataclass(frozen=True)
class ShiftSpec:
    """Geometry of the class and group mean shifts.

    class_shift_magnitude: length of B(1); B(0) = -B(1)
    group_shift_magnitude: length of C(1); C(0) = -C(1)
    angle:                 radians between B(1) and C(1)
    dim:                   feature dimension d
    """

    class_shift_magnitude: float = 1.0
    group_shift_magnitude: float = 1.0
    angle: float = math.pi / 2
    dim: int = 10

    def __post_init__(self):
        for name in ("class_shift_magnitude", "group_shift_magnitude", "angle"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.class_shift_magnitude < 0 or self.group_shift_magnitude < 0:
            raise ValueError("shift magnitudes must be nonnegative")
        check_sizes(dim=self.dim)
        if self.dim < 2 and math.sin(self.angle) != 0.0:
            raise ValueError(
                f"dim={self.dim} cannot host an off-axis group shift (angle {self.angle})"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """Per-subgroup sample counts plus the shift geometry and a seed."""

    counts: np.ndarray  # 2x2 ints indexed [y, z]
    shifts: ShiftSpec = field(default_factory=ShiftSpec)
    seed: int = 0

    def __post_init__(self):
        cells = np.asarray(self.counts)
        if cells.shape != (2, 2):
            raise ValueError(f"counts must be 2x2, got shape {cells.shape}")
        # Check the values before the int64 cast, which would cut 10.7 to
        # 10, wrap 2**63 and warn on NaN or inf.
        values = cells.ravel().tolist()
        if not all(isinstance(v, numbers.Integral) or isinstance(v, float) and v.is_integer()
                   for v in values):
            raise ValueError(f"counts must be whole numbers, got {self.counts}")
        if not all(-2**63 <= v < 2**63 for v in values):
            raise ValueError(f"counts must fit in int64, got {self.counts}")
        counts = np.array(values, dtype=np.int64).reshape(2, 2)
        if (counts < 0).any():
            raise ValueError("counts must be nonnegative")
        if counts.sum() == 0:
            raise ValueError("total sample count must be positive")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)


def shift_vectors(spec: ShiftSpec) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """Return the label-indexed shift maps (B, C).

    B(1) points along the first axis; C(1) lies in the span of the first two
    axes at the configured angle from B(1). Both maps are antisymmetric.
    """
    b1 = np.zeros(spec.dim)
    b1[0] = spec.class_shift_magnitude
    c1 = np.zeros(spec.dim)
    c1[0] = spec.group_shift_magnitude * math.cos(spec.angle)
    if spec.dim >= 2:
        c1[1] = spec.group_shift_magnitude * math.sin(spec.angle)
    B = {1: b1, 0: -b1}
    C = {1: c1, 0: -c1}
    return B, C


def gen_conditional_gaussian(config: ScenarioConfig) -> Dataset:
    """Draw counts[y][z] samples per subgroup and shuffle their order.

    Deterministic for a fixed config: subgroups are generated in (y, z)
    lexicographic order from one stream, then a single permutation from the
    same stream mixes them.
    """
    B, C = shift_vectors(config.shifts)
    stream = RngStream(config.seed, (STREAM_OFFSETS["data-gen"],))
    xs, ys, zs = [], [], []
    for y in (0, 1):
        for z in (0, 1):
            n = int(config.counts[y, z])
            if n == 0:
                continue
            mean = B[y] + C[z]
            xs.append(mean + stream.standard_normal((n, config.shifts.dim)))
            ys.append(np.full(n, y, dtype=np.int64))
            zs.append(np.full(n, z, dtype=np.int64))
    x = np.concatenate(xs)
    y_all = np.concatenate(ys)
    z_all = np.concatenate(zs)
    order = stream.permutation(len(y_all))
    return Dataset(x[order], y_all[order], z_all[order])


# Training counts indexed [y, z]; angle per scenario. Test sets are generated
# separately with TEST_COUNT_PER_SUBGROUP in every cell so accuracy and DP gap
# estimates carry equal weight per subgroup.
_PRESETS = {
    "unbalanced-groups": (np.array([[10, 100], [10, 100]]), math.pi / 2),
    "unbalanced-class": (np.array([[100, 100], [60, 10]]), math.pi / 2),
    "underrepresented-subgroup": (np.array([[200, 200], [10, 200]]), math.pi / 6),
}
SCENARIO_NAMES = tuple(_PRESETS)

TEST_COUNT_PER_SUBGROUP = 500


def preset_scenario(name: str, seed: int = 0) -> ScenarioConfig:
    """Training-set config for one of the three named bias scenarios."""
    if name not in _PRESETS:
        raise ValueError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    counts, angle = _PRESETS[name]
    return ScenarioConfig(counts=counts, shifts=ShiftSpec(angle=angle), seed=seed)


def balanced_test_config(shifts: ShiftSpec, seed: int,
                         per_subgroup: int = TEST_COUNT_PER_SUBGROUP) -> ScenarioConfig:
    """Evaluation-set config: the same shift geometry, equal subgroup counts."""
    counts = np.full((2, 2), per_subgroup, dtype=np.int64)
    return ScenarioConfig(counts=counts, shifts=shifts, seed=seed)
