import math

import numpy as np
import pytest

from sgmix import (
    ScenarioConfig,
    ShiftSpec,
    balanced_test_config,
    gen_conditional_gaussian,
    preset_scenario,
    shift_vectors,
    subgroup_counts,
)
from sgmix.synth import SCENARIO_NAMES, TEST_COUNT_PER_SUBGROUP


# ---------------------------------------------------------------- shifts


def test_shift_vectors_orthogonal_at_right_angle():
    b, c = shift_vectors(ShiftSpec())
    assert abs(float(b[1] @ c[1])) < 1e-12
    np.testing.assert_allclose(np.linalg.norm(b[1]), 1.0)
    np.testing.assert_allclose(np.linalg.norm(c[1]), 1.0)


def test_shift_vectors_pi_over_6_alignment():
    spec = ShiftSpec(angle=math.pi / 6)
    b, c = shift_vectors(spec)
    cosine = float(b[1] @ c[1])
    np.testing.assert_allclose(cosine, math.cos(math.pi / 6), atol=1e-12)
    np.testing.assert_allclose(cosine, 0.8660254037844387, atol=1e-12)


def test_shift_vectors_antisymmetric():
    b, c = shift_vectors(ShiftSpec(class_shift_magnitude=2.5, group_shift_magnitude=0.7))
    np.testing.assert_array_equal(b[0], -b[1])
    np.testing.assert_array_equal(c[0], -c[1])
    np.testing.assert_allclose(np.linalg.norm(b[1]), 2.5)
    np.testing.assert_allclose(np.linalg.norm(c[1]), 0.7)


def test_shift_vectors_only_first_two_coordinates():
    b, c = shift_vectors(ShiftSpec(angle=math.pi / 3, dim=10))
    assert np.all(b[1][1:] == 0.0)
    assert np.all(c[1][2:] == 0.0)


def test_shift_spec_rejects_dim_too_small_for_angle():
    with pytest.raises(ValueError, match="off-axis group shift"):
        ShiftSpec(angle=math.pi / 2, dim=1)
    ShiftSpec(angle=0.0, dim=1)  # collinear shifts fit in one dimension


# ---------------------------------------------------------------- generator


def test_generator_honors_counts():
    counts = np.array([[3, 7], [11, 5]])
    ds = gen_conditional_gaussian(ScenarioConfig(counts=counts, shifts=ShiftSpec(), seed=0))
    np.testing.assert_array_equal(subgroup_counts(ds), counts)
    assert ds.x.shape == (26, 10)


def test_generator_deterministic():
    cfg = preset_scenario("unbalanced-class", seed=21)
    a, b = gen_conditional_gaussian(cfg), gen_conditional_gaussian(cfg)
    np.testing.assert_array_equal(a.x, b.x)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.z, b.z)


def test_generator_seed_changes_data():
    a = gen_conditional_gaussian(preset_scenario("unbalanced-groups", seed=1))
    b = gen_conditional_gaussian(preset_scenario("unbalanced-groups", seed=2))
    assert not np.array_equal(a.x, b.x)


def test_generator_subgroup_mean_matches_shift_sum():
    # subgroup (1, 1) with unit orthogonal shifts centers at e1 + e2
    counts = np.zeros((2, 2), dtype=int)
    counts[1, 1] = 10_000
    ds = gen_conditional_gaussian(ScenarioConfig(counts=counts, shifts=ShiftSpec(dim=4), seed=3))
    mean = ds.x.mean(axis=0)
    np.testing.assert_allclose(mean, [1.0, 1.0, 0.0, 0.0], atol=0.05)
    np.testing.assert_allclose(ds.x.var(axis=0, ddof=1), np.ones(4), atol=0.05)


def test_generator_zero_magnitudes_center_at_origin():
    spec = ShiftSpec(class_shift_magnitude=0.0, group_shift_magnitude=0.0, dim=3)
    counts = np.full((2, 2), 2_500)
    ds = gen_conditional_gaussian(ScenarioConfig(counts=counts, shifts=spec, seed=4))
    np.testing.assert_allclose(ds.x.mean(axis=0), np.zeros(3), atol=0.05)


def test_generator_shuffles_rows():
    ds = gen_conditional_gaussian(preset_scenario("unbalanced-groups", seed=5))
    # lexicographic emission would sort by (y, z); a shuffle must break it
    keys = ds.y * 2 + ds.z
    assert np.any(np.diff(keys) < 0)


def test_scenario_config_rejects_bad_counts():
    with pytest.raises(ValueError, match="2x2"):
        ScenarioConfig(counts=np.array([1, 2, 3, 4]), shifts=ShiftSpec(), seed=0)
    with pytest.raises(ValueError, match="negative"):
        ScenarioConfig(counts=np.array([[1, -1], [0, 0]]), shifts=ShiftSpec(), seed=0)
    with pytest.raises(ValueError, match="must be positive"):
        ScenarioConfig(counts=np.zeros((2, 2), dtype=int), shifts=ShiftSpec(), seed=0)
    # every bad value is a ValueError, and a fraction is not cut to an int
    with pytest.raises(ValueError,
                       match=r"^counts must fit in int64, got \[\[9223372036854775808,"):
        ScenarioConfig(counts=[[2**63, 1], [1, 1]])
    with pytest.raises(ValueError, match=r"^counts must be whole numbers, got \[\[10.7, 100"):
        ScenarioConfig(counts=[[10.7, 100], [10, 100]])
    # counts are checked before the int64 cast, which would warn (an error
    # under this suite) or raise a TypeError on these
    for counts in (np.array([[np.nan, 1], [1, 1]]), np.array([[1, np.inf], [1, 1]]),
                   [[np.nan, 1], [1, 1]], [[1, 1], [-np.inf, 1]]):
        with pytest.raises(ValueError, match=r"^counts must be whole numbers, got "):
            ScenarioConfig(counts=counts)
    for counts in (np.array([[1e19, 1], [1, 1]]), [[1, 1], [1, -1e19]], [[2**64, 1], [1, 1]]):
        with pytest.raises(ValueError, match=r"^counts must fit in int64, got "):
            ScenarioConfig(counts=counts)
    config = ScenarioConfig(counts=np.array([[10.0, 100.0], [10.0, 100.0]]))
    assert config.counts.dtype == np.int64
    np.testing.assert_array_equal(config.counts, [[10, 100], [10, 100]])


# ---------------------------------------------------------------- presets


def test_preset_counts_and_angles():
    ug = preset_scenario("unbalanced-groups", seed=0)
    np.testing.assert_array_equal(ug.counts, [[10, 100], [10, 100]])
    assert ug.shifts.angle == math.pi / 2

    uc = preset_scenario("unbalanced-class", seed=0)
    np.testing.assert_array_equal(uc.counts, [[100, 100], [60, 10]])
    assert uc.shifts.angle == math.pi / 2

    us = preset_scenario("underrepresented-subgroup", seed=0)
    np.testing.assert_array_equal(us.counts, [[200, 200], [10, 200]])
    assert us.shifts.angle == math.pi / 6

    for cfg in (ug, uc, us):
        assert cfg.shifts.class_shift_magnitude == 1.0
        assert cfg.shifts.group_shift_magnitude == 1.0
        assert cfg.shifts.dim == 10


def test_preset_names_and_unknown():
    assert set(SCENARIO_NAMES) == {
        "unbalanced-groups",
        "unbalanced-class",
        "underrepresented-subgroup",
    }
    with pytest.raises(ValueError, match="unknown scenario"):
        preset_scenario("nonsense", seed=0)


def test_balanced_test_config():
    base = preset_scenario("underrepresented-subgroup", seed=7)
    test_cfg = balanced_test_config(base.shifts, seed=8)
    np.testing.assert_array_equal(test_cfg.counts, np.full((2, 2), TEST_COUNT_PER_SUBGROUP))
    assert test_cfg.shifts.angle == math.pi / 6
    ds = gen_conditional_gaussian(test_cfg)
    assert len(ds) == 2000
