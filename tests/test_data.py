import numpy as np
import pytest

from sgmix import (
    Dataset,
    concat,
    gen_conditional_gaussian,
    preset_scenario,
    subgroup_counts,
    subgroup_indices,
)
from sgmix.data import ALL_SUBGROUPS, SubgroupKey

from conftest import random_dataset


def test_dataset_shape_and_access():
    ds = Dataset([[1.0, 2.0], [3.0, 4.0]], [0, 1], [1, 0])
    assert len(ds) == 2
    assert ds.dim == 2
    np.testing.assert_array_equal(ds.x[1], [3.0, 4.0])
    assert ds.y.tolist() == [0, 1] and ds.z.tolist() == [1, 0]


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ValueError, match="matrix"):
        Dataset([1.0, 2.0], [0, 1], [0, 1])
    with pytest.raises(ValueError, match="label shapes"):
        Dataset([[1.0], [2.0]], [0], [0, 1])


def test_dataset_is_immutable():
    ds = Dataset([[1.0]], [0], [0])
    with pytest.raises(ValueError):
        ds.x[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.y[0] = 1
    # construction copies: mutating the source array must not leak in
    src = np.array([[7.0]])
    ds2 = Dataset(src, [1], [1])
    src[0, 0] = -1.0
    assert ds2.x[0, 0] == 7.0


def test_empty_dataset():
    ds = Dataset.empty(4)
    assert len(ds) == 0 and ds.dim == 4
    np.testing.assert_array_equal(subgroup_counts(ds), np.zeros((2, 2), dtype=int))


def test_subgroup_counts_hand_case():
    ds = Dataset([[0.0], [1.0], [2.0]], [0, 0, 1], [0, 0, 1])
    table = subgroup_counts(ds)
    assert table[0, 0] == 2
    assert table[1, 1] == 1
    assert table[0, 1] == 0 and table[1, 0] == 0


def test_subgroup_counts_on_scenario_data():
    ds = gen_conditional_gaussian(preset_scenario("unbalanced-groups", seed=3))
    table = subgroup_counts(ds)
    assert table[0, 0] == 10 and table[1, 0] == 10
    assert table[0, 1] == 100 and table[1, 1] == 100


def test_subgroup_counts_total_is_dataset_size():
    for seed in range(5):
        ds = random_dataset(seed, t=57)
        assert subgroup_counts(ds).sum() == len(ds)


def test_subgroup_indices_hand_case():
    ds = Dataset([[0.0], [1.0], [2.0]], [0, 1, 0], [0, 0, 0])
    np.testing.assert_array_equal(subgroup_indices(ds, SubgroupKey(0, 0)), [0, 2])
    assert subgroup_indices(ds, SubgroupKey(1, 1)).size == 0


def test_subgroup_indices_partition_property():
    for seed in range(5):
        ds = random_dataset(seed, t=33)
        seen = np.concatenate([subgroup_indices(ds, key) for key in ALL_SUBGROUPS])
        np.testing.assert_array_equal(np.sort(seen), np.arange(len(ds)))


def test_dataset_rejects_labels_outside_0_1():
    with pytest.raises(ValueError, match=r"sample 1: class label 2 outside \{0, 1\}"):
        Dataset([[np.nan], [1.0], [2.0]], [0, 2, 1], [0, 0, 3])
    with pytest.raises(ValueError, match=r"sample 2: group label 3 outside \{0, 1\}"):
        Dataset([[np.nan], [1.0], [2.0]], [0, 1, 1], [0, 0, 3])


def test_concat_and_subset():
    a = random_dataset(0, t=6, d=2)
    b = random_dataset(1, t=4, d=2)
    both = concat(a, b)
    assert len(both) == 10
    np.testing.assert_array_equal(both.y[:6], a.y)
    np.testing.assert_array_equal(both.x[6:], b.x)
    sub = both.subset([0, 7])
    np.testing.assert_array_equal(sub.x[1], both.x[7])
    with pytest.raises(ValueError, match="dimension mismatch"):
        concat(a, random_dataset(2, t=3, d=5))
