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


@pytest.mark.parametrize("name", ["x", "y", "z", "memo", "extra"])
def test_dataset_attributes_cannot_be_assigned(name):
    ds = Dataset([[1.0, 2.0]], [0], [1])
    with pytest.raises(AttributeError):
        setattr(ds, name, np.zeros(1))
    assert not any(arr.flags.writeable for arr in (ds.x, ds.y, ds.z))
    assert ds.x.tolist() == [[1.0, 2.0]] and ds.memo == {}


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
    # with valid labels, that NaN feature (or an inf) is what is rejected
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="^features must be finite$"):
            Dataset([[bad], [1.0], [2.0]], [0, 1, 1], [0, 0, 1])
    # labels are checked before the int64 cast, which would cut 0.5 to 0 and
    # 1.7 to 1, warn on NaN and parse the string "1"
    with pytest.raises(ValueError, match=r"^sample 0: class label 0.5 outside \{0, 1\}$"):
        Dataset(np.zeros((3, 1)), [0.5, 1.7, 0.0], [0, 1, 0.9])
    with pytest.raises(ValueError, match=r"^sample 2: group label 0.9 outside \{0, 1\}$"):
        Dataset(np.zeros((3, 1)), [0.0, 1.0, 0.0], [0, 1, 0.9])
    with pytest.raises(ValueError, match=r"^sample 1: class label nan outside \{0, 1\}$"):
        Dataset(np.zeros((3, 1)), [0.0, np.nan, 1.0], [0, 1, 1])
    with pytest.raises(ValueError, match=r"^sample 0: class label '1' outside \{0, 1\}$"):
        Dataset(np.zeros((3, 1)), ["1", "0", "1"], [0, 1, 1])
    # whole floats and booleans are labels, stored as int64
    ds = Dataset(np.zeros((3, 1)), [0.0, 1.0, 1.0], [True, False, True])
    assert ds.y.dtype == ds.z.dtype == np.int64
    np.testing.assert_array_equal(ds.y, [0, 1, 1])
    np.testing.assert_array_equal(ds.z, [1, 0, 1])


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


def test_subset_rejects_non_integer_indices():
    """A boolean mask or float positions would be cast to row numbers
    (rows 0, 1, 1 for [False, True, True]; row 0 for [0.7])."""
    ds = random_dataset(3, t=3, d=2)
    for bad in (np.array([False, True, True]), [0.7], np.array([1.0])):
        with pytest.raises(ValueError, match="subset indices must be integers"):
            ds.subset(bad)
    assert len(ds.subset([])) == 0
    np.testing.assert_array_equal(ds.subset(np.array([2, 0], dtype=np.int32)).x, ds.x[[2, 0]])
