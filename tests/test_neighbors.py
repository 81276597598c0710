import numpy as np
import pytest

from sgmix.data import Dataset, SubgroupKey, feature_standardizer, subgroup_indices
from sgmix.neighbors import knn_in_subgroup

from conftest import random_dataset


def test_knn_one_dimensional_hand_case():
    # target members at x = 1, 2, 5; query at 0 -> nearest two are 1 and 2
    ds = Dataset([[1.0], [2.0], [5.0], [0.5]], [1, 1, 1, 0], [0, 0, 0, 0])
    nearest = knn_in_subgroup(ds, np.array([0.0]), SubgroupKey(1, 0), k=2)
    np.testing.assert_array_equal(nearest, [0, 1])


def test_knn_whole_subgroup_when_k_equals_size():
    ds = random_dataset(8, t=30)
    key = SubgroupKey(1, 1)
    members = subgroup_indices(ds, key)
    nearest = knn_in_subgroup(ds, ds.x[0], key, k=members.size)
    assert sorted(nearest) == sorted(members)
    assert (np.diff(np.linalg.norm(ds.x[nearest] - ds.x[0], axis=1)) >= 0).all()


def test_knn_insufficient_members_error_names_counts():
    ds = Dataset([[0.0], [1.0]], [1, 0], [0, 0])
    with pytest.raises(ValueError, match=r"insufficient target subgroup \(y=1, z=0\): has 1 members, need k=3"):
        knn_in_subgroup(ds, np.array([0.0]), SubgroupKey(1, 0), k=3)


def test_knn_ties_broken_by_dataset_index():
    # three equidistant members; the two lowest indices win
    ds = Dataset([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, 0.0]], [1, 1, 1, 0], [1, 1, 1, 1])
    nearest = knn_in_subgroup(ds, np.array([0.0, 0.0]), SubgroupKey(1, 1), k=2)
    np.testing.assert_array_equal(nearest, [0, 1])


def test_knn_matches_full_sort_oracle():
    # independent oracle: sort all member distances, then stable index tie-break
    for seed in range(8):
        ds = random_dataset(seed, t=120, d=4)
        key = SubgroupKey(seed % 2, (seed // 2) % 2)
        members = subgroup_indices(ds, key)
        query = ds.x[(seed * 7) % len(ds)]
        k = min(5, members.size)
        expected = sorted(
            (float(np.linalg.norm(ds.x[m] - query)), m) for m in members
        )[:k]
        nearest = knn_in_subgroup(ds, query, key, k=k)
        np.testing.assert_array_equal(nearest, [m for _, m in expected])


def test_knn_result_for_k_is_prefix_of_k_plus_one():
    ds = random_dataset(3, t=80, d=3)
    key = SubgroupKey(0, 1)
    query = ds.x[5]
    for k in range(1, 8):
        small = knn_in_subgroup(ds, query, key, k=k)
        big = knn_in_subgroup(ds, query, key, k=k + 1)
        np.testing.assert_array_equal(big[:k], small)


def test_knn_returns_only_target_subgroup():
    ds = random_dataset(5, t=60)
    key = SubgroupKey(1, 0)
    for i in knn_in_subgroup(ds, ds.x[1], key, k=4):
        assert ds.y[i] == 1 and ds.z[i] == 0


def test_feature_standardizer_guards_constant_columns():
    ds = Dataset([[1.0, 3.0], [1.0, 5.0]], [0, 1], [0, 1])
    mean, std = feature_standardizer(ds.x)
    np.testing.assert_allclose(mean, [1.0, 4.0])
    assert std[0] == 1.0  # constant column: divide by 1, not 0
    assert std[1] == 1.0


def test_knn_validates_inputs():
    ds = random_dataset(0)
    with pytest.raises(ValueError, match="k must be"):
        knn_in_subgroup(ds, ds.x[0], SubgroupKey(0, 0), k=0)
    with pytest.raises(ValueError, match="query"):
        knn_in_subgroup(ds, np.zeros(ds.dim + 1), SubgroupKey(0, 0), k=1)
