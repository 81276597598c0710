import tracemalloc

import numpy as np
import pytest

from sgmix import neighbors
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


@pytest.mark.parametrize("column", [[1e160, 0.0, 1.0], [1e300, -1e300] * 3],
                         ids=["1e160-cell", "alternating-1e300"])
def test_feature_standardizer_measures_columns_whose_squares_overflow(recwarn, column):
    x = np.column_stack([column, np.arange(len(column), dtype=np.float64)])
    mean, std = feature_standardizer(x)
    assert np.isfinite(mean).all() and (np.isfinite(std) & (std > 0)).all()
    np.testing.assert_allclose(std[0], np.std(np.array(column) / 1e150) * 1e150)
    assert mean[1] == x[:, 1].mean() and std[1] == x[:, 1].std()
    scored = (x - mean) / std
    assert np.isfinite(scored).all() and (scored[:, 0] != 0).any()
    assert [str(w.message) for w in recwarn] == []


def test_feature_standardizer_keeps_numpys_bits_on_ordinary_columns():
    rng = np.random.default_rng(3)
    for rows, cols in ((1, 1), (2, 3), (17, 5), (300, 9)):
        x = rng.standard_normal((rows, cols)) * rng.uniform(1e-3, 1e6, cols)
        mean, std = feature_standardizer(x)
        assert mean.tobytes() == x.mean(axis=0).tobytes()
        plain = x.std(axis=0)
        plain[plain == 0.0] = 1.0
        assert std.tobytes() == plain.tobytes()


def test_knn_validates_inputs():
    ds = random_dataset(0)
    with pytest.raises(ValueError, match="k must be"):
        knn_in_subgroup(ds, ds.x[0], SubgroupKey(0, 0), k=0)
    # a fractional or unbounded k fails at the boundary, not in numpy or as
    # a subgroup too small for it
    with pytest.raises(ValueError, match=r"^k must be an integer, got 2\.5$"):
        knn_in_subgroup(ds, ds.x[0], SubgroupKey(0, 0), k=2.5)
    with pytest.raises(ValueError, match=rf"^k must fit in int64, got {10**20}$"):
        knn_in_subgroup(ds, ds.x[0], SubgroupKey(0, 0), k=10**20)
    with pytest.raises(ValueError, match="query"):
        knn_in_subgroup(ds, np.zeros(ds.dim + 1), SubgroupKey(0, 0), k=1)
    no_features = Dataset(np.empty((20, 0)), ds.y[:20], ds.z[:20])
    with pytest.raises(ValueError, match="features must have at least one column, got 0"):
        knn_in_subgroup(no_features, np.empty(0), SubgroupKey(0, 0), k=1)


def full_sort_knn(ds, query, key, k):
    """Sort every member by (distance, index), computed one member at a time."""
    members = subgroup_indices(ds, key)
    ranked = sorted((float(np.sqrt(((ds.x[m] - query) ** 2).sum())), m) for m in members)
    return [m for _, m in ranked[:k]]


@pytest.mark.parametrize("rows_per_block", [None, 3])
@pytest.mark.parametrize("rounded", [False, True])
def test_knn_block_matches_single_queries_and_full_sort(monkeypatch, rows_per_block, rounded):
    ties_at_kth = 0
    for d in (2 if rounded else 4, 7, 9):  # 7 and 9 sit on both sides of 8 features
        ds = random_dataset(21, t=160, d=d)
        if rounded:  # one decimal on a small grid, so distances tie at the k-th place
            ds = Dataset(np.round(ds.x, 1), ds.y, ds.z)
        key = SubgroupKey(1, 0)
        members = subgroup_indices(ds, key)
        if rows_per_block:  # block boundaries then fall inside the 37 queries
            monkeypatch.setattr(neighbors, "_BLOCK_VALUES", rows_per_block * members.size * d)
        queries = ds.x[:37]
        for k in (1, 5, members.size):
            block = knn_in_subgroup(ds, queries, key, k)
            assert block.shape == (37, k)
            for q, row in zip(queries, block):
                np.testing.assert_array_equal(row, knn_in_subgroup(ds, q, key, k))
                np.testing.assert_array_equal(row, full_sort_knn(ds, q, key, k))
                if k < members.size:
                    dist = np.sort(np.sqrt(((ds.x[members] - q) ** 2).sum(axis=1)))
                    ties_at_kth += dist[k - 1] == dist[k]
    assert (ties_at_kth > 0) == rounded


def test_knn_empty_block_and_bad_query_shapes():
    ds = random_dataset(2, t=50, d=3)
    key = SubgroupKey(0, 1)
    out = knn_in_subgroup(ds, np.zeros((0, 3)), key, k=2)
    assert out.shape == (0, 2) and out.dtype == np.int64
    with pytest.raises(ValueError, match="query has shape"):
        knn_in_subgroup(ds, np.zeros((2, 2, 3)), key, k=2)
    with pytest.raises(ValueError, match="query has shape"):
        knn_in_subgroup(ds, np.zeros((4, 2)), key, k=2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_knn_rejects_nonfinite_query_or_features(bad):
    ds = random_dataset(4, t=40, d=2)
    key = SubgroupKey(1, 1)
    query = ds.x[:3].copy()
    query[1, 0] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        knn_in_subgroup(ds, query, key, k=2)
    x = ds.x.copy()
    x[subgroup_indices(ds, key)[0], 1] = bad
    with pytest.raises(ValueError, match="features must be finite"):
        knn_in_subgroup(Dataset(x, ds.y, ds.z), ds.x[0], key, k=2)


@pytest.mark.parametrize("size", [1e160, 1e300, 1.7e308])
def test_knn_orders_features_whose_squared_gaps_overflow(size):
    # finite gaps of 1e154 or more overflow when squared; the suite turns
    # numpy's overflow warning into an error
    x = np.array([[-1.0, 0.0], [0.1, 0.0], [0.5, 0.1], [0.9, -0.2], [0.0, 1.0]]) * size
    ds = Dataset(x, [0, 1, 1, 1, 1], [0, 0, 0, 0, 0])
    found = knn_in_subgroup(ds, np.array([[0.8, 0.0], [0.0, 0.8]]) * size, SubgroupKey(1, 0), k=2)
    assert found.tolist() == [[3, 2], [4, 1]]


@pytest.mark.parametrize("d", [7, 8, 130])  # one (rows, M, d) block at a time at every d
def test_knn_block_search_peak_memory_stays_far_below_the_full_block(d):
    # 500 queries against 500 members: one (500, 500, d) difference array
    # would take 2 MB per feature; blocks of queries keep the peak near one block.
    stream = np.random.default_rng(5)
    x = stream.standard_normal((1000, d))
    ds = Dataset(x, np.repeat([0, 1], 500), np.zeros(1000, dtype=int))
    full_block_bytes = 500 * 500 * d * 8
    tracemalloc.start()
    try:
        out = knn_in_subgroup(ds, x[500:], SubgroupKey(0, 0), k=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (500, 5)
    assert peak < full_block_bytes / 8, peak / full_block_bytes
