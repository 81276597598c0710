import math

import numpy as np
import pytest

from sgmix import ForestSpec, MlpSpec, predict, train_forest, train_mlp
from sgmix.models import TrainedModel, init_mlp_params, mlp_loss_and_grads
from sgmix.rng import STREAM_OFFSETS, RngStream


def separated_data(seed, n=200, d=3, margin=3.0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n)
    x = rng.standard_normal((n, d))
    x[:, 0] += margin * (2 * y - 1)
    return x, y


# ---------------------------------------------------------------- forest


def test_forest_constant_labels_predict_constant():
    x = np.random.default_rng(0).standard_normal((30, 4))
    for label in (0, 1):
        model = train_forest(x, np.full(30, label), ForestSpec(n_trees=5))
        np.testing.assert_array_equal(predict(model, x), np.full(30, label))


def test_forest_memorizes_separable_1d():
    x = np.array([[v] for v in (-3.0, -2.0, -1.0, 1.0, 2.0, 3.0)])
    y = np.array([0, 0, 0, 1, 1, 1])
    model = train_forest(x, y, ForestSpec(n_trees=25, min_leaf=1, seed=1))
    np.testing.assert_array_equal(predict(model, x), y)


def test_forest_generalizes_on_separated_clusters():
    x, y = separated_data(2)
    xt, yt = separated_data(3)
    model = train_forest(x, y, ForestSpec(n_trees=30, seed=0))
    assert np.mean(predict(model, xt) == yt) >= 0.95


def test_hand_built_stump_predictions():
    tree = {"feature": 1, "threshold": 0.5, "left": {"leaf": 0}, "right": {"leaf": 1}}
    model = TrainedModel(kind="forest", dim=2, params={"trees": [tree]})
    x = np.array([[9.0, 0.4], [9.0, 0.5], [9.0, 0.6], [-9.0, 2.0]])
    # x <= threshold goes left
    np.testing.assert_array_equal(predict(model, x), [0, 0, 1, 1])


def tree_depth(node):
    if "leaf" in node:
        return 0
    return 1 + max(tree_depth(node["left"]), tree_depth(node["right"]))


def test_forest_respects_max_depth():
    x, y = separated_data(4, n=300, d=5, margin=0.3)  # noisy, forces deep growth
    spec = ForestSpec(n_trees=10, max_depth=3, min_leaf=1, seed=2)
    model = train_forest(x, y, spec)
    assert all(tree_depth(t) <= 3 for t in model.params["trees"])


def test_forest_deterministic():
    x, y = separated_data(5)
    a = train_forest(x, y, ForestSpec(n_trees=8, seed=7))
    b = train_forest(x, y, ForestSpec(n_trees=8, seed=7))
    assert a.params == b.params
    c = train_forest(x, y, ForestSpec(n_trees=8, seed=8))
    xt, _ = separated_data(6, margin=0.0)
    assert not np.array_equal(predict(a, xt), predict(c, xt)) or a.params != c.params


def _ref_gini(ones, total):
    if total == 0:
        return 0.0
    p = ones / total
    return 2.0 * p * (1.0 - p)


def _ref_majority(labels):
    return int(np.sum(labels == 1) > np.sum(labels == 0))


def _ref_best_split(x, y, rows, features, min_leaf):
    """One feature at a time: argsort the node's values at every node."""
    n = rows.size
    parent = _ref_gini(float(np.sum(y[rows] == 1)), float(n))
    best = None
    for f in features:
        vals = x[rows, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        csum = np.cumsum(y[rows][order])
        s = np.arange(1, n)
        valid = (sv[:-1] < sv[1:]) & (s >= min_leaf) & (n - s >= min_leaf)
        if not valid.any():
            continue
        s = s[valid]
        ones_left = csum[s - 1].astype(np.float64)
        ones_right = float(csum[-1]) - ones_left
        pl = ones_left / s
        pr = ones_right / (n - s)
        weighted = (s * 2 * pl * (1 - pl) + (n - s) * 2 * pr * (1 - pr)) / n
        gains = parent - weighted
        at = int(np.argmax(gains))
        if gains[at] > 1e-12 and (best is None or gains[at] > best[0]):
            pos = s[at]
            best = (float(gains[at]), int(f), float((sv[pos - 1] + sv[pos]) / 2.0))
    return best


def _ref_grow_tree(x, y, rows, spec, m, stream, depth, no_split):
    labels = y[rows]
    if depth >= spec.max_depth or rows.size < 2 * spec.min_leaf or labels.min() == labels.max():
        return {"leaf": _ref_majority(labels)}
    features = stream.gen.permutation(x.shape[1])[:m]
    best = _ref_best_split(x, y, rows, features, spec.min_leaf)
    if best is None:
        no_split.append(rows.size)
        return {"leaf": _ref_majority(labels)}
    _, f, thr = best
    left = x[rows, f] <= thr
    return {
        "feature": f,
        "threshold": thr,
        "left": _ref_grow_tree(x, y, rows[left], spec, m, stream, depth + 1, no_split),
        "right": _ref_grow_tree(x, y, rows[~left], spec, m, stream, depth + 1, no_split),
    }


def reference_forest(x, y, spec, no_split):
    """Per-node, per-feature argsort trees with the same RNG draws as train_forest."""
    d = x.shape[1]
    m = spec.features_per_split if spec.features_per_split is not None else math.isqrt(d - 1) + 1
    trees = []
    for t in range(spec.n_trees):
        stream = RngStream(spec.seed, (STREAM_OFFSETS["model-init"], t))
        rows = stream.gen.integers(0, x.shape[0], size=x.shape[0])
        trees.append(_ref_grow_tree(x, y, rows, spec, m, stream, 0, no_split))
    return TrainedModel(kind="forest", dim=d, params={"trees": trees})


def tied_data(seed, n=160):
    """Heavy ties: a 1-10 decile column, a constant column, a 3-level column,
    a one-decimal column, and a block of identical rows with mixed labels."""
    rng = np.random.default_rng(seed)
    decile = rng.integers(1, 11, size=n).astype(float)
    coarse = rng.integers(0, 3, size=n).astype(float)
    x = np.column_stack([decile, np.full(n, 4.0), coarse, np.round(rng.standard_normal(n), 1)])
    y = (decile + 2 * coarse + 3 * rng.standard_normal(n) > 8).astype(int)
    x[:24] = [11.0, 4.0, 1.0, 0.5]
    y[:24] = np.arange(24) % 2
    return x, y


def midpoint_rounding_data():
    """Adjacent doubles 1 - 2**-53 and 1.0: their midpoint rounds to 1.0, so
    the split sends every row left and the right child is empty."""
    x = np.column_stack([np.repeat([np.nextafter(1.0, 0.0), 1.0], 20), np.arange(40.0),
                         np.zeros(40), np.arange(40.0) % 3])
    return x, np.repeat([0, 1], 20)


@pytest.mark.parametrize("max_depth", [3, 8])
@pytest.mark.parametrize("features_per_split", [None, 4])
@pytest.mark.parametrize("min_leaf", [1, 2, 5])
def test_forest_matches_per_node_sort_reference(min_leaf, features_per_split, max_depth):
    no_split = []
    for seed, (x, y) in enumerate([tied_data(0), tied_data(1), tied_data(2),
                                   midpoint_rounding_data()]):
        spec = ForestSpec(n_trees=6, max_depth=max_depth, min_leaf=min_leaf,
                          features_per_split=features_per_split, seed=seed)
        model = train_forest(x, y, spec)
        reference = reference_forest(x, y, spec, no_split)
        assert model.params == reference.params
    assert no_split  # some impure nodes had no valid split


def test_forest_input_validation():
    with pytest.raises(ValueError, match="empty training set"):
        train_forest(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="only 0 and 1"):
        train_forest(np.zeros((2, 2)), np.array([0, 2]))
    with pytest.raises(ValueError, match="does not match"):
        train_forest(np.zeros((2, 2)), np.array([0, 1, 1]))


def nonfinite_data():
    x, y = separated_data(14, n=40)
    x[3, 0] = np.nan
    x[17, 2] = np.inf
    return x, y


@pytest.mark.parametrize("train", [train_forest, train_mlp])
def test_training_rejects_nonfinite_features(train):
    with pytest.raises(ValueError, match="features must be finite"):
        train(*nonfinite_data())


@pytest.mark.parametrize("train", [train_forest, train_mlp])
def test_training_rejects_zero_feature_columns(train):
    with pytest.raises(ValueError, match="at least one column, got 0"):
        train(np.zeros((5, 0)), [0, 1, 0, 1, 0])


# ---------------------------------------------------------------- mlp


def test_mlp_learns_xor():
    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    x = np.tile(base, (25, 1)) + np.random.default_rng(0).normal(0, 0.05, (100, 2))
    y = np.tile(labels, 25)
    model = train_mlp(x, y, MlpSpec(seed=0))
    assert np.mean(predict(model, x) == y) >= 0.95


def test_mlp_constant_labels():
    x = np.random.default_rng(1).standard_normal((40, 3))
    model = train_mlp(x, np.ones(40, dtype=int), MlpSpec(epochs=20, seed=0))
    np.testing.assert_array_equal(predict(model, x), np.ones(40, dtype=int))


def test_mlp_deterministic():
    x, y = separated_data(7, n=80)
    a = train_mlp(x, y, MlpSpec(epochs=10, seed=3))
    b = train_mlp(x, y, MlpSpec(epochs=10, seed=3))
    for key in a.params:
        np.testing.assert_array_equal(
            np.asarray(a.params[key]), np.asarray(b.params[key])
        )


def test_mlp_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    eps = 1e-6
    for _ in range(10):
        d, h, n = (int(rng.integers(2, 6)) for _ in range(3))
        stream = RngStream(int(rng.integers(1_000_000)), (5,))
        params = init_mlp_params(d, h, stream)
        xb = rng.standard_normal((n, d))
        yb = rng.integers(0, 2, size=n).astype(float)
        _, grads = mlp_loss_and_grads(params, xb, yb)
        for key, value in params.items():
            flat = np.asarray(value, dtype=float).reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                for sign in (1, -1):
                    flat[i] = orig + sign * eps
                    loss, _ = mlp_loss_and_grads(params, xb, yb)
                    numeric[i] += sign * loss
                flat[i] = orig
            numeric /= 2 * eps
            analytic = np.asarray(grads[key]).reshape(-1)
            denom = max(np.linalg.norm(numeric), 1e-8)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-4


# ---------------------------------------------------------------- predict


def test_predict_empty_matrix():
    model = train_forest(*separated_data(9, n=40), ForestSpec(n_trees=3))
    out = predict(model, np.zeros((0, 3)))
    assert out.shape == (0,) and out.dtype == np.int64


def test_predict_dim_mismatch():
    model = train_forest(*separated_data(10, n=40), ForestSpec(n_trees=3))
    with pytest.raises(ValueError, match="expects 3 features"):
        predict(model, np.zeros((2, 5)))


def test_predict_rejects_nonfinite_features():
    x, y = separated_data(15, n=40)
    x_bad, _ = nonfinite_data()
    for model in (train_forest(x, y, ForestSpec(n_trees=3)), train_mlp(x, y, MlpSpec(epochs=2))):
        with pytest.raises(ValueError, match="features must be finite"):
            predict(model, x_bad)


def test_predict_unknown_kind():
    model = TrainedModel(kind="kernel", dim=1, params={})
    with pytest.raises(ValueError, match="unknown model kind"):
        predict(model, np.zeros((1, 1)))


def test_models_ignore_group_column_by_construction():
    # the training API receives only features and class labels, so two
    # datasets agreeing on (x, y) but not z give identical models
    x, y = separated_data(11, n=60)
    z_a = np.zeros(60, dtype=int)
    z_b = np.ones(60, dtype=int)
    assert not np.array_equal(z_a, z_b)
    a = train_forest(x, y, ForestSpec(n_trees=5, seed=0))
    b = train_forest(x, y, ForestSpec(n_trees=5, seed=0))
    assert a.params == b.params


def test_spec_validation():
    with pytest.raises(ValueError):
        ForestSpec(n_trees=0)
    with pytest.raises(ValueError):
        ForestSpec(features_per_split=0)
    with pytest.raises(ValueError):
        MlpSpec(epochs=0)
    with pytest.raises(ValueError):
        MlpSpec(learning_rate=0.0)
