import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import sgmix.models
from sgmix import ForestSpec, MlpSpec, predict, train_forest, train_mlp
from sgmix.cli import config_from_settings
from sgmix.data import feature_standardizer
from sgmix.models import (
    TrainedModel,
    _mlp_grads,
    _sigmoid,
    _split_views,
    init_mlp_params,
    mlp_loss_and_grads,
    train_mlps,
)
from sgmix.rng import STREAM_OFFSETS, RngStream
from sgmix.tabular import load_config, load_csv

from conftest import forest_model, tree_dicts

BENCH_SCHEMA = Path(__file__).resolve().parents[1] / "perfbench" / "admissions.cfg"


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
    model = train_forest(x, y, ForestSpec(n_trees=25, min_leaf=1), 1)
    np.testing.assert_array_equal(predict(model, x), y)


def test_forest_generalizes_on_separated_clusters():
    x, y = separated_data(2)
    xt, yt = separated_data(3)
    model = train_forest(x, y, ForestSpec(n_trees=30))
    assert np.mean(predict(model, xt) == yt) >= 0.95


def test_hand_built_stump_predictions():
    tree = {"feature": 1, "threshold": 0.5, "left": {"leaf": 0}, "right": {"leaf": 1}}
    model = forest_model([tree], 2)
    x = np.array([[9.0, 0.4], [9.0, 0.5], [9.0, 0.6], [-9.0, 2.0]])
    # x <= threshold goes left
    np.testing.assert_array_equal(predict(model, x), [0, 0, 1, 1])


def tree_depth(node):
    if "leaf" in node:
        return 0
    return 1 + max(tree_depth(node["left"]), tree_depth(node["right"]))


def test_forest_respects_max_depth():
    x, y = separated_data(4, n=300, d=5, margin=0.3)  # noisy, forces deep growth
    spec = ForestSpec(n_trees=10, max_depth=3, min_leaf=1)
    model = train_forest(x, y, spec, 2)
    assert all(tree_depth(t) <= 3 for t in tree_dicts(model))


def test_forest_depth_is_the_deepest_grown_leaf_not_max_depth():
    """predict descends params["depth"] levels, so a huge max_depth on
    shallow trees must cost only the levels the trees have."""
    x, y = separated_data(12, n=120)
    spec = ForestSpec(n_trees=5, max_depth=10**9)
    for label in (0, 1):
        model = train_forest(x, np.full(120, label), spec)
        assert model.params["depth"] == 0
        np.testing.assert_array_equal(predict(model, x), np.full(120, label))
    model = train_forest(x, y, spec)
    assert model.params["depth"] == max(tree_depth(tree) for tree in tree_dicts(model)) > 0


def test_forest_deterministic():
    x, y = separated_data(5)
    a = train_forest(x, y, ForestSpec(n_trees=8), 7)
    b = train_forest(x, y, ForestSpec(n_trees=8), 7)
    # One positive row: a tree whose bootstrap missed it is a one-row leaf,
    # and the trees after it keep their child rows in the forest's table.
    one = train_forest(np.arange(12).reshape(6, 2), np.eye(6, dtype=int)[1],
                       ForestSpec(n_trees=8), 7)
    sizes = np.diff(one.params["trees"], append=len(one.params["child"]))
    assert 1 in sizes and sizes.max() > 1, sizes
    # The table is exactly forest_model's layout of its own trees.
    for model, same in ((a, b), (a, forest_model(tree_dicts(a), a.dim)),
                        (one, forest_model(tree_dicts(one), one.dim))):
        assert list(same.params) == list(model.params)
        for key, value in model.params.items():
            assert np.asarray(value).dtype == np.asarray(same.params[key]).dtype, key
            assert np.asarray(value).tobytes() == np.asarray(same.params[key]).tobytes(), key
    c = train_forest(x, y, ForestSpec(n_trees=8), 8)
    xt, _ = separated_data(6, margin=0.0)
    assert not np.array_equal(predict(a, xt), predict(c, xt)) or tree_dicts(a) != tree_dicts(c)


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
        with np.errstate(over="ignore"):
            mid = (sv[:-1] + sv[1:]) / 2.0
        valid = (sv[:-1] <= mid) & (mid < sv[1:]) & (s >= min_leaf) & (n - s >= min_leaf)
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
            best = (float(gains[at]), int(f), float(mid[s[at] - 1]))
    return best


def _ref_grow_tree(x, y, rows, spec, m, stream, depth, no_split):
    labels = y[rows]
    if depth >= spec.max_depth or rows.size < 2 * spec.min_leaf or labels.min() == labels.max():
        return {"leaf": _ref_majority(labels)}
    features = stream.permutation(x.shape[1])[:m]
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


def reference_forest(x, y, spec, seed, no_split):
    """Per-node, per-feature argsort trees with the same RNG draws as
    train_forest, as tree_dicts reads them."""
    d = x.shape[1]
    m = spec.features_per_split if spec.features_per_split is not None else math.isqrt(d - 1) + 1
    trees = []
    for t in range(spec.n_trees):
        stream = RngStream(seed, (STREAM_OFFSETS["model-init"], t))
        rows = stream.integers(0, x.shape[0], size=x.shape[0])
        trees.append(_ref_grow_tree(x, y, rows, spec, m, stream, 0, no_split))
    return trees


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
    that candidate would send every row left; the split search skips it."""
    x = np.column_stack([np.repeat([np.nextafter(1.0, 0.0), 1.0], 20), np.arange(40.0),
                         np.zeros(40), np.arange(40.0) % 3])
    return x, np.repeat([0, 1], 20)


def bootstrap_ties_data():
    """Twelve rows with 2-3 distinct values per column and mixed labels, so
    every bootstrap repeats rows whose values tie with other rows."""
    i = np.arange(12)
    x = np.column_stack([i % 2, i % 3, i // 4, 2 * i % 3]).astype(float)
    return x, np.array([0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0, 0])


@pytest.mark.parametrize("max_depth", [1, 2, 3, 8])
@pytest.mark.parametrize("features_per_split", [None, 4])
@pytest.mark.parametrize("min_leaf", [1, 2, 3, 5, 30])
def test_forest_matches_per_node_sort_reference(min_leaf, features_per_split, max_depth):
    no_split = []
    for seed, (x, y) in enumerate([tied_data(0), tied_data(1), tied_data(2),
                                   midpoint_rounding_data(), bootstrap_ties_data()]):
        spec = ForestSpec(n_trees=6, max_depth=max_depth, min_leaf=min_leaf,
                          features_per_split=features_per_split)
        model = train_forest(x, y, spec, seed)
        assert tree_dicts(model) == reference_forest(x, y, spec, seed, no_split)
    # Depths 1 and 2 and min_leaf 3 and 30 cover nodes narrower than the
    # min_leaf - 1 edge cuts; such shallow or coarse trees often end every
    # impure node by depth or size before a split search can come up empty.
    if max_depth >= 3 and min_leaf in (1, 2, 5):
        assert no_split  # some impure nodes had no valid split


def test_every_split_search_sees_each_drawn_row_once_weighted_by_its_draws(monkeypatch):
    """At every node, each index row lists the node's rows once, sorted by
    its feature, and their draw counts and label weights add up to the
    weighted size and label-1 count the node was given."""
    real = sgmix.models._best_split
    repeats = []

    def checked(xt, weights, idx, n, ones, features, min_leaf):
        rows = set(idx[0].tolist())
        for f, row in enumerate(idx):
            assert len(set(row.tolist())) == row.size and set(row.tolist()) == rows
            assert (np.diff(xt[f].take(row)) >= 0).all()
        assert weights[0].take(idx[0]).sum() == n
        assert weights[1].take(idx[0]).sum() == ones
        repeats.append(idx.shape[1] < n)
        return real(xt, weights, idx, n, ones, features, min_leaf)

    monkeypatch.setattr("sgmix.models._best_split", checked)
    for seed, (x, y) in enumerate([tied_data(0), bootstrap_ties_data()]):
        spec = ForestSpec(n_trees=6, min_leaf=1)
        model = train_forest(x, y, spec, seed)
        assert tree_dicts(model) == reference_forest(x, y, spec, seed, [])
    assert any(repeats) and not all(repeats)  # some nodes held a row drawn twice


def leaf_depths(node, depth=0):
    if "leaf" in node:
        return [depth]
    return leaf_depths(node["left"], depth + 1) + leaf_depths(node["right"], depth + 1)


@pytest.mark.parametrize("max_depth,min_leaf", [(1, 1), (2, 1), (8, 3), (8, 30)])
def test_forest_leaf_children_match_per_node_sort_reference(max_depth, min_leaf):
    """A child that the leaf test ends is emitted without a partition: by
    depth every child (depth 1) or grandchild (depth 2) is such a leaf, and a
    large min_leaf puts children under 2 * min_leaf rows."""
    depths = []
    for seed, (x, y) in enumerate([tied_data(0), tied_data(1), bootstrap_ties_data()]):
        spec = ForestSpec(n_trees=6, max_depth=max_depth, min_leaf=min_leaf)
        model = train_forest(x, y, spec, seed)
        assert tree_dicts(model) == reference_forest(x, y, spec, seed, [])
        depths += [d for tree in tree_dicts(model) for d in leaf_depths(tree)]
    assert max(depths) >= min(max_depth, 2)  # some trees split, and twice where they may
    if max_depth == 8:
        assert min(depths) < max_depth  # some children stop early on size or purity


@pytest.mark.parametrize("seed", [0, 1])
def test_forest_matches_per_node_sort_reference_on_bundled_csv(seed, standin_path):
    settings = {**load_config(BENCH_SCHEMA), "csv.path": standin_path, "experiment.out": "-"}
    config, _ = config_from_settings(settings)
    data = load_csv(config.csv_path, config.csv_schema)
    x, y = data.x[:300], data.y[:300]
    spec = ForestSpec(n_trees=4)
    assert tree_dicts(train_forest(x, y, spec, seed)) == reference_forest(x, y, spec, seed, [])


def overflow_data():
    """Features near +-1.7e308: the midpoint of two same-sign values there
    overflows to +-inf. Labels change at both overflowing gaps."""
    big = np.repeat([-1.7e308, -1.6e308, 1.6e308, 1.7e308], 10)
    return np.column_stack([big, np.arange(40.0) % 3]), np.repeat([0, 1, 1, 0], 10)


def subnormal_data():
    """Adjacent subnormals 5e-324 and 1e-323 (and their negatives): the
    positive pair's midpoint rounds up onto 1e-323, the negative pair's
    onto -1e-323, which is still a valid threshold."""
    tiny = np.repeat([-1e-323, -5e-324, 5e-324, 1e-323], 10)
    return np.column_stack([tiny, np.arange(40.0) % 3]), np.repeat([0, 1, 0, 1], 10)


@pytest.mark.parametrize("data", [overflow_data, subnormal_data])
def test_every_split_sends_left_exactly_the_rows_at_or_below_its_threshold(data):
    """Replay each tree's bootstrap: both children of every split are
    nonempty, the threshold is finite, and every leaf holds the majority
    label of the rows that reach it."""
    x, y = data()
    spec = ForestSpec(n_trees=8, max_depth=8, min_leaf=1, features_per_split=2)
    model = train_forest(x, y, spec, 3)
    assert tree_dicts(model) == reference_forest(x, y, spec, 3, [])
    splits = 0
    for t, tree in enumerate(tree_dicts(model)):
        stream = RngStream(3, (STREAM_OFFSETS["model-init"], t))
        stack = [(tree, stream.integers(0, x.shape[0], size=x.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if "leaf" in node:
                assert node["leaf"] == _ref_majority(y[rows])
                continue
            left = x[rows, node["feature"]] <= node["threshold"]
            assert math.isfinite(node["threshold"]) and 0 < left.sum() < rows.size
            stack += [(node["left"], rows[left]), (node["right"], rows[~left])]
            splits += 1
    assert splits > 0


def split_node(x, y, counts=None):
    """_best_split's inputs for the node holding every row of x, each drawn counts[i] times."""
    x = np.asarray(x, dtype=np.float64).reshape(len(y), -1)
    counts = np.ones(len(y)) if counts is None else np.asarray(counts, dtype=np.float64)
    weights = counts * np.stack([np.ones(len(y)), np.asarray(y, dtype=np.float64)])
    idx = np.argsort(x.T, axis=1, kind="stable")
    return np.ascontiguousarray(x.T), weights, idx, int(counts.sum()), int(weights[1].sum())


def masked_split(xt, weights, idx, n, ones, features, min_leaf):
    """Score every candidate with _best_split's Gini expression, then mask every
    invalid one before the argmax. Returns (unmasked winner's rule breaks, split)."""
    parent = 2.0 * (ones / n) * (1.0 - ones / n)
    candidates = []
    for f in features:
        below, above = xt[f].take(idx[f][:-1]), xt[f].take(idx[f][1:])
        s, ones_left = weights.take(idx[f][:-1], axis=1).cumsum(axis=1)
        pl, pr = ones_left / s, (ones - ones_left) / (n - s)
        gains = parent - ((s + s) * pl * (1.0 - pl) + ((n - s) + (n - s)) * pr * (1.0 - pr)) / n
        with np.errstate(over="ignore"):
            mid = (below + above) / 2.0
        for j in range(s.size):
            breaks = {"tie": below[j] == above[j],
                      "midpoint": below[j] != above[j] and not below[j] <= mid[j] < above[j],
                      "min_leaf": min(s[j], n - s[j]) < min_leaf}
            candidates.append((gains[j], {k for k, v in breaks.items() if v},
                               (int(f), float(mid[j]), int(s[j]), int(ones_left[j]))))
    top = max(gain for gain, _, _ in candidates)
    winner_breaks = next(b for gain, b, _ in candidates if gain == top)
    valid = [(gain, split) for gain, b, split in candidates if not b]
    best = max((gain for gain, _ in valid), default=-np.inf)
    if not best > 1e-12:
        return winner_breaks, None
    return winner_breaks, next(split for gain, split in valid if gain == best)


ONE = np.nextafter(1.0, 0.0)
SPLIT_RULE_NODES = {
    # the cut between the two 1.0s would split the labels perfectly
    "tie": ([0.0, 1.0, 1.0, 2.0, 3.0], [0, 0, 1, 1, 1], None, 1, {"tie"}),
    "head min_leaf": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0, 1, 1, 1, 1, 1], None, 2, {"min_leaf"}),
    "tail min_leaf": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0, 0, 0, 0, 0, 1], None, 2, {"min_leaf"}),
    # row 0 is drawn twice: the head cut leaves 2 weighted rows, which min_leaf 3 rejects
    "weighted min_leaf": ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0, 1, 1, 1, 1, 1], [2, 1, 1, 1, 1, 1],
                          3, {"min_leaf"}),
    # the midpoint of 1 - 2**-53 and 1.0 rounds onto 1.0
    "midpoint rounds": ([0.0, ONE, 1.0, 2.0, 3.0], [0, 0, 1, 1, 1], None, 1, {"midpoint"}),
    "midpoint overflows": ([0.0, 1.6e308, 1.7e308, 1.7e308, 1.75e308], [0, 0, 1, 0, 1], None, 1,
                           {"midpoint"}),
    # the tied cuts are the only ones that leave 2 rows on each side
    "every cut invalid": ([0.0, 0.0, 0.0, 1.0], [1, 1, 0, 1], None, 2, {"tie"}),
    "all values tied": ([4.0, 4.0, 4.0, 4.0], [0, 1, 0, 1], None, 1, {"tie"}),
}


@pytest.mark.parametrize("case", sorted(SPLIT_RULE_NODES))
def test_best_split_masks_a_winner_that_breaks_a_rule(case):
    """Each node's unmasked best cut breaks the named rule, so the split
    search masks every invalid candidate and takes the next best, as a
    scorer that masks before its argmax does."""
    x, y, counts, min_leaf, rule = SPLIT_RULE_NODES[case]
    node = split_node(x, y, counts)
    winner_breaks, expected = masked_split(*node, np.array([0]), min_leaf)
    assert winner_breaks == rule
    assert sgmix.models._best_split(*node, np.array([0]), min_leaf) == expected
    assert (expected is None) == case.startswith(("every", "all"))


def test_best_split_matches_masked_scorer_on_random_nodes():
    """Small tied, rounded and huge-valued nodes at every min_leaf that can
    bind, over one and several sampled features, with repeated rows."""
    rng = np.random.default_rng(24)
    columns = [lambda n: rng.integers(0, 3, n).astype(float),
               lambda n: np.round(rng.standard_normal(n), 1),
               lambda n: rng.choice([-1.7e308, -1.6e308, 1.6e308, 1.7e308], n),
               lambda n: rng.choice([0.0, ONE, 1.0, 5e-324, 1e-323], n)]
    seen = set()
    for _ in range(400):
        n, d = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        x = np.column_stack([columns[rng.integers(0, 4)](n) for _ in range(d)])
        y = rng.integers(0, 2, n)
        y[:2] = (0, 1)
        counts = rng.integers(1, 4, n)
        node = split_node(x, y, counts)
        features, min_leaf = rng.permutation(d)[:rng.integers(1, d + 1)], int(rng.integers(1, 6))
        winner_breaks, expected = masked_split(*node, features, min_leaf)
        seen |= winner_breaks
        assert sgmix.models._best_split(*node, features, min_leaf) == expected
    assert seen == {"tie", "midpoint", "min_leaf"}


def test_forest_matches_per_node_sort_reference_on_random_configurations():
    """Random sizes, feature counts, tie patterns, huge values, min_leaf and
    depths: every tree equals the per-node sort reference."""
    rng = np.random.default_rng(2024)
    columns = [lambda n: rng.standard_normal(n),
               lambda n: np.round(rng.standard_normal(n), 1),
               lambda n: rng.integers(0, 3, n).astype(float),
               lambda n: rng.choice([-1.7e308, -1.6e308, 1.6e308, 1.7e308, 0.0], n)]
    for _ in range(150):
        n, d = int(rng.integers(2, 121)), int(rng.integers(1, 7))
        x = np.column_stack([columns[rng.integers(0, 4)](n) for _ in range(d)])
        y = rng.integers(0, 2, n)
        spec = ForestSpec(n_trees=2, max_depth=int(rng.integers(1, 13)),
                          min_leaf=int(rng.integers(1, 31)),
                          features_per_split=int(rng.integers(1, d + 1)))
        seed = int(rng.integers(0, 1000))
        assert tree_dicts(train_forest(x, y, spec, seed)) == reference_forest(x, y, spec, seed, [])


@pytest.mark.parametrize("d", [1, 2, 7, 10, 64])
def test_feature_draws_match_one_permutation_per_search(d):
    """The block draws yield exactly what one permutation(d) call per split
    search gives, over more than two blocks, and leave the stream where as
    many calls would after each whole block."""
    assert 150 > 2 * sgmix.models._DRAW_BLOCK
    for m in sorted({1, math.isqrt(d - 1) + 1, d}):
        path = (STREAM_OFFSETS["model-init"], m)
        stream, reference = RngStream(d, path), RngStream(d, path)
        draws = sgmix.models._feature_draws(stream, d, m)
        for _ in range(150):
            got = next(draws)
            assert got.shape == (m,)
            np.testing.assert_array_equal(got, reference.permutation(d)[:m])
        for _ in range(-150 % sgmix.models._DRAW_BLOCK):  # drain to the block's end
            np.testing.assert_array_equal(next(draws), reference.permutation(d)[:m])
        assert stream.integers(0, 2**62) == reference.integers(0, 2**62)


def test_forest_input_validation():
    with pytest.raises(ValueError, match="empty training set"):
        train_forest(np.zeros((0, 2)), np.zeros(0))
    with pytest.raises(ValueError, match="only 0 and 1"):
        train_forest(np.zeros((2, 2)), np.array([0, 2]))
    with pytest.raises(ValueError, match="does not match"):
        train_forest(np.zeros((2, 2)), np.array([0, 1, 1]))
    with pytest.raises(ValueError, match="^features must be a 2-D matrix, got ndim=1$"):
        train_forest(np.zeros(4), np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError, match="^features_per_split=4 exceeds feature count 3$"):
        train_forest(np.zeros((4, 3)), np.array([0, 1, 0, 1]), ForestSpec(features_per_split=4))


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
    model = train_mlp(x, y, MlpSpec())
    assert np.mean(predict(model, x) == y) >= 0.95


def test_mlp_constant_labels():
    x = np.random.default_rng(1).standard_normal((40, 3))
    model = train_mlp(x, np.ones(40, dtype=int), MlpSpec(epochs=20))
    np.testing.assert_array_equal(predict(model, x), np.ones(40, dtype=int))


def test_mlp_deterministic():
    x, y = separated_data(7, n=80)
    a = train_mlp(x, y, MlpSpec(epochs=10), 3)
    b = train_mlp(x, y, MlpSpec(epochs=10), 3)
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


def _ref_sigmoid(s):
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _ref_grads(params, xb, yb):
    a = xb @ params["W1"] + params["b1"]
    h = np.maximum(a, 0.0)
    s = h @ params["w2"] + params["b2"][0]
    coef = (_ref_sigmoid(s) - yb) / xb.shape[0]
    da = (coef[:, None] * params["w2"][None, :]) * (a > 0)
    return {"W1": xb.T @ da, "b1": da.sum(axis=0), "w2": h.T @ coef,
            "b2": np.array([coef.sum()])}


def reference_mlp(x, y, spec, seed):
    """One model at a time on 2-D batches, with copy-on-update weights."""
    mean, std = feature_standardizer(x)
    xs = (x - mean) / std
    yf = y.astype(np.float64)
    params = init_mlp_params(x.shape[1], spec.hidden_units,
                             RngStream(seed, (STREAM_OFFSETS["model-init"],)))
    shuffle = RngStream(seed, (STREAM_OFFSETS["batch-shuffle"],))
    n = xs.shape[0]
    for _ in range(spec.epochs):
        order = shuffle.permutation(n)
        for start in range(0, n, spec.batch_size):
            batch = order[start:start + spec.batch_size]
            grads = _ref_grads(params, xs[batch], yf[batch])
            for key in params:
                params[key] = params[key] - spec.learning_rate * grads[key]
    return {**params, "mean": mean, "std": std}


def assert_same_params(got, expected):
    assert list(got) == list(expected)
    for key, value in expected.items():
        assert got[key].shape == value.shape and got[key].dtype == value.dtype, key
        assert np.array_equal(got[key], value), key
        # array_equal treats -0.0 as 0.0; the bytes also pin each zero's sign.
        assert got[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("shape", [(64,), (4, 32)], ids=["1d", "stacked"])
def test_sigmoid_matches_masked_reference_bytes(shape):
    edges = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e-300, -1e-300])
    s = np.random.default_rng(50).standard_normal(int(np.prod(shape))) * 40.0
    s[:edges.size] = edges
    s = s.reshape(shape)
    got, expected = _sigmoid(s), _ref_sigmoid(s)
    assert got.shape == expected.shape and got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


# Seeds per stacked model: mixed, and repeated the way a cell's alpha grid
# repeats its seed.
STACK_SEEDS = {1: [21], 4: [21, 5, 21, 8], 10: [3, 3, 3, 9, 9, 1, 4, 3, 9, 0]}


@pytest.mark.parametrize("count", sorted(STACK_SEEDS))
def test_stacked_mlps_match_one_at_a_time_reference(count):
    data = [separated_data(30 + i, n=101, d=4, margin=0.5 + i) for i in range(count)]
    data = [(x * (i + 1) + i, y) for i, (x, y) in enumerate(data)]
    # Over 101 rows: 16 leaves a last batch of 5, 25 a last batch of 1, and
    # 500 puts every row in one batch.
    for batch_size in (16, 1, 25, 500):
        spec = MlpSpec(hidden_units=7, epochs=4, batch_size=batch_size)
        seeds = STACK_SEEDS[count]
        models = train_mlps([x for x, _ in data], [y for _, y in data], spec, seeds)
        assert len(models) == count
        for model, (x, y), seed in zip(models, data, seeds):
            assert model.kind == "mlp" and model.dim == 4
            assert_same_params(model.params, reference_mlp(x, y, spec, seed))
        assert_same_params(train_mlp(*data[0], spec, seeds[0]).params, models[0].params)


def test_stacked_grads_into_shared_buffer_match_one_model_bytes():
    rng = np.random.default_rng(60)
    count, batch, d, hidden = 3, 9, 4, 5
    inits = [init_mlp_params(d, hidden, RngStream(seed, (5,))) for seed in range(count)]
    params = {key: np.stack([init[key] for init in inits]) for key in inits[0]}
    xb = rng.standard_normal((count, batch, d))
    yb = rng.integers(0, 2, size=(count, batch)).astype(np.float64)
    # One (A, P) buffer, seen per key through row-slice views, as train_mlps uses it.
    flat = np.full((count, sum(value[0].size for value in params.values())), np.nan)
    out = _split_views(flat, {key: value.shape[1:] for key, value in params.items()})
    assert all(np.shares_memory(view, flat) for view in out.values())
    s = _mlp_grads(params, xb, yb, out)
    for i in range(count):
        one = {key: value[i] for key, value in params.items()}
        loss, grads = mlp_loss_and_grads(one, xb[i], yb[i])
        _, again = mlp_loss_and_grads(one, xb[i], yb[i])
        assert math.isfinite(loss)
        for key, grad in grads.items():
            assert out[key][i].tobytes() == grad.tobytes(), key
            assert not np.shares_memory(grad, one[key]), key
            for other in again.values():
                assert not np.shares_memory(grad, other), key
        logits = _mlp_grads(one, xb[i], yb[i], {key: np.empty_like(v) for key, v in one.items()})
        assert s[i].tobytes() == logits.tobytes()


def test_stacked_mlps_return_weights_that_share_no_memory():
    data = [separated_data(70 + i, n=40, d=3) for i in range(3)]
    models = train_mlps([x for x, _ in data], [y for _, y in data], MlpSpec(epochs=2), [0, 1, 0])
    arrays = [value for model in models for key, value in model.params.items()
              if key not in ("mean", "std")]
    assert len(arrays) == 12
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.shares_memory(a, b)


def test_stacked_mlps_peak_memory_stays_near_the_stacked_features():
    # A grid fit's shape. Gathering a whole epoch's shuffled rows at once
    # would keep two more feature-sized copies alive and peak near 3.7x.
    data = [separated_data(80 + i, n=916, d=10) for i in range(10)]
    feature_bytes = sum(x.nbytes for x, _ in data)
    xs, ys = [x for x, _ in data], [y for _, y in data]
    tracemalloc.start()
    try:
        train_mlps(xs, ys, MlpSpec(epochs=2), range(10))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * feature_bytes, peak / feature_bytes


def test_diverged_mlp_stack_stops_stepping_once_every_weight_is_nan(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(1)
        return _mlp_grads(*args)

    monkeypatch.setattr("sgmix.models._mlp_grads", counting)
    x, y = separated_data(17, n=40)
    # at this rate every weight is NaN after the first epoch
    spec = MlpSpec(epochs=200, batch_size=16, learning_rate=1e300)
    steps_per_epoch = math.ceil(40 / spec.batch_size)
    model = train_mlp(x, y, spec)
    assert 0 < len(calls) <= 2 * steps_per_epoch, len(calls)
    with pytest.raises(ValueError, match="diverged"):
        predict(model, x)
    calls.clear()
    train_mlp(x, y, MlpSpec(epochs=20, batch_size=16))
    assert len(calls) == 20 * steps_per_epoch


def test_stacked_mlps_reject_mismatched_or_missing_datasets():
    (xa, ya), (xb, yb) = separated_data(40, n=30), separated_data(41, n=31)
    spec = MlpSpec(epochs=1)
    with pytest.raises(ValueError, match="share one shape"):
        train_mlps([xa, xb], [ya, yb], spec, [0, 0])
    with pytest.raises(ValueError, match="no datasets"):
        train_mlps([], [], spec, [])
    with pytest.raises(ValueError, match="got 1 seeds for 2 datasets"):
        train_mlps([xa, xa], [ya, ya], spec, [0])
    with pytest.raises(ValueError, match="got 3 seeds for 2 datasets"):
        train_mlps([xa, xa], [ya, ya], spec, [0, 1, 2])


# ---------------------------------------------------------------- predict


def _ref_tree_predict(node, x) -> np.ndarray:
    """One tree's labels, walked node by node with each node's rows."""
    out = np.empty(x.shape[0], dtype=np.int64)
    stack = [(node, np.arange(x.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if "leaf" in nd:
            out[idx] = nd["leaf"]
            continue
        mask = x[idx, nd["feature"]] <= nd["threshold"]
        stack.append((nd["left"], idx[mask]))
        stack.append((nd["right"], idx[~mask]))
    return out


def assert_predict_matches_per_tree_walk(model, x):
    """predict gives each tree's vote, summed, and its majority, as walking
    every tree alone does."""
    x = np.asarray(x, dtype=np.float64)
    trees = tree_dicts(model)
    votes = sum(_ref_tree_predict(tree, x) for tree in trees)
    np.testing.assert_array_equal(sgmix.models._forest_votes(model.params, x), votes)
    expected = (votes / len(trees) >= 0.5).astype(np.int64)
    assert predict(model, x).tobytes() == expected.tobytes()


def thresholds_of(node):
    if "leaf" in node:
        return []
    return [(node["feature"], node["threshold"])] + thresholds_of(node["left"]) + thresholds_of(
        node["right"])


@pytest.mark.parametrize("max_depth", range(1, 13))
def test_forest_predict_matches_per_tree_walk_at_every_depth(max_depth):
    x, y = separated_data(30, n=400, d=4, margin=0.3)  # noisy, grows every depth allowed
    model = train_forest(x, y, ForestSpec(n_trees=20, max_depth=max_depth, min_leaf=1), 4)
    assert max(tree_depth(tree) for tree in tree_dicts(model)) == model.params["depth"] == max_depth
    assert_predict_matches_per_tree_walk(model, np.concatenate([x, separated_data(31, d=4)[0]]))


@pytest.mark.parametrize("n_trees", [1, 15, 16, 17, 100])
def test_forest_predict_matches_per_tree_walk_across_block_edges(n_trees):
    """1,024 rows leave 16 trees per block: one short block, one full, one
    full and one tree over, and six full and one short."""
    rows = 1024
    assert sgmix.models._PREDICT_PAIRS // rows == 16
    x, y = separated_data(32, n=200, d=3, margin=0.5)
    model = train_forest(x, y, ForestSpec(n_trees=n_trees), 5)
    assert_predict_matches_per_tree_walk(model, separated_data(33, n=rows, margin=0.5)[0])


def test_forest_predict_matches_per_tree_walk_on_rows_at_thresholds():
    """Rows whose value is a split's threshold, or the next double either
    side of it, on tied features."""
    x, y = tied_data(3)
    model = train_forest(x, y, ForestSpec(n_trees=12, min_leaf=1), 6)
    rng = np.random.default_rng(6)
    cuts = sorted({cut for tree in tree_dicts(model) for cut in thresholds_of(tree)})
    rows = []
    for f, t in cuts:
        for value in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf)):
            row = x[rng.integers(0, len(x))].copy()
            row[f] = value
            rows.append(row)
    assert len(cuts) > 20
    assert_predict_matches_per_tree_walk(model, np.concatenate([x, rows]))


def test_forest_predict_on_single_leaf_trees_and_one_row():
    x, y = separated_data(34, n=60)
    for label in (0, 1):
        model = train_forest(x, np.full(60, label), ForestSpec(n_trees=17))
        assert all("leaf" in tree for tree in tree_dicts(model))
        assert_predict_matches_per_tree_walk(model, x)
        np.testing.assert_array_equal(predict(model, x), np.full(60, label))
    # a tied vote goes to 1
    tied = forest_model([{"leaf": 0}, {"leaf": 1}], 3)
    np.testing.assert_array_equal(predict(tied, x[:2]), [1, 1])
    model = train_forest(x, y, ForestSpec(n_trees=100), 7)
    for row in x[:5]:
        assert_predict_matches_per_tree_walk(model, row[None, :])


def test_forest_predict_on_nonfinite_thresholds():
    """x <= t decides: every row goes left at +inf and right at -inf and
    NaN, at any depth, beside leaves of other depths."""
    def stump(f, t, left=0, right=1):
        return {"feature": f, "threshold": t, "left": {"leaf": left}, "right": {"leaf": right}}

    trees = [stump(0, np.nan), stump(1, np.inf), stump(0, -np.inf),
             {"feature": 1, "threshold": 0.0, "left": stump(0, np.nan, 1, 0),
              "right": {"feature": 0, "threshold": 0.5, "left": {"leaf": 1},
                        "right": stump(1, np.inf, 0, 1)}}]
    x = np.array([[-1.0, -1.0], [0.0, 0.0], [0.5, 2.0], [1.0, 3.0], [-1e308, 1e308]])
    expected = {0: [1] * 5, 1: [0] * 5, 2: [1] * 5, 3: [0, 0, 1, 0, 1]}
    for i, tree in enumerate(trees):
        model = forest_model([tree], 2)
        np.testing.assert_array_equal(predict(model, x), expected[i])
        assert_predict_matches_per_tree_walk(model, x)
    assert_predict_matches_per_tree_walk(forest_model(trees, 2), x)


def test_forest_predict_peak_memory_stays_near_the_features():
    # 20,000 rows leave one tree per block. A per-tree walk
    # (_ref_tree_predict, summing votes) peaks at 1.4x x.nbytes here: the
    # votes, one tree's labels and the row lists of its open nodes. A block
    # of one tree holds a few row-length arrays, about 1.8x. Descending all
    # 100 trees at once would peak near 110x.
    model = train_forest(*separated_data(35, n=300, margin=0.5), ForestSpec(n_trees=100))
    x, _ = separated_data(36, n=20_000, margin=0.5)
    tracemalloc.start()
    try:
        predict(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * x.nbytes, peak / x.nbytes


def test_forest_fit_peak_memory_stays_near_the_finished_forest():
    # The traced peak over the finished params plus x read 6.0-6.5 when the
    # fit kept every node of all 100 trees as a Python tuple until the last
    # tree was grown, and 2.3-2.5 now that each tree's rows become arrays
    # once it is grown (seeds 36-43).
    x, y = separated_data(37, n=600, d=4, margin=0.0)
    tracemalloc.start()
    try:
        model = train_forest(x, y, ForestSpec(n_trees=100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept = x.nbytes + sum(v.nbytes for v in model.params.values() if isinstance(v, np.ndarray))
    assert peak < 4.0 * kept, peak / kept


def test_predict_empty_matrix():
    model = train_forest(*separated_data(9, n=40), ForestSpec(n_trees=3))
    out = predict(model, np.zeros((0, 3)))
    assert out.shape == (0,) and out.dtype == np.int64


def test_predict_dim_mismatch():
    model = train_forest(*separated_data(10, n=40), ForestSpec(n_trees=3))
    with pytest.raises(ValueError, match="expects 3 features"):
        predict(model, np.zeros((2, 5)))
    with pytest.raises(ValueError, match="^features must be a 2-D matrix, got ndim=1$"):
        predict(model, np.zeros(3))


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
    a = train_forest(x, y, ForestSpec(n_trees=5))
    b = train_forest(x, y, ForestSpec(n_trees=5))
    assert tree_dicts(a) == tree_dicts(b)


def test_spec_validation():
    with pytest.raises(ValueError):
        ForestSpec(n_trees=0)
    with pytest.raises(ValueError):
        ForestSpec(features_per_split=0)
    with pytest.raises(ValueError):
        MlpSpec(epochs=0)
    with pytest.raises(ValueError):
        MlpSpec(learning_rate=0.0)
