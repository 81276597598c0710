"""From-scratch binary classifiers: a bagged decision forest and a small MLP.

Both train on a feature matrix and 0/1 labels alone; group labels are never
an input, so predictions cannot depend on them except through the features.
Training is deterministic given the seed passed to the fit: every tree and
every SGD shuffle draws from a stream derived up front from that seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import check_finite, check_sizes, feature_standardizer
from .rng import STREAM_OFFSETS, RngStream


@dataclass(frozen=True)
class ForestSpec:
    """Bagged-forest hyperparameters.

    features_per_split=None means ceil(sqrt(d)), resolved at fit time.
    """

    n_trees: int = 100
    max_depth: int = 8
    min_leaf: int = 2
    features_per_split: int | None = None

    def __post_init__(self):
        check_sizes(n_trees=self.n_trees, max_depth=self.max_depth, min_leaf=self.min_leaf,
                    features_per_split=self.features_per_split)


@dataclass(frozen=True)
class MlpSpec:
    """One-hidden-layer MLP hyperparameters."""

    hidden_units: int = 32
    epochs: int = 200
    learning_rate: float = 0.01
    batch_size: int = 32

    def __post_init__(self):
        check_sizes(hidden_units=self.hidden_units, epochs=self.epochs,
                    batch_size=self.batch_size)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")


@dataclass(frozen=True)
class TrainedModel:
    """A fitted classifier: kind is 'forest' or 'mlp'.

    A forest's params are one node table for all its trees: "feature",
    "threshold", "child" and "leaf" hold one entry per node (see _grow_tree),
    "trees" holds each tree's root node, and "depth" is the deepest level any
    leaf reached. An MLP's are its weights "W1", "b1", "w2", "b2" and the
    input scaling "mean" and "std".
    """

    kind: str
    dim: int
    params: dict[str, Any]


def _check_xy(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if x.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix, got ndim={x.ndim}")
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    if x.shape[1] == 0:
        raise ValueError("features must have at least one column, got 0")
    check_finite(x)
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must contain only 0 and 1")
    return x, y.astype(np.int64)


# ---------------------------------------------------------------- forest


def _best_split(xt, weights, idx, n, ones, features, min_leaf):
    """Score every sampled feature's thresholds in one pass; return the best split.

    xt is the (d, N) transposed feature matrix. weights is the float64
    (2, N) array of each row's bootstrap count and its count times its
    label, so a row drawn c times weighs as c copies; every sum of weights
    is an exact integer in float64. idx is the node's (d, u) array of
    distinct row indices: row r lists them sorted by feature r, tied values
    in row order. n and ones are the node's weighted size and label-1
    count, passed down from its parent. Candidate cut j puts the first j + 1
    rows of a feature's order on the left. Thresholds are midpoints t of
    adjacent sorted values below and above, kept only if below <= t <
    above: a cut between equal values, or a midpoint that overflows or
    rounds onto above, is skipped, so the left child is exactly the sorted
    prefix. A cut that leaves either side fewer than min_leaf weighted rows
    is skipped too. Ties on gain keep the earlier candidate (feature scan
    order, then smaller cut), which makes the tree deterministic. A cut
    between two copies of one row would have below == above, so growing
    over distinct rows scores exactly the candidates, with the same bits and
    order, that the repeated rows had.

    Every rule is checked on the unmasked winner first, and the candidates
    are gathered and masked only when it breaks one. That is exact: argmax
    returns the first maximum, masking only lowers gains, and no gain is
    NaN (every side holds a row), so a valid first maximum of the unmasked
    gains is also the first maximum of the masked ones.
    Returns (feature, threshold, left child's weighted size, left child's
    label-1 count) or None.
    """
    p = ones / n
    parent = 2.0 * p * (1.0 - p)
    rows = idx.take(features, axis=0)  # u >= 2: an impure node has two distinct rows
    s, ones_left = weights.take(rows[:, :-1], axis=1).cumsum(axis=2)
    sr = n - s
    # (2s * pl * (1 - pl) + 2sr * pr * (1 - pr)) / n, in that operand order
    # so the gains keep their bits, with no temporaries beyond pl, pr, right.
    pl = ones_left / s
    gains = s + s
    gains *= pl
    np.subtract(1.0, pl, out=pl)
    gains *= pl
    pr = ones - ones_left
    pr /= sr
    right = sr + sr
    right *= pr
    np.subtract(1.0, pr, out=pr)
    right *= pr
    gains += right
    gains /= n
    np.subtract(parent, gains, out=gains)
    r, at = divmod(int(gains.argmax()), s.shape[1])
    col = xt[features[r]]
    b, a = float(col[rows[r, at]]), float(col[rows[r, at + 1]])
    if not (b <= (b + a) / 2.0 < a and s[r, at] >= min_leaf and sr[r, at] >= min_leaf):
        sv = xt.ravel().take(rows + (features * xt.shape[1])[:, None])
        below, above = sv[:, :-1], sv[:, 1:]
        with np.errstate(over="ignore"):
            mid = (below + above) / 2.0
        gains[(below > mid) | (mid >= above) | (s < min_leaf) | (sr < min_leaf)] = -np.inf
        r, at = divmod(int(gains.argmax()), s.shape[1])
        b, a = float(below[r, at]), float(above[r, at])
    if not gains[r, at] > 1e-12:
        return None
    return int(features[r]), (b + a) / 2.0, int(s[r, at]), int(ones_left[r, at])


def _leaf(n, ones, spec, depth, at):
    """Node at's leaf row, of weighted size n with ones label-1 rows, or None if it may split."""
    if depth >= spec.max_depth or n < 2 * spec.min_leaf or ones in (0, n):
        return 0, math.inf, at, int(2 * ones > n)  # majority label, ties to 0
    return None


def _grow_tree(xt, weights, idx, n, ones, spec, draws, depth, nodes, at):
    """Grow node at, which _leaf lets split, into nodes from its sorted (d, u)
    distinct row indices, weighted size and label-1 count; return the depth
    of its deepest leaf.

    nodes holds one (feature, threshold, child, leaf) row per node of this
    tree, its root at row 0. A split appends its two children as adjacent
    rows, the left one at child, and its leaf is 0. A leaf's threshold is
    +inf, which every finite value is at or below, and its child is itself,
    so a row that reaches it stays there.
    draws yields each split search's sampled features, taken in preorder.
    The split gives each child's weighted size and label-1 count, so a
    child that the leaf test (depth, size, purity) ends becomes a leaf at
    once and is never partitioned. Any other child is compressed out of the
    raveled idx through one mask, keeping order, so it stays sorted by every
    feature and no node sorts again. An empty child is a leaf.
    """
    d = xt.shape[0]
    best = _best_split(xt, weights, idx, n, ones, next(draws), spec.min_leaf)
    if best is None:
        nodes[at] = 0, math.inf, at, int(2 * ones > n)
        return depth
    f, thr, n_left, ones_left = best
    c = len(nodes)
    left = _leaf(n_left, ones_left, spec, depth + 1, c)
    right = _leaf(n - n_left, ones - ones_left, spec, depth + 1, c + 1)
    nodes[at] = f, thr, c, 0
    nodes += left, right
    deepest = depth + 1
    if left is None or right is None:
        flat = idx.ravel()
        goes_left = xt[f].take(flat) <= thr
        if left is None:
            deepest = _grow_tree(xt, weights, flat.compress(goes_left).reshape(d, -1), n_left,
                                 ones_left, spec, draws, depth + 1, nodes, c)
        if right is None:
            deepest = max(deepest, _grow_tree(
                xt, weights, flat.compress(~goes_left).reshape(d, -1), n - n_left,
                ones - ones_left, spec, draws, depth + 1, nodes, c + 1))
    return deepest


_DRAW_BLOCK = 32  # permutations drawn per call while a tree grows


def _feature_draws(stream, d, m):
    """Yield stream.permutation(d)[:m] for each successive draw, _DRAW_BLOCK draws at a time.

    permuted shuffles the block's rows one after another with the draws that
    as many permutation(d) calls make, so every yield, and the stream's state
    after each block, is the same. Its rows are drawn whole, so a tree's
    last block may draw past its growth; the tree's stream is not used after.
    """
    rows = np.tile(np.arange(d), (_DRAW_BLOCK, 1))
    while True:
        yield from stream.permuted(rows, axis=1)[:, :m]


_PREDICT_PAIRS = 1 << 14  # tree-row pairs one block of predict descends at once


def _forest_votes(params, x) -> np.ndarray:
    """Each row's count of trees that predict 1.

    Trees descend a block at a time, each block holding as many trees as
    fit _PREDICT_PAIRS tree-row pairs and at least one. A level is a few
    takes over the block's (trees, rows) node indices; a row goes left where
    x <= threshold, so a NaN threshold sends every row right.
    """
    roots, feature, threshold, child, leaf = (
        params[key] for key in ("trees", "feature", "threshold", "child", "leaf"))
    n, d = x.shape
    flat_x, row_start = x.ravel(), np.arange(n) * d
    block = max(1, _PREDICT_PAIRS // n)
    votes = np.zeros(n, dtype=np.int64)
    for start in range(0, len(roots), block):
        node = np.repeat(roots[start:start + block], n).reshape(-1, n)
        for _ in range(params["depth"]):
            goes_left = flat_x.take(feature.take(node) + row_start) <= threshold.take(node)
            node = child.take(node)
            node += ~goes_left
        votes += leaf.take(node).sum(axis=0)
    return votes


def train_forest(x, y, spec: ForestSpec = ForestSpec(), seed: int = 0) -> TrainedModel:
    """Fit bagged Gini trees, each drawn from seed; prediction is the majority vote.

    Each tree grows over the distinct rows its bootstrap drew, each weighted
    by its draw count, and splits exactly as it would over the repeated rows.
    A tree grows as a list of tuple rows (see _grow_tree), which become
    arrays as soon as it is grown, so the fit holds one tree's tuples at a
    time; the params join every tree's arrays into one node table.
    """
    x, y = _check_xy(x, y)
    d = x.shape[1]
    m = spec.features_per_split if spec.features_per_split is not None else math.isqrt(d - 1) + 1
    if m > d:
        raise ValueError(f"features_per_split={m} exceeds feature count {d}")
    n = x.shape[0]
    xt = np.ascontiguousarray(x.T)
    ones_and_y = np.stack([np.ones(n), y.astype(np.float64)])
    # Sort each feature once per fit, ties in row order. A tree's (d, u)
    # index keeps each row its bootstrap drew, once, in that order, so it is
    # sorted too; nodes only partition these lists.
    flat_order = np.argsort(xt, axis=1, kind="stable").ravel()
    tables, roots, depth, size = [], [], 0, 0
    for t in range(spec.n_trees):
        # One pre-derived stream per tree, so tree order never matters.
        stream = RngStream(seed, (STREAM_OFFSETS["model-init"], t))
        rows = stream.integers(0, n, size=n)
        counts = np.bincount(rows, minlength=n)
        idx = flat_order.compress((counts > 0).take(flat_order)).reshape(d, -1)
        ones = int(y[rows].sum())
        nodes = [_leaf(n, ones, spec, 0, 0)]
        if nodes[0] is None:
            depth = max(depth, _grow_tree(xt, counts * ones_and_y, idx, n, ones, spec,
                                          _feature_draws(stream, d, m), 0, nodes, 0))
        # Tree-local child rows shift by the tree's first row in the forest's table.
        feature, threshold, child, leaf = zip(*nodes)
        roots.append(size)
        tables.append((np.array(feature, dtype=np.intp), np.array(threshold, dtype=np.float64),
                       np.array(child, dtype=np.intp) + size, np.array(leaf, dtype=np.int64)))
        size += len(nodes)
    feature, threshold, child, leaf = (np.concatenate(column) for column in zip(*tables))
    return TrainedModel(kind="forest", dim=d, params={
        "trees": np.array(roots, dtype=np.intp), "feature": feature, "threshold": threshold,
        "child": child, "leaf": leaf, "depth": depth})


# ---------------------------------------------------------------- mlp


def _sigmoid(s: np.ndarray) -> np.ndarray:
    """Logistic function of s, as a new array.

    exp(-|s|) cannot overflow, and -|s| is exact, so 1 / (1 + e) where
    s >= 0 and e / (1 + e) elsewhere is bit for bit the usual split formula;
    the numerator is picked first, so 1 + e and the divide run once.
    """
    e = np.exp(-np.abs(s))
    out = np.where(s >= 0, 1.0, e)
    out /= 1.0 + e
    return out


def init_mlp_params(dim: int, hidden: int, stream: RngStream) -> dict[str, np.ndarray]:
    """He-scaled Gaussian weights, zero biases."""
    return {
        "W1": stream.standard_normal((dim, hidden)) * math.sqrt(2.0 / dim),
        "b1": np.zeros(hidden),
        "w2": stream.standard_normal(hidden) / math.sqrt(hidden),
        "b2": np.zeros(1),
    }


def _mlp_grads(params: dict[str, np.ndarray], xb: np.ndarray, yb: np.ndarray,
               out: dict[str, np.ndarray]) -> np.ndarray:
    """Write mean cross-entropy gradients for every weight into out; return the logits.

    Works on one model (xb of shape (B, d)) or a stack of models (every
    array with a leading model axis, xb of shape (A, B, d)); each stacked
    slice gets the same products and element-wise steps as a single model.
    out maps each key of params to a preallocated float64 array of that
    weight's shape; it must share no memory with params, xb or yb, and
    each of its arrays is overwritten in full.
    """
    a = xb @ params["W1"]
    a += params["b1"][..., None, :]
    h = np.maximum(a, 0.0)
    s = (h @ params["w2"][..., None])[..., 0] + params["b2"]
    coef = _sigmoid(s)
    coef -= yb
    coef /= xb.shape[-2]
    da = coef[..., None] * params["w2"][..., None, :]
    da *= a > 0
    np.matmul(xb.swapaxes(-1, -2), da, out=out["W1"])
    da.sum(axis=-2, out=out["b1"])
    np.matmul(h.swapaxes(-1, -2), coef[..., None], out=out["w2"][..., None])
    coef.sum(axis=-1, keepdims=True, out=out["b2"])
    return s


def mlp_loss_and_grads(params: dict[str, np.ndarray], xb: np.ndarray, yb: np.ndarray):
    """Mean binary cross-entropy on logits, plus gradients for every weight.

    The loss is written as softplus(s) - y*s, which is exact and avoids
    overflow for large |s|. The gradients are new arrays.
    """
    grads = {key: np.empty_like(value, dtype=np.float64) for key, value in params.items()}
    s = _mlp_grads(params, xb, yb, grads)
    return float(np.mean(np.logaddexp(0.0, s) - yb * s)), grads


def _split_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Views of an (A, P) buffer as one (A, *shape) array per key, in order."""
    sizes = [math.prod(shape) for shape in shapes.values()]
    parts = np.split(flat, np.cumsum(sizes)[:-1], axis=1)
    return {key: part.reshape(flat.shape[:1] + shape)
            for (key, shape), part in zip(shapes.items(), parts)}


def train_mlps(xs, ys, spec: MlpSpec, seeds) -> list[TrainedModel]:
    """Train one MLP per (x, y, seed) in a single stacked SGD loop.

    Mini-batch SGD on one rectified hidden layer with a sigmoid output.
    Each dataset's inputs are z-scored with its own training statistics;
    the same transform is stored on its model and applied at predict time.
    The datasets must share one shape. Every model takes spec's settings and
    its own seed from seeds, which draws its initial weights and shuffled row
    order, so each comes out exactly as if it were trained alone.

    All A models' weights live in one (A, P) buffer and their gradients in
    another, each seen per key through views, so a step is one gradient
    call and two whole-buffer updates. Each epoch's shuffled orders are
    offset into the stacked rows, so a batch of every model is one take.
    """
    data = [_check_xy(x, y) for x, y in zip(xs, ys, strict=True)]
    seeds = list(seeds)
    if len(seeds) != len(data):
        raise ValueError(f"got {len(seeds)} seeds for {len(data)} datasets")
    if not data:
        raise ValueError("no datasets to train on")
    shapes = sorted({x.shape for x, _ in data})
    if len(shapes) > 1:
        raise ValueError(f"datasets must share one shape, got {shapes}")
    n, d = shapes[0]
    scalers = [feature_standardizer(x) for x, _ in data]
    xz = np.concatenate([(x - mean) / std for (x, _), (mean, std) in zip(data, scalers)])
    yf = np.concatenate([y for _, y in data]).astype(np.float64)

    inits = [init_mlp_params(d, spec.hidden_units,
                             RngStream(seed, (STREAM_OFFSETS["model-init"],))) for seed in seeds]
    keys = {key: value.shape for key, value in inits[0].items()}
    flat = np.stack([np.concatenate([init[key].ravel() for key in keys]) for init in inits])
    grad_flat = np.empty_like(flat)
    params, grads = _split_views(flat, keys), _split_views(grad_flat, keys)
    shuffles = [RngStream(seed, (STREAM_OFFSETS["batch-shuffle"],)) for seed in seeds]
    rows = np.arange(len(data))[:, None] * n
    # A too-large rate overflows the weights to inf and then nan; predict
    # reports that with a ValueError, so numpy need not warn on the way.
    # NaN absorbs every update, so once all weights are NaN, later epochs
    # would change nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(spec.epochs):
            order = np.stack([shuffle.permutation(n) for shuffle in shuffles])
            order += rows
            for start in range(0, n, spec.batch_size):
                batch = order[:, start:start + spec.batch_size]
                _mlp_grads(params, xz.take(batch, axis=0), yf.take(batch), grads)
                grad_flat *= spec.learning_rate
                flat -= grad_flat
            if np.isnan(flat).all():
                break
    return [
        TrainedModel(kind="mlp", dim=d, params={
            **{key: value[i].copy() for key, value in params.items()},
            "mean": mean, "std": std,
        })
        for i, (mean, std) in enumerate(scalers)
    ]


def train_mlp(x, y, spec: MlpSpec = MlpSpec(), seed: int = 0) -> TrainedModel:
    """Fit one MLP; the one-dataset case of `train_mlps`."""
    return train_mlps([x], [y], spec, [seed])[0]


# ---------------------------------------------------------------- shared


def predict(model: TrainedModel, features) -> np.ndarray:
    """Hard 0/1 labels for each input row; pure in (model, features)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be a 2-D matrix, got ndim={x.ndim}")
    if x.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if x.shape[1] != model.dim:
        raise ValueError(f"model expects {model.dim} features, got {x.shape[1]}")
    check_finite(x)
    if model.kind == "forest":
        votes = _forest_votes(model.params, x)
        return (votes / len(model.params["trees"]) >= 0.5).astype(np.int64)
    if model.kind == "mlp":
        p = model.params
        with np.errstate(over="ignore", invalid="ignore"):  # caught just below
            xs = (x - p["mean"]) / p["std"]
            h = np.maximum(xs @ p["W1"] + p["b1"], 0.0)
            s = h @ p["w2"] + p["b2"][0]
        if not np.isfinite(s).all():
            raise ValueError("mlp weights diverged to a non-finite output; lower mlp.learning_rate")
        return (s >= 0.0).astype(np.int64)
    raise ValueError(f"unknown model kind {model.kind!r}")

