"""From-scratch binary classifiers: a bagged decision forest and a small MLP.

Both train on a feature matrix and 0/1 labels alone; group labels are never
an input, so predictions cannot depend on them except through the features.
Training is deterministic given the spec seed: every tree and every SGD
shuffle draws from a stream derived up front from that seed.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import check_int64, feature_standardizer
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
    seed: int = 0

    def __post_init__(self):
        check_int64(self, "n_trees", "max_depth", "min_leaf", "features_per_split")
        if self.n_trees < 1 or self.max_depth < 1 or self.min_leaf < 1:
            raise ValueError("n_trees, max_depth, and min_leaf must be positive")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be positive when given")


@dataclass(frozen=True)
class MlpSpec:
    """One-hidden-layer MLP hyperparameters."""

    hidden_units: int = 32
    epochs: int = 200
    learning_rate: float = 0.01
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_int64(self, "hidden_units", "epochs", "batch_size")
        if min(self.hidden_units, self.epochs, self.batch_size) < 1:
            raise ValueError("hidden_units, epochs, and batch_size must be positive")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")


@dataclass(frozen=True)
class TrainedModel:
    """A fitted classifier: kind is 'forest' or 'mlp', params are opaque."""

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
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must contain only 0 and 1")
    return x, y.astype(np.int64)


# ---------------------------------------------------------------- forest


def _best_split(xt, y, idx, ones, features, min_leaf):
    """Score every sampled feature's thresholds in one pass; return the best split.

    xt is the (d, N) transposed feature matrix. idx is the node's (d, n)
    array of row indices: row r lists the node's rows sorted by feature r,
    ties in bootstrap order. ones is the node's label-1 count, passed down
    from its parent. Thresholds are midpoints between adjacent distinct
    sorted values. Ties on gain keep the earlier candidate (feature scan
    order, then smaller split position), which makes the tree deterministic.
    Returns (feature, threshold, label-1 count of the left child) or None.
    """
    n = idx.shape[1]
    p = ones / n
    parent = 2.0 * p * (1.0 - p)
    rows = idx[features]
    sv = xt[features[:, None], rows]
    csum = np.cumsum(y[rows], axis=1)
    s = np.arange(min_leaf, n - min_leaf + 1)  # left-side sizes
    lo, hi = min_leaf - 1, n - min_leaf  # columns s - 1
    ones_left = csum[:, lo:hi].astype(np.float64)
    ones_right = float(ones) - ones_left
    pl = ones_left / s
    pr = ones_right / (n - s)
    weighted = (s * 2 * pl * (1 - pl) + (n - s) * 2 * pr * (1 - pr)) / n
    gains = np.where(sv[:, lo:hi] < sv[:, lo + 1:hi + 1], parent - weighted, -np.inf)
    r, at = divmod(int(np.argmax(gains)), s.size)
    if not gains[r, at] > 1e-12:
        return None
    pos = s[at]
    thr = float((sv[r, pos - 1] + sv[r, pos]) / 2.0)
    # The left child is the sorted prefix at or below thr; rounding can put
    # thr on sv[r, pos], so count that prefix rather than trusting pos.
    left = int(np.searchsorted(sv[r], thr, side="right"))
    return int(features[r]), thr, int(csum[r, left - 1]) if left else 0


def _grow_tree(xt, y, idx, ones, spec, m, stream, depth):
    """Grow one node from its sorted (d, n) row indices and label-1 count.

    Each split partitions every row of idx through one boolean mask,
    keeping order, so both children stay sorted by every feature and no
    node sorts again. The label-1 counts come from the split's prefix sum,
    so the leaf tests and the majority label (ties to 0) cost O(1).
    """
    n = idx.shape[1]
    if depth >= spec.max_depth or n < 2 * spec.min_leaf or ones in (0, n):
        return {"leaf": int(2 * ones > n)}
    d = xt.shape[0]
    best = _best_split(xt, y, idx, ones, stream.permutation(d)[:m], spec.min_leaf)
    if best is None:
        return {"leaf": int(2 * ones > n)}
    f, thr, ones_left = best
    goes_left = xt[f, idx] <= thr
    return {
        "feature": f,
        "threshold": thr,
        "left": _grow_tree(xt, y, idx[goes_left].reshape(d, -1), ones_left,
                           spec, m, stream, depth + 1),
        "right": _grow_tree(xt, y, idx[~goes_left].reshape(d, -1), ones - ones_left,
                            spec, m, stream, depth + 1),
    }


def _tree_predict(node, x) -> np.ndarray:
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


def train_forest(x, y, spec: ForestSpec = ForestSpec()) -> TrainedModel:
    """Fit bagged Gini trees; prediction is the majority vote."""
    x, y = _check_xy(x, y)
    d = x.shape[1]
    m = spec.features_per_split if spec.features_per_split is not None else math.isqrt(d - 1) + 1
    if m > d:
        raise ValueError(f"features_per_split={m} exceeds feature count {d}")
    xt = np.ascontiguousarray(x.T)
    trees = []
    for t in range(spec.n_trees):
        # One pre-derived stream per tree, so tree order never matters.
        stream = RngStream(spec.seed, (STREAM_OFFSETS["model-init"], t))
        rows = stream.integers(0, x.shape[0], size=x.shape[0])
        # Sort each feature once per tree; nodes only partition these lists.
        idx = rows[np.argsort(xt[:, rows], axis=1, kind="stable")]
        trees.append(_grow_tree(xt, y, idx, int(y[rows].sum()), spec, m, stream, 0))
    return TrainedModel(kind="forest", dim=d, params={"trees": trees})


# ---------------------------------------------------------------- mlp


def _sigmoid(s: np.ndarray) -> np.ndarray:
    # exp(-|s|) cannot overflow, and -|s| is exact, so each side of the
    # where is bit for bit the usual split formula.
    e = np.exp(-np.abs(s))
    return np.where(s >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def init_mlp_params(dim: int, hidden: int, stream: RngStream) -> dict[str, np.ndarray]:
    """He-scaled Gaussian weights, zero biases."""
    return {
        "W1": stream.standard_normal((dim, hidden)) * math.sqrt(2.0 / dim),
        "b1": np.zeros(hidden),
        "w2": stream.standard_normal(hidden) / math.sqrt(hidden),
        "b2": np.zeros(1),
    }


def _mlp_grads(params: dict[str, np.ndarray], xb: np.ndarray, yb: np.ndarray):
    """Output logits and mean cross-entropy gradients for every weight.

    Works on one model (xb of shape (B, d)) or a stack of models (every
    array with a leading model axis, xb of shape (A, B, d)); each stacked
    slice gets the same products and element-wise steps as a single model.
    """
    a = xb @ params["W1"] + params["b1"][..., None, :]
    h = np.maximum(a, 0.0)
    s = (h @ params["w2"][..., None])[..., 0] + params["b2"]
    coef = (_sigmoid(s) - yb) / xb.shape[-2]
    da = (coef[..., None] * params["w2"][..., None, :]) * (a > 0)
    grads = {
        "W1": xb.swapaxes(-1, -2) @ da,
        "b1": da.sum(axis=-2),
        "w2": (h.swapaxes(-1, -2) @ coef[..., None])[..., 0],
        "b2": coef.sum(axis=-1, keepdims=True),
    }
    return s, grads


def mlp_loss_and_grads(params: dict[str, np.ndarray], xb: np.ndarray, yb: np.ndarray):
    """Mean binary cross-entropy on logits, plus gradients for every weight.

    The loss is written as softplus(s) - y*s, which is exact and avoids
    overflow for large |s|.
    """
    s, grads = _mlp_grads(params, xb, yb)
    return float(np.mean(np.logaddexp(0.0, s) - yb * s)), grads


def train_mlps(xs, ys, specs) -> list[TrainedModel]:
    """Train one MLP per (x, y, spec) in a single stacked SGD loop.

    Mini-batch SGD on one rectified hidden layer with a sigmoid output.
    Each dataset's inputs are z-scored with its own training statistics;
    the same transform is stored on its model and applied at predict time.
    The datasets must share one shape, and the specs may differ only in
    seed. Each model draws its initial weights and its shuffled row order
    from its own seed, so each comes out exactly as if it were trained alone.
    """
    data = [_check_xy(x, y) for x, y in zip(xs, ys, strict=True)]
    specs = list(specs)
    if len(specs) != len(data):
        raise ValueError(f"got {len(specs)} specs for {len(data)} datasets")
    if not data:
        raise ValueError("no datasets to train on")
    shapes = sorted({x.shape for x, _ in data})
    if len(shapes) > 1:
        raise ValueError(f"datasets must share one shape, got {shapes}")
    for f in dataclasses.fields(MlpSpec):
        values = {getattr(spec, f.name) for spec in specs}
        if f.name != "seed" and len(values) > 1:
            raise ValueError(
                f"specs may differ only in seed, got {f.name} values {sorted(values)}")
    spec = specs[0]
    n, d = shapes[0]
    scalers = [feature_standardizer(x) for x, _ in data]
    xz = np.stack([(x - mean) / std for (x, _), (mean, std) in zip(data, scalers)])
    yf = np.stack([y for _, y in data]).astype(np.float64)

    inits = [init_mlp_params(d, spec.hidden_units,
                             RngStream(s.seed, (STREAM_OFFSETS["model-init"],))) for s in specs]
    params = {key: np.stack([init[key] for init in inits]) for key in inits[0]}
    shuffles = [RngStream(s.seed, (STREAM_OFFSETS["batch-shuffle"],)) for s in specs]
    models = np.arange(len(data))[:, None]
    for _ in range(spec.epochs):
        order = np.stack([shuffle.permutation(n) for shuffle in shuffles])
        for start in range(0, n, spec.batch_size):
            batch = order[:, start:start + spec.batch_size]
            _, grads = _mlp_grads(params, xz[models, batch], yf[models, batch])
            for key, grad in grads.items():
                params[key] -= spec.learning_rate * grad
    return [
        TrainedModel(kind="mlp", dim=d, params={
            **{key: value[i].copy() for key, value in params.items()},
            "mean": mean, "std": std,
        })
        for i, (mean, std) in enumerate(scalers)
    ]


def train_mlp(x, y, spec: MlpSpec = MlpSpec()) -> TrainedModel:
    """Fit one MLP; the one-dataset case of `train_mlps`."""
    return train_mlps([x], [y], [spec])[0]


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
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    if model.kind == "forest":
        votes = np.zeros(x.shape[0])
        for tree in model.params["trees"]:
            votes += _tree_predict(tree, x)
        return (votes / len(model.params["trees"]) >= 0.5).astype(np.int64)
    if model.kind == "mlp":
        p = model.params
        xs = (x - p["mean"]) / p["std"]
        h = np.maximum(xs @ p["W1"] + p["b1"], 0.0)
        s = h @ p["w2"] + p["b2"][0]
        if not np.isfinite(s).all():
            raise ValueError("mlp weights diverged to a non-finite output; lower mlp.learning_rate")
        return (s >= 0.0).astype(np.int64)
    raise ValueError(f"unknown model kind {model.kind!r}")

