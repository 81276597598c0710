"""From-scratch binary classifiers: a bagged decision forest and a small MLP.

Both train on a feature matrix and 0/1 labels alone; group labels are never
an input, so predictions cannot depend on them except through the features.
Training is deterministic given the spec seed: every tree and every SGD
shuffle draws from a stream derived up front from that seed.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .data import feature_standardizer
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
    if y.shape != (x.shape[0],):
        raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must contain only 0 and 1")
    return x, y.astype(np.int64)


# ---------------------------------------------------------------- forest


def _gini(ones: float, total: float) -> float:
    if total == 0:
        return 0.0
    p = ones / total
    return 2.0 * p * (1.0 - p)


def _majority(labels: np.ndarray) -> int:
    # Ties go to label 0 for determinism.
    return int(np.sum(labels == 1) > np.sum(labels == 0))


def _best_split(x, y, rows, features, min_leaf):
    """Scan candidate thresholds on each feature; return the best Gini gain.

    Thresholds are midpoints between adjacent distinct sorted values. Ties on
    gain keep the earlier candidate (feature scan order, then smaller split
    position), which makes the tree deterministic.
    """
    n = rows.size
    parent = _gini(float(np.sum(y[rows] == 1)), float(n))
    best = None  # (gain, feature, threshold)
    for f in features:
        vals = x[rows, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y[rows][order]
        csum = np.cumsum(sy)
        s = np.arange(1, n)  # left-side sizes
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
            thr = (sv[pos - 1] + sv[pos]) / 2.0
            best = (float(gains[at]), int(f), float(thr))
    return best


def _grow_tree(x, y, rows, spec, m, stream, depth):
    labels = y[rows]
    if (
        depth >= spec.max_depth
        or rows.size < 2 * spec.min_leaf
        or labels.min() == labels.max()
    ):
        return {"leaf": _majority(labels)}
    d = x.shape[1]
    features = stream.gen.permutation(d)[:m]
    best = _best_split(x, y, rows, features, spec.min_leaf)
    if best is None:
        return {"leaf": _majority(labels)}
    _, f, thr = best
    left_mask = x[rows, f] <= thr
    return {
        "feature": f,
        "threshold": thr,
        "left": _grow_tree(x, y, rows[left_mask], spec, m, stream, depth + 1),
        "right": _grow_tree(x, y, rows[~left_mask], spec, m, stream, depth + 1),
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
    trees = []
    for t in range(spec.n_trees):
        # One pre-derived stream per tree, so tree order never matters.
        stream = RngStream(spec.seed, (STREAM_OFFSETS["model-init"], t))
        rows = stream.gen.integers(0, x.shape[0], size=x.shape[0])
        trees.append(_grow_tree(x, y, rows, spec, m, stream, 0))
    return TrainedModel(kind="forest", dim=d, params={"trees": trees})


# ---------------------------------------------------------------- mlp


def _sigmoid(s: np.ndarray) -> np.ndarray:
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    e = np.exp(s[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def init_mlp_params(dim: int, hidden: int, stream: RngStream) -> dict[str, np.ndarray]:
    """He-scaled Gaussian weights, zero biases."""
    return {
        "W1": stream.gen.standard_normal((dim, hidden)) * math.sqrt(2.0 / dim),
        "b1": np.zeros(hidden),
        "w2": stream.gen.standard_normal(hidden) / math.sqrt(hidden),
        "b2": np.zeros(1),
    }


def mlp_loss_and_grads(params: dict[str, np.ndarray], xb: np.ndarray, yb: np.ndarray):
    """Mean binary cross-entropy on logits, plus gradients for every weight.

    The loss is written as softplus(s) - y*s, which is exact and avoids
    overflow for large |s|.
    """
    a = xb @ params["W1"] + params["b1"]
    h = np.maximum(a, 0.0)
    s = h @ params["w2"] + params["b2"][0]
    loss = float(np.mean(np.logaddexp(0.0, s) - yb * s))
    coef = (_sigmoid(s) - yb) / xb.shape[0]
    da = (coef[:, None] * params["w2"][None, :]) * (a > 0)
    grads = {
        "W1": xb.T @ da,
        "b1": da.sum(axis=0),
        "w2": h.T @ coef,
        "b2": np.array([coef.sum()]),
    }
    return loss, grads


def train_mlp(x, y, spec: MlpSpec = MlpSpec()) -> TrainedModel:
    """Mini-batch SGD on one rectified hidden layer with a sigmoid output.

    Inputs are z-scored with training-set statistics; the same transform is
    stored on the model and applied at predict time.
    """
    x, y = _check_xy(x, y)
    mean, std = feature_standardizer(x)
    xs = (x - mean) / std
    yf = y.astype(np.float64)

    params = init_mlp_params(x.shape[1], spec.hidden_units,
                             RngStream(spec.seed, (STREAM_OFFSETS["model-init"],)))
    shuffle = RngStream(spec.seed, (STREAM_OFFSETS["batch-shuffle"],))
    n = xs.shape[0]
    for _ in range(spec.epochs):
        order = shuffle.gen.permutation(n)
        for start in range(0, n, spec.batch_size):
            batch = order[start:start + spec.batch_size]
            _, grads = mlp_loss_and_grads(params, xs[batch], yf[batch])
            for key in params:
                params[key] = params[key] - spec.learning_rate * grads[key]
    params["mean"] = mean
    params["std"] = std
    return TrainedModel(kind="mlp", dim=x.shape[1], params=params)


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
        return (s >= 0.0).astype(np.int64)
    raise ValueError(f"unknown model kind {model.kind!r}")


def model_to_json(model: TrainedModel) -> str:
    """Serialize a model to JSON with a fixed field order."""
    if model.kind == "forest":
        payload = {"trees": model.params["trees"]}
    elif model.kind == "mlp":
        payload = {key: model.params[key].tolist()
                   for key in ("W1", "b1", "w2", "b2", "mean", "std")}
    else:
        raise ValueError(f"unknown model kind {model.kind!r}")
    return json.dumps({"kind": model.kind, "dim": model.dim, "params": payload})


def model_from_json(text: str) -> TrainedModel:
    blob = json.loads(text)
    kind, dim, payload = blob["kind"], int(blob["dim"]), blob["params"]
    if kind == "forest":
        params: dict[str, Any] = {"trees": payload["trees"]}
    elif kind == "mlp":
        params = {key: np.asarray(payload[key], dtype=np.float64)
                  for key in ("W1", "b1", "w2", "b2", "mean", "std")}
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return TrainedModel(kind=kind, dim=dim, params=params)
