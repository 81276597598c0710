"""Accuracy, demographic-parity gap, and the derived fairness score.

The DP gap is signed: mean prediction of group 0 minus mean prediction of
group 1. The fairness score is 1 minus its magnitude, so it lives in [0, 1]
with 1 meaning the two groups receive positive predictions at the same rate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .models import TrainedModel, predict


def _binary_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    if arr.size and not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must contain only 0 and 1")
    return arr.astype(np.int64)


def accuracy(predictions, labels) -> float:
    """Fraction of entries where prediction equals label."""
    preds = _binary_array(predictions, "predictions")
    labs = _binary_array(labels, "labels")
    if preds.size != labs.size:
        raise ValueError(f"length mismatch: {preds.size} predictions, {labs.size} labels")
    if preds.size == 0:
        raise ValueError("accuracy of an empty prediction set is undefined")
    return float(np.mean(preds == labs))


def dp_gap(predictions, groups) -> float:
    """Signed demographic-parity gap: mean(pred | z=0) - mean(pred | z=1)."""
    preds = _binary_array(predictions, "predictions")
    grps = _binary_array(groups, "groups")
    if preds.size != grps.size:
        raise ValueError(f"length mismatch: {preds.size} predictions, {grps.size} groups")
    means = []
    for z in (0, 1):
        mask = grps == z
        if not mask.any():
            raise ValueError(f"undefined DP gap: group z={z} is empty")
        means.append(float(np.mean(preds[mask])))
    return means[0] - means[1]


def fairness_score(predictions, groups) -> float:
    """1 - |dp_gap|; 1 means equal positive-prediction rates."""
    return 1.0 - abs(dp_gap(predictions, groups))


@dataclass(frozen=True)
class EvalResult:
    """Test-set metrics for one trained model."""

    accuracy: float
    dp_gap_signed: float
    fairness: float

    def __post_init__(self):
        if abs(self.fairness - (1.0 - abs(self.dp_gap_signed))) > 1e-12:
            raise ValueError("fairness must equal 1 - |dp_gap_signed|")


def evaluate(model: TrainedModel, test: Dataset) -> EvalResult:
    """Accuracy against test labels plus DP gap over the group labels."""
    if len(test) == 0:
        raise ValueError("cannot evaluate on an empty test set")
    preds = predict(model, test.x)
    gap = dp_gap(preds, test.z)
    return EvalResult(
        accuracy=accuracy(preds, test.y),
        dp_gap_signed=gap,
        fairness=1.0 - abs(gap),
    )
