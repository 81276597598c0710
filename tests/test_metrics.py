import numpy as np
import pytest

from sgmix import Dataset, accuracy, dp_gap, evaluate, fairness_score
from sgmix.metrics import EvalResult

from conftest import forest_model


# ---------------------------------------------------------------- accuracy


def test_accuracy_hand_cases():
    assert accuracy([1, 0, 1, 1], [1, 1, 1, 0]) == 0.5
    assert accuracy([0, 1], [0, 1]) == 1.0
    assert accuracy([0, 1], [1, 0]) == 0.0
    assert accuracy([1, 1, 1, 0], [1, 1, 1, 1]) == 0.75


def test_accuracy_validates():
    with pytest.raises(ValueError, match="length"):
        accuracy([1, 0], [1])
    with pytest.raises(ValueError, match="empty"):
        accuracy([], [])
    with pytest.raises(ValueError, match="only 0 and 1"):
        accuracy([2, 0], [1, 0])


# ---------------------------------------------------------------- dp gap


def test_dp_gap_hand_cases():
    # group 0 predicted positive half the time, group 1 always: gap -0.5
    assert dp_gap([1, 0, 1, 1], [0, 0, 1, 1]) == -0.5
    assert dp_gap([1, 1, 1, 0], [0, 0, 1, 1]) == 0.5
    assert dp_gap([1, 1, 0, 0], [0, 1, 0, 1]) == 0.0
    assert dp_gap([1, 1, 0, 0], [0, 0, 1, 1]) == 1.0
    assert dp_gap([0, 0, 1, 1], [0, 0, 1, 1]) == -1.0


def test_dp_gap_antisymmetric_in_group_relabeling():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        preds = rng.integers(0, 2, size=n)
        groups = rng.integers(0, 2, size=n)
        if groups.min() == groups.max():
            continue
        assert dp_gap(preds, 1 - groups) == pytest.approx(-dp_gap(preds, groups))


def test_dp_gap_bounded():
    rng = np.random.default_rng(1)
    for _ in range(300):
        preds = rng.integers(0, 2, size=20)
        groups = np.concatenate([np.zeros(10, dtype=int), np.ones(10, dtype=int)])
        assert -1.0 <= dp_gap(preds, groups) <= 1.0


def test_dp_gap_requires_both_groups():
    with pytest.raises(ValueError, match="undefined DP gap: group z=1 is empty"):
        dp_gap([1, 0], [0, 0])
    with pytest.raises(ValueError, match="undefined DP gap: group z=0 is empty"):
        dp_gap([1, 0], [1, 1])


# ---------------------------------------------------------------- fairness


def test_fairness_score_hand_cases():
    assert fairness_score([1, 1, 0, 0], [0, 1, 0, 1]) == 1.0  # gap 0
    assert fairness_score([1, 1, 0, 0], [0, 0, 1, 1]) == 0.0  # gap +1
    assert fairness_score([0, 0, 1, 1], [0, 0, 1, 1]) == 0.0  # gap -1
    assert fairness_score([1, 0, 0, 0], [0, 0, 1, 1]) == 0.5  # gap +1/2
    assert fairness_score([1, 0, 1, 1], [0, 0, 1, 1]) == 0.5  # gap -1/2
    assert fairness_score([1, 1, 1, 0], [0, 0, 1, 1]) == pytest.approx(0.5)


def test_constant_predictor_is_perfectly_fair():
    preds = np.ones(8, dtype=int)
    groups = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    assert fairness_score(preds, groups) == 1.0


# ---------------------------------------------------------------- evaluate


def stump_model():
    # single tree: positive iff first feature exceeds zero
    tree = {"feature": 0, "threshold": 0.0, "left": {"leaf": 0}, "right": {"leaf": 1}}
    return forest_model([tree], 2)


def test_evaluate_hand_built_six_samples():
    # stump predicts [1, 0, 1, 0, 1, 0]; labels [1, 0, 0, 0, 1, 1]
    test = Dataset(
        [[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [-2.0, 0.0], [3.0, 0.0], [-3.0, 0.0]],
        [1, 0, 0, 0, 1, 1],
        [0, 0, 0, 1, 1, 1],
    )
    result = evaluate(stump_model(), test)
    assert result.accuracy == pytest.approx(4 / 6)
    # group 0 positive rate 2/3, group 1 positive rate 1/3
    assert result.dp_gap_signed == pytest.approx(1 / 3)
    assert result.fairness == pytest.approx(2 / 3)


def test_evaluate_perfect_predictor():
    test = Dataset([[1.0, 9.0], [-1.0, 9.0], [4.0, 9.0], [-4.0, 9.0]], [1, 0, 1, 0], [0, 1, 1, 0])
    result = evaluate(stump_model(), test)
    assert result.accuracy == 1.0
    assert result.dp_gap_signed == 0.0
    assert result.fairness == 1.0


def test_eval_result_consistency_enforced():
    EvalResult(accuracy=0.5, dp_gap_signed=-0.25, fairness=0.75)
    with pytest.raises(ValueError, match="fairness"):
        EvalResult(accuracy=0.5, dp_gap_signed=-0.25, fairness=0.9)


def test_fairness_in_unit_interval_property():
    rng = np.random.default_rng(2)
    for _ in range(200):
        preds = rng.integers(0, 2, size=30)
        groups = np.concatenate([np.zeros(15, dtype=int), np.ones(15, dtype=int)])
        f = fairness_score(preds, groups)
        assert 0.0 <= f <= 1.0
        assert f == 1.0 - abs(dp_gap(preds, groups))
