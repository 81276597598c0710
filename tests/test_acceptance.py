"""End-to-end acceptance gate.

Each test prints one `[criterion NN] name: PASS/FAIL` line (run pytest with -s
to see them) and then asserts, so a red test still reports its measured
numbers. The three directional benchmarks (05, 06, 07) share one five-replicate
benchmark run on the `unbalanced-groups` counts with the group shift at pi/6
to the class shift, because at the preset's pi/2 a group-blind baseline is
already fair up to sampling noise and leaves no parity gap to close.
"""
import math

import numpy as np
import pytest

from sgmix import (
    CsvSchema,
    Dataset,
    ExperimentConfig,
    ForestSpec,
    FsgmConfig,
    ScenarioConfig,
    ShiftSpec,
    accuracy,
    balanced_test_config,
    dp_gap,
    emit_results,
    evaluate,
    fairness_score,
    fsgm_augment,
    gen_conditional_gaussian,
    mix_features,
    mix_group,
    mix_label,
    predict,
    preset_scenario,
    run_experiment,
    run_method,
    shift_vectors,
    subgroup_indices,
    train_forest,
    train_mlp,
)
from sgmix.models import MlpSpec, init_mlp_params, mlp_loss_and_grads
from sgmix.rng import RngStream
from sgmix.synth import SCENARIO_NAMES

from conftest import STANDIN_FEATURES

N_CASES = 10_000


def report(number: int, name: str, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else f"FAIL ({detail})"
    print(f"\n[criterion {number:02d}] {name}: {verdict}")
    assert ok, f"criterion {number:02d} {name}: {detail}"


# ------------------------------------------------------------ criterion 1


def test_mixup_algebra():
    rng = np.random.default_rng(101)
    failures = []

    a = rng.standard_normal((N_CASES, 6))
    b = rng.standard_normal((N_CASES, 6))
    lam = rng.uniform(size=N_CASES)
    for i in range(N_CASES):
        if not np.array_equal(mix_features(a[i], b[i], 0.0), a[i]):
            failures.append("endpoint lam=0")
            break
        if not np.array_equal(mix_features(a[i], b[i], 1.0), b[i]):
            failures.append("endpoint lam=1")
            break

    for i in range(N_CASES):
        mixed = mix_features(a[i], b[i], lam[i])
        lo = np.minimum(a[i], b[i]) - 1e-12
        hi = np.maximum(a[i], b[i]) + 1e-12
        if not ((mixed >= lo).all() and (mixed <= hi).all()):
            failures.append(f"hull violated at case {i}")
            break

    # nearest-parent rule: for differing labels the new label is the
    # source's exactly when lam < 1/2
    for i in range(N_CASES):
        y_new = mix_label(0, 1, lam[i])
        if (y_new == 0) != (lam[i] < 0.5):
            failures.append(f"label rule at lam={lam[i]}")
            break
        if mix_group(0, 1, lam[i]) != y_new:
            failures.append("group rule diverged from label rule")
            break

    # lambda sharing: one source at 0 and k targets, so each emitted row
    # recovers its batch weight as x_new / x_target
    targets = np.array([6.0, 7.0, 8.0, 9.0, 10.0])
    x = [[0.0]] + [[t] for t in targets]
    ds = Dataset(x, [0, 1, 1, 1, 1, 1], [0] * 6)
    cfg = FsgmConfig(pairs=(((0, 0), (1, 0)),), new_count=N_CASES, k=5, seed=102)
    produced = fsgm_augment(ds, cfg).produced.x[:, 0]
    lams = produced.reshape(-1, 5) / targets
    if not np.allclose(lams, lams[:, :1], atol=1e-12):
        failures.append("lambda not shared within a batch")

    report(1, "mixup algebra", not failures, "; ".join(failures) or "ok")


# ------------------------------------------------------------ criterion 2


def test_dp_gap_oracles():
    fixtures = [
        # (predictions, groups, expected signed gap)
        ([1, 0, 1, 1], [0, 0, 1, 1], -0.5),
        ([1, 1, 1, 0], [0, 0, 1, 1], 0.5),
        ([1, 1, 0, 0], [0, 0, 1, 1], 1.0),
        ([0, 0, 1, 1], [0, 0, 1, 1], -1.0),
        ([1, 0, 1, 0], [0, 1, 0, 1], 1.0),
        ([1, 1, 1, 1], [0, 1, 0, 1], 0.0),
        ([0, 0, 0, 0], [0, 0, 0, 1], 0.0),
        ([1, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1], 1 / 3),
        ([1, 1, 0, 1, 0, 0], [0, 0, 0, 1, 1, 1], 1 / 3),
        ([0, 1, 1, 1, 1, 0], [0, 0, 1, 1, 1, 1], -0.25),
        ([0, 0, 1, 1, 1, 0], [0, 0, 0, 1, 1, 1], -1 / 3),
    ]
    bad = []
    for preds, groups, expected in fixtures:
        got = dp_gap(preds, groups)
        if not math.isclose(got, expected, abs_tol=1e-12):
            bad.append(f"{preds}/{groups}: got {got}, want {expected}")

    rng = np.random.default_rng(201)
    for value in (0, 1):
        groups = rng.integers(0, 2, size=50)
        groups[:2] = (0, 1)
        if fairness_score(np.full(50, value), groups) != 1.0:
            bad.append(f"constant predictor {value} not perfectly fair")

    for _ in range(1000):
        n = int(rng.integers(2, 60))
        preds = rng.integers(0, 2, size=n)
        groups = rng.integers(0, 2, size=n)
        if groups.min() == groups.max():
            continue
        if not math.isclose(dp_gap(preds, 1 - groups), -dp_gap(preds, groups),
                            abs_tol=1e-12):
            bad.append("antisymmetry violated")
            break

    report(2, "demographic-parity oracles", not bad, "; ".join(bad) or "ok")


# ------------------------------------------------------------ criterion 3


def test_generator_fidelity():
    worst = []
    for name in SCENARIO_NAMES:
        shifts = preset_scenario(name).shifts
        b, c = shift_vectors(shifts)
        config = ScenarioConfig(
            counts=np.full((2, 2), N_CASES), shifts=shifts, seed=301 + hash(name) % 100
        )
        ds = gen_conditional_gaussian(config)
        for key_y in (0, 1):
            for key_z in (0, 1):
                rows = ds.x[subgroup_indices(ds, (key_y, key_z))]
                mean_err = float(np.abs(rows.mean(axis=0) - (b[key_y] + c[key_z])).max())
                var_err = float(np.abs(rows.var(axis=0, ddof=1) - 1.0).max())
                worst.append((f"{name} (y={key_y}, z={key_z})", mean_err, var_err))
    failing = [w for w in worst if w[1] > 0.1 or w[2] > 0.1]
    peak = max(worst, key=lambda w: max(w[1], w[2]))
    report(
        3, "generator fidelity", not failing,
        f"worst mean err {peak[1]:.4f}, var err {peak[2]:.4f} at {peak[0]}",
    )


# ------------------------------------------------------------ criterion 4


def test_training_budget_parity(benchmark_table):
    problems = []
    for name in SCENARIO_NAMES:
        train = gen_conditional_gaussian(preset_scenario(name, seed=401))
        config = ExperimentConfig(
            scenario=name, forest=ForestSpec(n_trees=2),
            pairs=(((0, 0), (1, 0)), ((1, 0), (0, 0))),
        )
        for method in ("original", "fsgm", "vanilla-mixup", "group-swap"):
            run = run_method(train, method, "forest", config, seed=402, alpha=1.0)
            if len(run.train_data) != 2 * len(train):
                problems.append(f"{name}/{method}: {len(run.train_data)} rows")
    # and the benchmark runs themselves must have trained on 2T = 440 rows
    sizes = {row.train_size for row in benchmark_table.rows}
    if sizes != {440}:
        problems.append(f"benchmark train sizes {sizes}, expected {{440}}")
    report(4, "training budget parity", not problems, "; ".join(problems) or "ok")


# ----------------------------------------------- criteria 5-7 shared run
# The unbalanced-groups counts run at angle pi/6, the confounded geometry of
# the underrepresented-subgroup preset, since at the preset's pi/2 the class
# boundary ignores the group and the baseline sits at the metric's noise floor.


@pytest.fixture(scope="module")
def benchmark_table():
    config = ExperimentConfig(
        scenario="unbalanced-groups",
        methods=("original", "fsgm", "vanilla-mixup", "group-swap"),
        models=("forest",),
        replicates=5,
        seed=0,
        shifts=ShiftSpec(angle=math.pi / 6),
    )
    return run_experiment(config)


def method_means(table, method):
    rows = [r for r in table.rows if r.method == method and r.model == "forest"]
    assert len(rows) == 5, f"{method}: expected 5 replicates, got {len(rows)}"
    acc = float(np.mean([r.accuracy for r in rows]))
    fair = float(np.mean([r.fairness for r in rows]))
    return acc, fair


def test_fairness_gain_on_unbalanced_groups(benchmark_table):
    orig_acc, orig_fair = method_means(benchmark_table, "original")
    fsgm_acc, fsgm_fair = method_means(benchmark_table, "fsgm")
    orig_gap = float(np.mean(
        [r.dp_gap_signed for r in benchmark_table.rows if r.method == "original"]
    ))
    # precondition: without a parity gap to close, the comparison measures noise
    has_gap = orig_fair <= 0.9
    ok = has_gap and fsgm_fair > orig_fair and fsgm_acc >= orig_acc - 0.03
    report(
        5, "subgroup mixup beats original on fairness", ok,
        f"original fairness {orig_fair:.4f} (need <= 0.9; signed gap {orig_gap:+.4f}); "
        f"fairness fsgm {fsgm_fair:.4f} vs original {orig_fair:.4f}; "
        f"accuracy fsgm {fsgm_acc:.4f} vs floor {orig_acc - 0.03:.4f}",
    )


# Known red: group-swap copies rows with the group bit flipped, and the models
# never see the group column, so it trains on bootstrap-like (x, y) rows and
# tracks `original`. README "Known-failing acceptance checks" gives the cause.
def test_group_swap_fairness_accuracy_tradeoff(benchmark_table):
    swap_acc, swap_fair = method_means(benchmark_table, "group-swap")
    ok = swap_fair >= 0.9 and swap_acc <= 0.65
    report(
        6, "group swap trades accuracy for fairness", ok,
        f"fairness {swap_fair:.4f} (need >= 0.9), accuracy {swap_acc:.4f} (need <= 0.65)",
    )


def test_vanilla_mixup_does_not_beat_subgroup_mixup(benchmark_table):
    _, fsgm_fair = method_means(benchmark_table, "fsgm")
    _, vanilla_fair = method_means(benchmark_table, "vanilla-mixup")
    ok = vanilla_fair <= fsgm_fair
    report(
        7, "vanilla mixup does not out-fair subgroup mixup", ok,
        f"vanilla {vanilla_fair:.4f} vs fsgm {fsgm_fair:.4f}",
    )


# ------------------------------------------------------------ criterion 8


def test_model_sanity():
    problems = []

    shifts = ShiftSpec(class_shift_magnitude=3.0)
    train = gen_conditional_gaussian(
        ScenarioConfig(counts=np.full((2, 2), 200), shifts=shifts, seed=801)
    )
    test = gen_conditional_gaussian(balanced_test_config(shifts, seed=802))
    forest = train_forest(train.x, train.y)
    forest_acc = accuracy(predict(forest, test.x), test.y)
    if forest_acc < 0.95:
        problems.append(f"forest held-out accuracy {forest_acc:.4f} < 0.95")

    rng = np.random.default_rng(803)
    eps = 1e-6
    worst_rel = 0.0
    for _ in range(100):
        d, h, n = (int(rng.integers(2, 6)) for _ in range(3))
        params = init_mlp_params(d, h, RngStream(int(rng.integers(1 << 30)), (5,)))
        xb = rng.standard_normal((n, d))
        yb = rng.integers(0, 2, size=n).astype(float)
        _, grads = mlp_loss_and_grads(params, xb, yb)
        for key, value in params.items():
            flat = np.asarray(value, dtype=float).reshape(-1)
            numeric = np.zeros_like(flat)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up, _ = mlp_loss_and_grads(params, xb, yb)
                flat[i] = orig - eps
                down, _ = mlp_loss_and_grads(params, xb, yb)
                flat[i] = orig
                numeric[i] = (up - down) / (2 * eps)
            analytic = np.asarray(grads[key]).reshape(-1)
            rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-8)
            worst_rel = max(worst_rel, float(rel))
    if worst_rel > 1e-4:
        problems.append(f"gradient relative error {worst_rel:.2e} > 1e-4")

    base = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    x = np.tile(base, (25, 1)) + np.random.default_rng(804).normal(0, 0.05, (100, 2))
    y = np.tile([0, 1, 1, 0], 25)
    mlp = train_mlp(x, y, MlpSpec())
    xor_acc = accuracy(predict(mlp, x), y)
    if xor_acc < 0.95:
        problems.append(f"XOR training accuracy {xor_acc:.4f} < 0.95")

    report(
        8, "model sanity", not problems,
        "; ".join(problems)
        or f"forest {forest_acc:.4f}, grad err {worst_rel:.2e}, xor {xor_acc:.4f}",
    )


# ------------------------------------------------------------ criterion 9


def test_deterministic_results_csv(tmp_path):
    config = ExperimentConfig(
        scenario="unbalanced-groups",
        methods=("original", "fsgm"),
        models=("forest",),
        replicates=2,
        alpha_grid=(0.5, 1.0),
        seed=7,
    )
    paths = []
    for run_index in (0, 1):
        path = tmp_path / f"results_{run_index}.csv"
        emit_results(run_experiment(config), path)
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    report(
        9, "byte-identical repeat runs", first == second,
        f"{len(first)} vs {len(second)} bytes, equal={first == second}",
    )
    assert first.startswith(b"method,model,replicate,alpha,")


# ------------------------------------------------------------ criterion 10


def test_csv_case_study(standin_path, standin_schema):
    config = ExperimentConfig(
        csv_path=str(standin_path),
        csv_schema=standin_schema,
        methods=("original", "fsgm"),
        models=("forest",),
        replicates=5,
        seed=0,
    )
    table = run_experiment(config)
    ok_completion = not table.errors and len(table.rows) == 10
    orig_acc, orig_fair = method_means(table, "original")
    fsgm_acc, fsgm_fair = method_means(table, "fsgm")
    ok = ok_completion and fsgm_fair >= orig_fair and (orig_acc - fsgm_acc) <= 0.05
    report(
        10, "csv case study", ok,
        f"errors={len(table.errors)}; fairness fsgm {fsgm_fair:.4f} vs original "
        f"{orig_fair:.4f}; accuracy drop {orig_acc - fsgm_acc:.4f} (limit 0.05)",
    )
