import dataclasses
import itertools
import re
import weakref

import numpy as np
import pytest

from sgmix import (
    CsvSchema,
    Dataset,
    ExperimentConfig,
    ForestSpec,
    FsgmConfig,
    MlpSpec,
    ShiftSpec,
    emit_results,
    evaluate,
    preset_scenario,
    run_experiment,
    run_method,
    subgroup_counts,
)
from sgmix import harness
from sgmix.augment import (
    bootstrap, check_pairs, fsgm_augment, group_swap_augment, vanilla_mixup,
)
from sgmix.data import SubgroupKey
from sgmix.harness import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_PAIRS,
    METHODS,
    RESULTS_HEADER,
    VALIDATION_FRACTION,
    ResultTable,
    alpha_search,
    train_test_split,
)
from sgmix.models import train_forest, train_mlps
from sgmix.neighbors import knn_in_subgroup
from sgmix.rng import STREAM_OFFSETS, derive_seed
from sgmix.tabular import dump_augmented_csv

from conftest import random_dataset

BOTH_WAY_PAIRS = (((0, 0), (1, 0)), ((1, 0), (0, 0)))


def small_config(**overrides):
    base = dict(
        scenario="unbalanced-groups",
        counts=np.array([[10, 30], [10, 30]]),
        methods=("original", "fsgm"),
        models=("forest",),
        replicates=2,
        alpha_grid=(1.0,),
        seed=0,
        k=3,
        forest=ForestSpec(n_trees=10),
        mlp=MlpSpec(hidden_units=4, epochs=5),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- split


def balanced_dataset(seed, per_subgroup=25):
    rng = np.random.default_rng(seed)
    x, y, z = [], [], []
    for ky in (0, 1):
        for kz in (0, 1):
            x.append(rng.standard_normal((per_subgroup, 2)))
            y.extend([ky] * per_subgroup)
            z.extend([kz] * per_subgroup)
    return Dataset(np.vstack(x), y, z)


def test_split_sizes_and_stratification():
    ds = balanced_dataset(0)
    train, test = train_test_split(ds, 0.5, seed=1)
    assert len(train) + len(test) == 100
    counts = subgroup_counts(test)
    assert counts.min() >= 12 and counts.max() <= 13
    assert subgroup_counts(train).min() >= 12


def test_split_union_is_original_multiset():
    ds = random_dataset(2, t=40, d=2)
    train, test = train_test_split(ds, 0.3, seed=7)
    together = sorted(map(tuple, np.vstack([train.x, test.x]).tolist()))
    original = sorted(map(tuple, ds.x.tolist()))
    assert together == original


def test_split_deterministic_and_seed_sensitive():
    ds = balanced_dataset(3)
    a_train, a_test = train_test_split(ds, 0.3, seed=5)
    b_train, b_test = train_test_split(ds, 0.3, seed=5)
    np.testing.assert_array_equal(a_train.x, b_train.x)
    np.testing.assert_array_equal(a_test.x, b_test.x)
    c_train, _ = train_test_split(ds, 0.3, seed=6)
    assert not np.array_equal(a_train.x, c_train.x)


def test_split_single_member_subgroup_goes_to_train():
    ds = Dataset(
        [[0.0], [1.0], [2.0], [3.0], [4.0], [5.0], [6.0]],
        [0, 0, 0, 1, 1, 1, 1],
        [0, 0, 0, 0, 0, 0, 1],  # subgroup (1, 1) has exactly one member
    )
    train, test = train_test_split(ds, 0.4, seed=0)
    assert subgroup_counts(train)[1, 1] == 1
    assert subgroup_counts(test)[1, 1] == 0


def test_split_every_populated_subgroup_reaches_both_sides():
    ds = balanced_dataset(4, per_subgroup=2)
    train, test = train_test_split(ds, 0.5, seed=2)
    assert (subgroup_counts(train) >= 1).all()
    assert (subgroup_counts(test) >= 1).all()


def test_split_validates():
    ds = balanced_dataset(5)
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError, match="test_fraction"):
            train_test_split(ds, bad, seed=0)
    with pytest.raises(ValueError, match="cannot split"):
        train_test_split(Dataset([[1.0]], [0], [0]), 0.5, seed=0)


# ---------------------------------------------------------------- run_method


def test_run_method_budget_parity_all_methods():
    train = random_dataset(6, t=60, d=3)
    config = small_config(pairs=BOTH_WAY_PAIRS)
    for method in METHODS:
        alpha = 1.0 if method in ("fsgm", "vanilla-mixup") else None
        run = run_method(train, method, "forest", config, seed=11, alpha=alpha)
        assert len(run.train_data) == 120
        for part in ("x", "y", "z"):
            np.testing.assert_array_equal(getattr(run.train_data, part)[:60], getattr(train, part))
        assert run.model.kind == "forest"


def rows_of(data: Dataset, flip_z: bool = False) -> set:
    return set(map(tuple, np.column_stack([data.x, data.y, data.z ^ flip_z]).tolist()))


def test_run_method_origin_tags():
    """The T added rows are what their dump tag names: a bootstrap draws
    training rows, a group swap flips only z, and the mixups make new rows."""
    train = random_dataset(7, t=30, d=2)
    config = small_config(pairs=BOTH_WAY_PAIRS)
    for method in METHODS:
        run = run_method(train, method, "forest", config, seed=1, alpha=1.0)
        added = run.train_data.subset(np.arange(30, 60))
        if method in ("original", "group-swap"):
            assert rows_of(added, flip_z=method == "group-swap") <= rows_of(train)
        else:
            assert not rows_of(added) & rows_of(train)
        assert run.model.kind == "forest"


def test_added_tags_name_every_method_with_a_dump_tag():
    assert tuple(harness.ADDED_TAGS) == METHODS


def test_run_method_trains_requested_model_kind():
    train = random_dataset(8, t=40, d=2)
    config = small_config()
    run = run_method(train, "original", "mlp", config, seed=2)
    assert run.model.kind == "mlp"
    with pytest.raises(ValueError, match="unknown model kind"):
        run_method(train, "original", "svm", config, seed=2)


def test_run_method_rejects_unknown_method():
    train = random_dataset(9, t=20, d=2)
    with pytest.raises(ValueError, match="unknown method"):
        run_method(train, "smote", "forest", small_config(), seed=0)


def test_run_method_deterministic():
    train = random_dataset(10, t=40, d=2)
    config = small_config(pairs=BOTH_WAY_PAIRS)
    a = run_method(train, "fsgm", "forest", config, seed=3, alpha=0.5)
    b = run_method(train, "fsgm", "forest", config, seed=3, alpha=0.5)
    np.testing.assert_array_equal(a.train_data.x, b.train_data.x)
    assert list(a.model.params) == list(b.model.params)
    for key, value in a.model.params.items():
        assert np.array_equal(value, b.model.params[key]), key


# ---------------------------------------------------------------- alpha search


def separable_four_subgroups(seed=0, per=10):
    # classes sit at -10 and +10, so every alpha trains a perfect classifier
    rng = np.random.default_rng(seed)
    x, y, z = [], [], []
    for ky in (0, 1):
        for kz in (0, 1):
            centre = 10.0 * (2 * ky - 1)
            x.append(centre + 0.1 * rng.standard_normal((per, 1)))
            y.extend([ky] * per)
            z.extend([kz] * per)
    return Dataset(np.vstack(x), y, z)


def test_alpha_search_singleton_grid():
    train = random_dataset(11, t=40, d=2)
    config = small_config(alpha_grid=(0.7,), pairs=BOTH_WAY_PAIRS)
    found, failures = alpha_search(train, [("fsgm", "forest", 4)], config)
    assert failures == {}
    best, scores = found[("fsgm", "forest", 4)]
    assert best == 0.7
    assert set(scores) == {0.7}


def test_alpha_search_tie_breaks_to_smallest():
    train = separable_four_subgroups()
    config = small_config(
        alpha_grid=(0.5, 1.0, 2.0),
        pairs=BOTH_WAY_PAIRS,
        forest=ForestSpec(n_trees=10, min_leaf=1),
    )
    found, failures = alpha_search(train, [("fsgm", "forest", 5)], config)
    assert failures == {}
    best, scores = found[("fsgm", "forest", 5)]
    assert len(set(scores.values())) == 1  # all alphas score identically here
    assert best == 0.5


@pytest.mark.parametrize("model_kind", ["forest", "mlp"])
def test_alpha_search_matches_independent_recomputation(model_kind, monkeypatch):
    train = random_dataset(12, t=80, d=3)
    config = small_config(alpha_grid=(4.0, 0.5, 2.0), pairs=BOTH_WAY_PAIRS,
                          mlp=MlpSpec(hidden_units=8, epochs=3))
    seed = 13
    scored = []

    def recording_evaluate(model, data):
        scored.append(model)
        return evaluate(model, data)

    monkeypatch.setattr("sgmix.harness.evaluate", recording_evaluate)
    found, failures = alpha_search(train, [("fsgm", model_kind, seed)], config)
    monkeypatch.undo()
    assert failures == {}
    best, scores = found[("fsgm", model_kind, seed)]

    inner_train, inner_val = train_test_split(
        train, VALIDATION_FRACTION,
        derive_seed(seed, STREAM_OFFSETS["alpha-search"]),
    )
    inner_seed = derive_seed(seed, STREAM_OFFSETS["alpha-search"], 1)
    recomputed = {}
    for alpha, model in zip((0.5, 2.0, 4.0), scored, strict=True):
        run = run_method(inner_train, "fsgm", model_kind, config, inner_seed, alpha=alpha)
        # The per-alpha fits are the oracle for the search's own (stacked) fits.
        assert list(model.params) == list(run.model.params)
        for key, value in run.model.params.items():
            assert np.array_equal(model.params[key], value), (alpha, key)
        result = evaluate(run.model, inner_val)
        recomputed[alpha] = result.accuracy + result.fairness
    assert scores == recomputed
    expected = min(a for a, s in scores.items() if s == max(scores.values()))
    assert best == expected


# ---------------------------------------------------------------- experiment


def test_run_experiment_row_arithmetic():
    table = run_experiment(small_config())
    assert len(table.rows) == 4  # 2 methods x 1 model x 2 replicates
    assert not table.errors
    assert [(r.method, r.model, r.replicate) for r in table.rows] == [
        ("fsgm", "forest", 0),
        ("fsgm", "forest", 1),
        ("original", "forest", 0),
        ("original", "forest", 1),
    ]
    for row in table.rows:
        assert row.train_size == 160  # 2 x 80 rows of training data
        assert row.seed == derive_seed(0, row.replicate)
        assert row.alpha == (1.0 if row.method == "fsgm" else None)
        assert 0.0 <= row.accuracy <= 1.0
        assert 0.0 <= row.fairness <= 1.0


def per_cell_alpha(train, method, model_kind, config, seed):
    """A one-cell search done by hand: one run_method per grid alpha, each
    scored on the cell's inner validation split; ties go to the smaller alpha."""
    inner_train, inner_val = train_test_split(
        train, VALIDATION_FRACTION,
        derive_seed(seed, STREAM_OFFSETS["alpha-search"]),
    )
    inner_seed = derive_seed(seed, STREAM_OFFSETS["alpha-search"], 1)
    scores = {}
    for alpha in sorted(config.alpha_grid):
        run = run_method(inner_train, method, model_kind, config, inner_seed, alpha=alpha)
        result = evaluate(run.model, inner_val)
        scores[alpha] = result.accuracy + result.fairness
    return min(a for a, s in scores.items() if s == max(scores.values()))


def per_cell_rows(config):
    """The result rows of running each cell alone: its own alpha search by
    hand, then run_method and evaluate."""
    rows = []
    for r in range(config.replicates):
        rep_seed = derive_seed(config.seed, r)
        train, test = harness._replicate_data(config, None, rep_seed)
        for mi, method in enumerate(config.methods):
            for ki, model_kind in enumerate(config.models):
                seed = derive_seed(rep_seed, 100 + mi, ki)
                alpha = None
                if method in ("fsgm", "vanilla-mixup"):
                    alpha = per_cell_alpha(train, method, model_kind, config, seed)
                run = run_method(train, method, model_kind, config, seed, alpha=alpha)
                result = evaluate(run.model, test)
                rows.append(harness.ResultRow(
                    method, model_kind, r, alpha, result.accuracy, result.dp_gap_signed,
                    result.fairness, len(run.train_data), rep_seed))
    return sorted(rows, key=lambda row: (row.method, row.model, row.replicate))


@pytest.mark.parametrize("models", [("mlp",), ("forest", "mlp")], ids=["mlp", "forest+mlp"])
def test_run_experiment_two_phase_schedule_matches_per_cell_runs(models, monkeypatch):
    settings = dict(methods=METHODS, models=models, alpha_grid=(2.0, 0.5))
    config = small_config(**settings)
    stacks = []

    def recording_train_mlps(xs, ys, spec, seeds):
        stacks.append(len(seeds))
        return train_mlps(xs, ys, spec, seeds)

    monkeypatch.setattr("sgmix.harness.train_mlps", recording_train_mlps)
    table = run_experiment(config)
    monkeypatch.undo()
    assert not table.errors
    assert table.rows == per_cell_rows(config)
    # Per replicate: every mixing cell's grid in one loop, then every final fit.
    assert stacks == [2 * 2, 4] * config.replicates

    failing = run_experiment(small_config(**settings, k=500))  # fsgm cannot draw
    assert failing.rows == [row for row in table.rows if row.method != "fsgm"]
    assert [(e.method, e.model, e.replicate, e.exc_type) for e in failing.errors] == [
        ("fsgm", model_kind, r, "ValueError") for model_kind in models for r in (0, 1)]
    assert all("insufficient target subgroup" in e.message for e in failing.errors)


def test_run_experiment_deterministic():
    a = run_experiment(small_config())
    b = run_experiment(small_config())
    assert a.rows == b.rows


@pytest.mark.parametrize("mlp_failure", [
    pytest.param("diverged", id="diverged-learning-rate"),
    pytest.param("raises", id="stacked-fit-raises"),
])
def test_failing_mlps_make_one_error_row_per_mlp_cell(mlp_failure, monkeypatch):
    settings = dict(methods=METHODS, models=("forest", "mlp"), alpha_grid=(0.5, 2.0))
    clean = run_experiment(small_config(**settings))
    if mlp_failure == "diverged":
        settings["mlp"] = MlpSpec(hidden_units=4, epochs=5, learning_rate=1e300)
        exc_type, message = "ValueError", "lower mlp.learning_rate"
    else:
        def broken_train_mlps(xs, ys, spec, seeds):
            raise RuntimeError("stacked fit broke")

        monkeypatch.setattr("sgmix.harness.train_mlps", broken_train_mlps)
        exc_type, message = "RuntimeError", "stacked fit broke"
    table = run_experiment(small_config(**settings))
    # Both mixing MLP cells fail in the search phase, the other two in the final one.
    assert table.rows == [row for row in clean.rows if row.model == "forest"]
    assert [(e.method, e.model, e.replicate, e.exc_type) for e in table.errors] == [
        (method, "mlp", r, exc_type) for method in sorted(METHODS) for r in (0, 1)]
    assert all(e.message.endswith(message) for e in table.errors)


def test_cell_failing_its_first_grid_score_fits_none_of_its_later_models(monkeypatch):
    config = small_config(methods=METHODS, alpha_grid=(0.5, 1.0, 2.0))
    fits = []

    def counting_train_forest(x, y, spec, seed):
        fits.append(spec)
        return train_forest(x, y, spec, seed)

    monkeypatch.setattr("sgmix.harness.train_forest", counting_train_forest)
    clean = run_experiment(config)
    assert len(fits) == 2 * (2 * 3 + 4)  # per replicate: two cells' grids, then 4 finals
    fits.clear()
    scores = []

    def fail_first_score(model, data):
        scores.append(model)
        if len(scores) == 1:
            raise RuntimeError("scoring broke")
        return evaluate(model, data)

    monkeypatch.setattr("sgmix.harness.evaluate", fail_first_score)
    table = run_experiment(config)
    # Forests fit and score in job order, so the first score is replicate 0's
    # fsgm at alpha 0.5; its two later grid forests and its final one never fit.
    assert table.errors == [harness.CellError("fsgm", "forest", 0, "scoring broke",
                                              "RuntimeError")]
    assert table.rows == [row for row in clean.rows if (row.method, row.replicate) != ("fsgm", 0)]
    assert len(fits) == 2 * (2 * 3 + 4) - 3


def test_run_experiment_isolates_cell_failures():
    table = run_experiment(small_config(k=500))  # no subgroup has 500 members
    originals = [r for r in table.rows if r.method == "original"]
    assert len(originals) == 2
    assert len(table.errors) == 2
    assert all(e.method == "fsgm" for e in table.errors)
    assert "insufficient target subgroup" in table.errors[0].message
    assert all(e.exc_type == "ValueError" for e in table.errors)


def test_run_experiment_isolates_replicate_data_failures(monkeypatch):
    clean = run_experiment(small_config(replicates=3))
    calls = []
    generate = harness.gen_conditional_gaussian

    def fail_on_third_call(config):
        calls.append(config)
        if len(calls) == 3:  # replicate 1's training set
            raise RuntimeError("generator broke")
        return generate(config)

    monkeypatch.setattr(harness, "gen_conditional_gaussian", fail_on_third_call)
    table = run_experiment(small_config(replicates=3))
    assert table.rows == [row for row in clean.rows if row.replicate != 1]
    assert table.errors == [harness.CellError(method, "forest", 1, "generator broke",
                                              "RuntimeError")
                            for method in ("fsgm", "original")]


def test_run_experiment_grid_search_fills_alpha():
    config = small_config(
        methods=("fsgm",), replicates=1, alpha_grid=(0.5, 1.0)
    )
    table = run_experiment(config)
    assert len(table.rows) == 1
    assert table.rows[0].alpha in (0.5, 1.0)
    assert table.notes[0] == "alpha grid searched: 0.5,1.0 (internal validation selection)"


def test_run_experiment_metadata_and_notes():
    config = small_config(replicates=1)
    table = run_experiment(config)
    assert config.resolved_pairs == check_pairs(DEFAULT_PAIRS["unbalanced-groups"])
    assert table.notes[0] == "alpha fixed at 1"
    assert not any("alpha" in n for n in table.notes[1:])
    # the notes show the run's own specs, which need not be the defaults
    assert f"forest settings: {ForestSpec(n_trees=10)}" in table.notes
    # and name only the models the run trains
    assert not any(n.startswith("mlp settings:") for n in table.notes)
    mlp_only = run_experiment(small_config(replicates=1, methods=("original",),
                                           models=("mlp",)))
    assert f"mlp settings: {MlpSpec(hidden_units=4, epochs=5)}" in mlp_only.notes
    assert not any(n.startswith("forest settings:") for n in mlp_only.notes)


def test_run_experiment_without_alpha_method_has_no_alpha_note():
    table = run_experiment(small_config(methods=("original",), replicates=1))
    assert not any("alpha" in n for n in table.notes)
    assert table.notes[0] == "test sets are balanced at 500 samples per subgroup"


def test_run_experiment_csv_source(tmp_path):
    ds = random_dataset(17, t=50, d=3)
    path = tmp_path / "input.csv"
    dump_augmented_csv(path, ds, ["original"] * 50)
    schema = CsvSchema(
        feature_columns=("x1", "x2", "x3"),
        label_column="y",
        label_positive="1",
        group_column="z",
        group_positive="1",
    )
    config = small_config(
        scenario=None,
        counts=None,
        csv_path=str(path),
        csv_schema=schema,
        methods=("original",),
        replicates=2,
        pairs=BOTH_WAY_PAIRS,
    )
    table = run_experiment(config)
    assert len(table.rows) == 2 and not table.errors
    # csv replicates differ through the split, not the data
    assert table.rows[0].seed != table.rows[1].seed
    train, _ = train_test_split(ds, 0.3, derive_seed(0, 0))
    assert table.rows[0].train_size == 2 * len(train)
    assert config.resolved_pairs == check_pairs(BOTH_WAY_PAIRS)
    assert config.resolved_shifts is None and config.resolved_counts is None


def test_run_experiment_dumps_augmented_training_sets(tmp_path):
    """Each method's dump holds the training set, then the T rows it adds,
    and equals the cell's run_method training set."""
    base = tmp_path / "aug.csv"
    config = small_config(replicates=1, methods=METHODS, dump_augmented=str(base))
    run_experiment(config)
    rep_seed = derive_seed(config.seed, 0)
    train, _ = harness._replicate_data(config, None, rep_seed)
    t = len(train)
    for mi, method in enumerate(METHODS):
        lines = (tmp_path / f"aug.{method}.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * t == 161  # header + 2T rows
        assert lines[0].endswith(",y,z,origin")
        cells = [line.split(",") for line in lines[1:]]
        tag = harness.ADDED_TAGS[method]
        assert [c[-1] for c in cells] == ["original"] * t + [tag] * t
        dumped = np.array([[float(v) for v in c[:-1]] for c in cells])
        np.testing.assert_array_equal(dumped[:t], np.column_stack([train.x, train.y, train.z]))
        alpha = config.alpha_grid[0] if method in harness.ALPHA_METHODS else None
        run = run_method(train, method, "forest", config, derive_seed(rep_seed, 100 + mi, 0),
                         alpha)
        data = run.train_data
        np.testing.assert_array_equal(dumped, np.column_stack([data.x, data.y, data.z]))


def test_run_experiment_failed_dump_makes_its_cell_one_error_row(tmp_path, monkeypatch):
    config = small_config(dump_augmented=str(tmp_path / "missing" / "aug.csv"))
    fits = []

    def counting_train_forest(x, y, spec, seed):
        fits.append(spec)
        return train_forest(x, y, spec, seed)

    monkeypatch.setattr("sgmix.harness.train_forest", counting_train_forest)
    table = run_experiment(config)
    cells = [(r.method, r.model, r.replicate) for r in table.rows]
    failed = [(e.method, e.model, e.replicate) for e in table.errors]
    # replicate 0 of the first model is dumped, so only those cells fail
    assert failed == [("fsgm", "forest", 0), ("original", "forest", 0)]
    assert cells == [("fsgm", "forest", 1), ("original", "forest", 1)]
    assert all(e.exc_type == "FileNotFoundError" for e in table.errors)
    # The dump comes before the fit, so a cell whose dump failed trains no model.
    assert len(fits) == 2


def test_no_forest_outlives_its_score(monkeypatch):
    config = small_config(methods=METHODS, alpha_grid=(0.5, 2.0))
    refs, alive = [], []

    def tracking_train_forest(x, y, spec, seed):
        # A list of refs, not a WeakSet: TrainedModel is unhashable.
        alive.append(sum(ref() is not None for ref in refs))
        model = train_forest(x, y, spec, seed)
        refs.append(weakref.ref(model))
        return model

    monkeypatch.setattr("sgmix.harness.train_forest", tracking_train_forest)
    table = run_experiment(config)
    assert not table.errors
    # Per replicate: two mixing cells' two-alpha grids, then four final fits.
    assert alive == [0] * config.replicates * (2 * 2 + 4)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(scenario=None, csv_path=None)
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(scenario="unbalanced-groups", csv_path="x.csv")
    with pytest.raises(ValueError, match="unknown scenario"):
        ExperimentConfig(scenario="other")
    with pytest.raises(ValueError, match="requires csv_schema"):
        ExperimentConfig(csv_path="x.csv")
    with pytest.raises(ValueError, match="unknown methods"):
        ExperimentConfig(scenario="unbalanced-groups", methods=("smote",))
    with pytest.raises(ValueError, match="^methods must be nonempty$"):
        ExperimentConfig(scenario="unbalanced-groups", methods=())
    with pytest.raises(ValueError, match="nonempty subset"):
        ExperimentConfig(scenario="unbalanced-groups", models=())
    with pytest.raises(ValueError, match="replicates"):
        ExperimentConfig(scenario="unbalanced-groups", replicates=0)
    with pytest.raises(ValueError, match="alpha_grid"):
        ExperimentConfig(scenario="unbalanced-groups", alpha_grid=())
    with pytest.raises(ValueError, match="methods must not repeat"):
        ExperimentConfig(scenario="unbalanced-groups", methods=("original", "original"))
    with pytest.raises(ValueError, match="models must not repeat"):
        ExperimentConfig(scenario="unbalanced-groups", models=("forest", "forest"))
    with pytest.raises(ValueError, match="counts must be whole numbers"):
        ExperimentConfig(scenario="unbalanced-groups", counts=[[10.7, 100], [10, 100]])


@pytest.mark.parametrize("make,name", [
    (lambda: ForestSpec(n_trees=2.5), "n_trees"),
    (lambda: ForestSpec(max_depth=2.5), "max_depth"),
    (lambda: MlpSpec(epochs=1.5), "epochs"),
    (lambda: ExperimentConfig(scenario="unbalanced-groups", replicates=1.5), "replicates"),
    (lambda: ExperimentConfig(scenario="unbalanced-groups", k=2.5), "k"),
    (lambda: ExperimentConfig(scenario="unbalanced-groups", seed=1.5), "seed"),
])
def test_fractional_sizes_and_seeds_are_config_errors(make, name):
    """A fractional size or seed is rejected up front, not truncated, run
    silently or failed deep inside range."""
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got [12]\.5$"):
        make()


SIZE_BASES = {FsgmConfig: {"pairs": BOTH_WAY_PAIRS, "new_count": 10},
              ExperimentConfig: {"scenario": "unbalanced-groups"}}
SIZE_FIELDS = [(cls, f.name) for cls in (ForestSpec, MlpSpec, ShiftSpec, FsgmConfig,
                                         ExperimentConfig)
               for f in dataclasses.fields(cls)
               if f.init and f.type in ("int", "int | None") and f.name != "seed"]
SIZE_CASES = [
    *[pytest.param(name, lambda v, cls=cls, name=name: cls(**{**SIZE_BASES.get(cls, {}), name: v}),
                   id=f"{cls.__name__}.{name}") for cls, name in SIZE_FIELDS],
    pytest.param("new_count", lambda v: vanilla_mixup(random_dataset(0), v, 1.0, 0),
                 id="vanilla_mixup"),
    pytest.param("new_count", lambda v: group_swap_augment(random_dataset(0), v, 0),
                 id="group_swap_augment"),
    pytest.param("total_size", lambda v: bootstrap(random_dataset(0), v, 0),
                 id="bootstrap"),
    pytest.param("k", lambda v: knn_in_subgroup(random_dataset(0), np.zeros(3),
                                                SubgroupKey(0, 0), v), id="knn_in_subgroup"),
]


@pytest.mark.parametrize("value,rule", [
    (2.5, "must be an integer"), (0, "must be >= 1"), (-1, "must be >= 1"),
    (2**63, "must fit in int64"), (True, "must be an integer"),
])
@pytest.mark.parametrize("name,make", SIZE_CASES)
def test_every_size_is_an_integer_from_1_within_int64(name, make, value, rule):
    """Each size field and size argument names itself in one message per rule."""
    with pytest.raises(ValueError, match=rf"^{name} {rule}, got {re.escape(str(value))}$"):
        make(value)


def test_seed_has_no_upper_bound():
    assert ExperimentConfig(scenario="unbalanced-groups", seed=2**70).seed == 2**70


@pytest.mark.parametrize("override", [
    {"shifts": ShiftSpec(angle=0.5)},
    {"counts": [[10, 10], [10, 10]]},
])
def test_experiment_config_rejects_scenario_settings_with_csv(standin_path, standin_schema,
                                                              override):
    with pytest.raises(ValueError, match="only to a scenario"):
        ExperimentConfig(csv_path=standin_path, csv_schema=standin_schema, **override)


def test_experiment_config_fills_source_defaults(standin_path, standin_schema):
    synthetic = ExperimentConfig(scenario="underrepresented-subgroup")
    preset = preset_scenario("underrepresented-subgroup")
    assert synthetic.resolved_pairs == check_pairs(DEFAULT_PAIRS["underrepresented-subgroup"])
    assert synthetic.resolved_shifts == preset.shifts
    np.testing.assert_array_equal(synthetic.resolved_counts, preset.counts)
    assert synthetic.resolved_counts.dtype == np.int64
    assert not synthetic.resolved_counts.flags.writeable
    assert synthetic.k == FsgmConfig.k
    # The caller's fields read back as given: None still means the default.
    assert (synthetic.pairs, synthetic.shifts, synthetic.counts) == (None, None, None)

    counts = [[20, 20], [5, 20]]
    shifts = ShiftSpec(angle=0.5)
    given = ExperimentConfig(scenario="underrepresented-subgroup", pairs=BOTH_WAY_PAIRS,
                             shifts=shifts, counts=counts)
    assert given.pairs is BOTH_WAY_PAIRS
    assert given.shifts is shifts and given.counts == ((20, 20), (5, 20))
    assert given.resolved_pairs == check_pairs(BOTH_WAY_PAIRS)
    assert given.resolved_shifts is shifts
    np.testing.assert_array_equal(given.resolved_counts, counts)

    tabular = ExperimentConfig(csv_path=standin_path, csv_schema=standin_schema,
                               pairs=BOTH_WAY_PAIRS)
    assert tabular.pairs is BOTH_WAY_PAIRS
    assert tabular.resolved_pairs == check_pairs(BOTH_WAY_PAIRS)
    assert tabular.shifts is None and tabular.counts is None
    assert tabular.resolved_shifts is None and tabular.resolved_counts is None


def test_experiment_configs_with_equal_counts_compare_and_hash_equal():
    # numpy's == on an array field raised in __eq__, and an array or a list
    # is unhashable; counts are now stored as the CLI passes them
    given = (np.array([[10, 30], [10, 30]]), [[10, 30], [10, 30]], ((10, 30), (10, 30)),
             np.array([[10.0, 30.0], [10.0, 30.0]]))
    configs = [ExperimentConfig(scenario="unbalanced-groups", counts=counts) for counts in given]
    for config in configs:
        assert config.counts == ((10, 30), (10, 30))
        assert all(type(n) is int for row in config.counts for n in row)
        assert config == configs[0] and hash(config) == hash(configs[0])
        np.testing.assert_array_equal(config.resolved_counts, given[0])
    assert len({*configs}) == 1
    other = ExperimentConfig(scenario="unbalanced-groups", counts=[[10, 30], [10, 31]])
    assert other != configs[0]


def test_experiment_configs_given_lists_compare_and_hash_as_tuples():
    as_lists = ExperimentConfig(scenario="unbalanced-groups", methods=["original", "fsgm"],
                                models=["forest"], alpha_grid=[0.5, 2.0],
                                pairs=[[[0, 0], [1, 0]], [np.array([1, 0]), (0, 0)]])
    as_tuples = ExperimentConfig(scenario="unbalanced-groups", methods=("original", "fsgm"),
                                 models=("forest",), alpha_grid=(0.5, 2.0),
                                 pairs=(((0, 0), (1, 0)), ((1, 0), (0, 0))))
    assert as_lists == as_tuples and hash(as_lists) == hash(as_tuples)
    assert as_lists.methods == ("original", "fsgm") and as_lists.alpha_grid == (0.5, 2.0)
    assert as_lists.pairs == (((0, 0), (1, 0)), ((1, 0), (0, 0)))
    assert all(type(label) is int for pair in as_lists.pairs for side in pair for label in side)
    assert as_lists.resolved_pairs == as_tuples.resolved_pairs


@pytest.mark.parametrize("field, value, message", [
    ("methods", "fsgm", "methods must be a sequence, got 'fsgm'"),
    ("models", "mlp", "models must be a sequence, got 'mlp'"),
    ("alpha_grid", 2.0, "alpha_grid must be a sequence, got 2.0"),
    ("alpha_grid", "1,2", "alpha_grid must be a sequence, got '1,2'"),
    ("pairs", ((0, 0), (1, 0)), r"pairs must hold \(\(y, z\), \(y, z\)\) pairs, got \(\(0, 0\)"),
    ("pairs", 3, r"pairs must hold \(\(y, z\), \(y, z\)\) pairs, got 3"),
])
def test_experiment_config_rejects_a_sequence_field_of_the_wrong_shape(field, value, message):
    with pytest.raises(ValueError, match="^" + message):
        ExperimentConfig(scenario="unbalanced-groups", **{field: value})


def test_fsgm_scales_its_neighbour_search_by_the_data_source(tmp_path, monkeypatch):
    """A CSV's columns are z-scored for the kNN search; a scenario's are not."""
    ds = random_dataset(17, t=50, d=3)
    path = tmp_path / "input.csv"
    dump_augmented_csv(path, ds, ["original"] * 50)
    schema = CsvSchema(feature_columns=("x1", "x2", "x3"), label_column="y",
                       label_positive="1", group_column="z", group_positive="1")
    seen = []

    def recording_fsgm(train, config):
        seen.append(config.standardize)
        return fsgm_augment(train, config)

    monkeypatch.setattr("sgmix.harness.fsgm_augment", recording_fsgm)
    for config, expected in (
            (small_config(scenario=None, counts=None, csv_path=str(path), csv_schema=schema,
                          pairs=BOTH_WAY_PAIRS), True),
            (small_config(), False)):
        seen.clear()
        table = run_experiment(dataclasses.replace(config, methods=("fsgm",), replicates=1))
        assert len(table.rows) == 1 and not table.errors
        assert seen == [expected]


SOURCES = ("unbalanced-groups", "unbalanced-class", "underrepresented-subgroup", "csv")


@pytest.mark.parametrize("old,new", list(itertools.permutations(SOURCES, 2)))
def test_replace_to_another_source_settles_its_defaults_again(old, new, standin_path,
                                                              standin_schema):
    def source(name):
        if name == "csv":
            return dict(scenario=None, csv_path=standin_path, csv_schema=standin_schema)
        return dict(scenario=name, csv_path=None, csv_schema=None)

    fresh = ExperimentConfig(**source(new))
    replaced = dataclasses.replace(ExperimentConfig(**source(old)), **source(new))
    assert replaced == fresh and hash(replaced) == hash(fresh)
    assert replaced.resolved_pairs == fresh.resolved_pairs
    assert replaced.resolved_shifts == fresh.resolved_shifts
    assert np.array_equal(replaced.resolved_counts, fresh.resolved_counts)


def test_replaced_config_runs_as_a_fresh_one(tmp_path, capsys):
    outputs = []
    for name, config in (
            ("replaced", dataclasses.replace(small_config(), scenario="unbalanced-class",
                                             counts=None)),
            ("fresh", small_config(scenario="unbalanced-class", counts=None))):
        path = tmp_path / f"{name}.csv"
        emit_results(run_experiment(config), path)
        printed = capsys.readouterr().out.split("\n", 1)[1]  # the first line names the path
        outputs.append((path.read_bytes(), printed))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------- emit


def test_emit_results_format(tmp_path, capsys):
    table = run_experiment(small_config())
    out = tmp_path / "results.csv"
    emit_results(table, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == RESULTS_HEADER
    assert len(lines) == 5
    for line, row in zip(lines[1:], table.rows):
        cells = line.split(",")
        assert cells[0] == row.method
        assert cells[3] == ("" if row.alpha is None else f"{row.alpha:.6f}")
        assert cells[4] == f"{row.accuracy:.6f}"
        assert int(cells[7]) == row.train_size
        assert int(cells[8]) == row.seed
    printed = capsys.readouterr().out
    assert "accuracy" in printed and "fairness" in printed
    assert "fsgm" in printed and "original" in printed


@pytest.mark.parametrize("alpha", [1e-320, 0.1234567])
def test_emit_results_writes_an_alpha_that_reads_back_exactly(alpha, tmp_path, capsys):
    out = tmp_path / "results.csv"
    emit_results(run_experiment(small_config(alpha_grid=(alpha,), replicates=1)), out)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[0] for row in rows] == ["fsgm", "original"]
    assert float(rows[0][3]) == alpha and rows[1][3] == ""


def test_emit_results_empty_table(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    emit_results(ResultTable(), out)
    assert out.read_text() == RESULTS_HEADER + "\n"
    assert "0 rows" in capsys.readouterr().out


def test_emit_results_reports_failures(tmp_path, capsys):
    table = run_experiment(small_config(k=500, replicates=1))
    emit_results(table, tmp_path / "r.csv")
    printed = capsys.readouterr().out
    assert "FAILED fsgm x forest replicate 0: ValueError: insufficient" in printed


def test_default_grid_is_sorted_and_positive():
    assert DEFAULT_ALPHA_GRID == tuple(sorted(DEFAULT_ALPHA_GRID))
    assert all(a > 0 for a in DEFAULT_ALPHA_GRID)
