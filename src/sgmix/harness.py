"""Experiment orchestration: methods x models x replicates, with CSV results.

Every replicate generates (or splits off) its own train/test data; all
methods within a replicate share that data. Augmentation methods train on the
original rows plus an equal number of new rows; the plain baseline trains on
a bootstrap of the same total size, so every model sees exactly 2T rows.

A replicate runs in two phases. The search phase augments the alpha grid of
every cell that searches one, fits and scores all of those grid sets and
picks each cell's alpha. The final phase augments every cell's 2T training
set, fits each model and scores it on the test set. Both phases go through
`_fit_and_score`: the MLPs train together in one stacked SGD loop, and
forests one at a time, each freed once it is scored. Every fit derives its
own seeds, so a model comes out as when its cell runs alone (`run_method`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .augment import (
    FsgmConfig,
    bootstrap,
    check_pairs,
    fsgm_augment,
    group_swap_augment,
    vanilla_mixup,
)
from .data import (
    ALL_SUBGROUPS, Dataset, check_sizes, concat, subgroup_indices,
)
from .metrics import evaluate
from .models import (
    ForestSpec,
    MlpSpec,
    TrainedModel,
    train_forest,
    train_mlp,
    train_mlps,
)
from .rng import STREAM_OFFSETS, RngStream, check_seed, derive_seed
from .synth import (
    TEST_COUNT_PER_SUBGROUP,
    ScenarioConfig,
    ShiftSpec,
    balanced_test_config,
    gen_conditional_gaussian,
    preset_scenario,
)
from .tabular import CsvSchema, dump_augmented_csv, load_csv

METHODS = ("original", "fsgm", "vanilla-mixup", "group-swap")
MODEL_KINDS = ("forest", "mlp")
ALPHA_METHODS = ("fsgm", "vanilla-mixup")
DEFAULT_ALPHA_GRID = (0.1, 0.5, 1.0, 2.0, 4.0)
# The share of each cell's training rows that the alpha search validates on.
VALIDATION_FRACTION = 0.25
# The origin tag of the T rows each method adds to the T "original" ones.
ADDED_TAGS = {"original": "bootstrap", "fsgm": "fsgm", "vanilla-mixup": "vanilla",
              "group-swap": "swap"}

# Default interpolation directions per data source: which subgroups donate
# samples and which they are pulled toward.
DEFAULT_PAIRS = {
    "unbalanced-groups": (((0, 0), (1, 0)), ((1, 0), (0, 0))),
    "unbalanced-class": (((1, 0), (1, 1)), ((1, 1), (1, 0))),
    "underrepresented-subgroup": (((1, 0), (1, 1)), ((1, 0), (0, 0))),
    "csv": (((1, 0), (0, 0)), ((0, 0), (1, 0))),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything run_experiment needs; exactly one data source must be set.

    The fields a caller sets keep what was given; None in pairs, shifts or
    counts means the data source's default. The three resolved_* fields hold
    what a run uses, settled here once from the source, so
    dataclasses.replace settles them again and == compares only what the
    caller set. fsgm's kNN search z-scores a CSV's features and leaves a
    scenario's as they are.
    """

    scenario: str | None = None
    csv_path: str | None = None
    csv_schema: CsvSchema | None = None
    methods: tuple[str, ...] = METHODS
    models: tuple[str, ...] = MODEL_KINDS
    replicates: int = 5
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID
    seed: int = 0
    test_fraction: float = 0.3
    pairs: tuple | None = None
    k: int = FsgmConfig.k
    shifts: ShiftSpec | None = None  # scenario only
    counts: object = None  # scenario only: 2x2 training counts indexed [y, z]
    forest: ForestSpec = field(default_factory=ForestSpec)
    mlp: MlpSpec = field(default_factory=MlpSpec)
    dump_augmented: str | None = None
    resolved_pairs: tuple = field(init=False, compare=False)
    resolved_shifts: ShiftSpec | None = field(init=False, compare=False)  # None for a CSV
    resolved_counts: np.ndarray | None = field(init=False, compare=False)  # None for a CSV

    def __post_init__(self):
        has_scenario = self.scenario is not None
        has_csv = self.csv_path is not None
        if has_scenario == has_csv:
            raise ValueError("exactly one of scenario and csv_path must be set")
        if has_csv and self.csv_schema is None:
            raise ValueError("csv_path requires csv_schema")
        if not self.methods:
            raise ValueError("methods must be nonempty")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
        unknown = [m for m in self.models if m not in MODEL_KINDS]
        if not self.models or unknown:
            raise ValueError(f"models must be a nonempty subset of {MODEL_KINDS}")
        for name in ("methods", "models", "alpha_grid"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ValueError(f"{name} must not repeat, got {getattr(self, name)}")
        check_sizes(replicates=self.replicates, k=self.k)
        check_seed(self.seed)
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if not self.alpha_grid:
            raise ValueError("alpha_grid must be nonempty")
        if not all(math.isfinite(a) and a > 0 for a in self.alpha_grid):
            raise ValueError(f"alpha_grid entries must be finite and > 0, got {self.alpha_grid}")
        shifts = counts = None
        if has_csv:
            if self.shifts is not None or self.counts is not None:
                raise ValueError("shifts and counts apply only to a scenario, not to csv_path")
            dim = len(self.csv_schema.feature_columns)
        else:
            preset = preset_scenario(self.scenario)
            shifts = preset.shifts if self.shifts is None else self.shifts
            # ScenarioConfig validates the counts the generator will see.
            counts = ScenarioConfig(preset.counts if self.counts is None else self.counts).counts
            dim = shifts.dim
        source = self.scenario if has_scenario else "csv"
        object.__setattr__(self, "resolved_pairs", check_pairs(
            DEFAULT_PAIRS[source] if self.pairs is None else self.pairs))
        object.__setattr__(self, "resolved_shifts", shifts)
        object.__setattr__(self, "resolved_counts", counts)
        m = self.forest.features_per_split
        if "forest" in self.models and m is not None and m > dim:
            raise ValueError(f"forest.features_per_split={m} exceeds feature count {dim}")


@dataclass(frozen=True)
class MethodRun:
    """One augment-and-train pass: the model plus the 2T rows it was trained on."""

    model: TrainedModel
    train_data: Dataset


@dataclass(frozen=True)
class ResultRow:
    method: str
    model: str
    replicate: int
    alpha: float | None
    accuracy: float
    dp_gap_signed: float
    fairness: float
    train_size: int
    seed: int


@dataclass(frozen=True)
class CellError:
    method: str
    model: str
    replicate: int
    message: str
    exc_type: str


@dataclass
class ResultTable:
    rows: list[ResultRow] = field(default_factory=list)
    errors: list[CellError] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


RESULTS_HEADER = "method,model,replicate,alpha,accuracy,dp_gap_signed,fairness,train_size,seed"


def train_test_split(dataset: Dataset, test_fraction: float, seed: int):
    """Stratified split: every subgroup with >= 2 members lands in both parts.

    Single-member subgroups go to the training part. Row order within each
    part follows the original dataset, so output is stable under a fixed seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if len(dataset) < 2:
        raise ValueError(f"cannot split {len(dataset)} sample(s)")
    stream = RngStream(seed, (STREAM_OFFSETS["split"],))
    train_idx, test_idx = [], []
    for key in ALL_SUBGROUPS:
        members = subgroup_indices(dataset, key)
        if members.size == 0:
            continue
        if members.size == 1:
            train_idx.append(members)
            continue
        perm = stream.permutation(members)
        n_test = int(round(members.size * test_fraction))
        n_test = min(max(n_test, 1), members.size - 1)
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])
    if not train_idx or not test_idx:
        raise ValueError("degenerate split: one side would be empty")
    train = dataset.subset(np.sort(np.concatenate(train_idx)))
    test = dataset.subset(np.sort(np.concatenate(test_idx)))
    return train, test


def _train_model(data: Dataset, model_kind: str, config: ExperimentConfig, seed: int):
    fits = {"forest": (train_forest, config.forest), "mlp": (train_mlp, config.mlp)}
    if model_kind not in fits:
        raise ValueError(f"unknown model kind {model_kind!r}")
    train, spec = fits[model_kind]
    return train(data.x, data.y, spec, derive_seed(seed, STREAM_OFFSETS["model-init"]))


def _augment(train: Dataset, method: str, config: ExperimentConfig, seed: int,
             alpha: float | None) -> Dataset:
    """Grow train to exactly 2T rows: its T rows, then T that the method adds."""
    t = len(train)
    aug_seed = derive_seed(seed, STREAM_OFFSETS["augmentation"])
    mix_alpha = FsgmConfig.alpha if alpha is None else alpha
    if method == "original":
        data = bootstrap(train, 2 * t, derive_seed(seed, STREAM_OFFSETS["bootstrap"]))
    elif method == "fsgm":
        # A CSV's columns have unrelated scales; a scenario's are unit-variance.
        report = fsgm_augment(train, FsgmConfig(
            pairs=config.resolved_pairs, new_count=t, k=config.k, alpha=mix_alpha,
            seed=aug_seed, standardize=config.csv_path is not None))
        data = concat(train, report.produced)
    elif method == "vanilla-mixup":
        data = concat(train, vanilla_mixup(train, t, mix_alpha, aug_seed))
    elif method == "group-swap":
        data = concat(train, group_swap_augment(train, t, aug_seed))
    else:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    if len(data) != 2 * t:
        raise RuntimeError(
            f"budget parity violated: method {method} produced {len(data)} rows, expected {2 * t}"
        )
    return data


def run_method(
    train: Dataset,
    method: str,
    model_kind: str,
    config: ExperimentConfig,
    seed: int,
    alpha: float | None = None,
) -> MethodRun:
    """Augment to exactly 2T rows, then fit the requested model."""
    data = _augment(train, method, config, seed, alpha)
    return MethodRun(model=_train_model(data, model_kind, config, seed), train_data=data)


def _fit_and_score(jobs, config: ExperimentConfig, failures: dict) -> dict:
    """Fit one model per (cell, data, seed, holdout) job and score it on holdout.

    A cell is a (method, model_kind, seed) triple. Returns {job index:
    EvalResult} for every job that was scored. The MLP jobs train together
    in one stacked SGD loop; forests train one at a time. No model is bound
    to a name, so each is freed once it is scored and forests never pile up
    in memory. A fit or score that raises fails the job's cell: the
    exception goes into failures and the cell's later jobs are skipped. A
    stacked fit that raises fails every cell in it.
    """
    mlp = [i for i, job in enumerate(jobs) if job[0][1] == "mlp"]
    stacked = {}
    if mlp:
        try:
            stacked = dict(zip(mlp, train_mlps(
                [jobs[i][1].x for i in mlp], [jobs[i][1].y for i in mlp], config.mlp,
                [derive_seed(jobs[i][2], STREAM_OFFSETS["model-init"]) for i in mlp])))
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            failures.update((jobs[i][0], exc) for i in mlp)
    results = {}
    for i, (cell, data, seed, holdout) in enumerate(jobs):
        if cell in failures:
            continue
        try:
            results[i] = evaluate(stacked.pop(i) if i in stacked
                                  else _train_model(data, cell[1], config, seed), holdout)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            failures[cell] = exc
    return results


def alpha_search(train: Dataset, cells, config: ExperimentConfig):
    """Pick the grid alpha with the best validation accuracy + fairness, per cell.

    cells lists (method, model_kind, seed) triples. Each cell scores every
    alpha on an internal stratified split of the training data drawn from its
    seed, so no test information leaks into the choice. A cell's alphas share
    that split and the same downstream seeds; ties go to the smaller alpha.
    Every cell's grid sets are augmented first, then fitted and scored by one
    `_fit_and_score` call: the MLPs of all cells in one stacked loop, forests
    one at a time.

    Returns (found, failures): found maps every cell that succeeded to its
    (best alpha, {alpha: score}), failures maps every other cell to the
    exception that failed it.
    """
    alphas = sorted(config.alpha_grid)
    failures: dict = {}
    jobs = []
    for cell in cells:
        method, _, seed = cell
        inner_seed = derive_seed(seed, STREAM_OFFSETS["alpha-search"], 1)
        try:
            inner_train, inner_val = train_test_split(
                train, VALIDATION_FRACTION,
                derive_seed(seed, STREAM_OFFSETS["alpha-search"]),
            )
            jobs += [(cell, _augment(inner_train, method, config, inner_seed, alpha),
                      inner_seed, inner_val) for alpha in alphas]
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            failures[cell] = exc
    scores: dict = {}
    # A cell adds all of its grid jobs or none, so job i scores alphas[i % len(alphas)].
    for i, result in _fit_and_score(jobs, config, failures).items():
        scores.setdefault(jobs[i][0], {})[alphas[i % len(alphas)]] = (
            result.accuracy + result.fairness)
    # max keeps the first maximum of the sorted grid: ties go to the smaller alpha.
    found = {cell: (max(alphas, key=scores[cell].__getitem__), scores[cell])
             for cell in cells if cell not in failures}
    return found, failures


def dump_path(base: str, method: str) -> str:
    """Where a run with --dump-augmented base writes method's training set."""
    p = Path(base)
    suffix = p.suffix if p.suffix else ".csv"
    return str(p.with_name(f"{p.stem}.{method}{suffix}"))


def _replicate_data(config: ExperimentConfig, full: Dataset | None, rep_seed: int):
    if config.scenario is not None:
        train = gen_conditional_gaussian(
            ScenarioConfig(counts=config.resolved_counts, shifts=config.resolved_shifts,
                           seed=derive_seed(rep_seed, STREAM_OFFSETS["data-gen"]))
        )
        test = gen_conditional_gaussian(
            balanced_test_config(config.resolved_shifts,
                                 derive_seed(rep_seed, STREAM_OFFSETS["test-gen"]))
        )
        return train, test
    return train_test_split(full, config.test_fraction, rep_seed)


def _run_replicate(table: ResultTable, config: ExperimentConfig, r: int, rep_seed: int,
                   train: Dataset, test: Dataset) -> None:
    """Run every cell of replicate r in two phases and add its rows and errors to table.

    A cell that fails in either phase drops out before the next fit and
    becomes one error row; the other cells' rows do not change.
    """
    cells = [(method, model_kind, derive_seed(rep_seed, 100 + mi, ki))
             for mi, method in enumerate(config.methods)
             for ki, model_kind in enumerate(config.models)]
    mixing = [cell for cell in cells if cell[0] in ALPHA_METHODS]
    # A one-value grid pins alpha; only a longer grid is searched.
    alphas: dict = dict.fromkeys(mixing, config.alpha_grid[0])
    failures: dict = {}
    if mixing and len(config.alpha_grid) > 1:
        found, failures = alpha_search(train, mixing, config)
        alphas = {cell: alpha for cell, (alpha, _) in found.items()}

    jobs = []
    for cell in cells:
        if cell in failures:
            continue
        method, model_kind, seed = cell
        try:
            data = _augment(train, method, config, seed, alphas.get(cell))
            # Dump before the fit: a failed dump fails its cell before any model trains.
            if config.dump_augmented and r == 0 and model_kind == config.models[0]:
                t = len(train)
                dump_augmented_csv(dump_path(config.dump_augmented, method), data,
                                   ("original",) * t + (ADDED_TAGS[method],) * t)
        except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
            failures[cell] = exc
            continue
        jobs.append((cell, data, seed, test))

    for i, result in _fit_and_score(jobs, config, failures).items():
        cell, data = jobs[i][:2]
        table.rows.append(ResultRow(
            method=cell[0],
            model=cell[1],
            replicate=r,
            alpha=alphas.get(cell),
            accuracy=result.accuracy,
            dp_gap_signed=result.dp_gap_signed,
            fairness=result.fairness,
            train_size=len(data),
            seed=rep_seed,
        ))
    table.errors += [CellError(method, model_kind, r, str(exc), type(exc).__name__)
                     for (method, model_kind, _), exc in failures.items()]


def run_experiment(config: ExperimentConfig) -> ResultTable:
    """Run every (method, model, replicate) cell; failures become error rows.

    Each replicate runs the two phases described in the module docstring.
    """
    full = None
    if config.csv_path is not None:
        full = load_csv(config.csv_path, config.csv_schema)
        if len(full) < 2:
            raise ValueError(f"{config.csv_path}: {len(full)} data row(s); "
                             "a run needs at least 2")
    table = ResultTable()
    if any(method in ALPHA_METHODS for method in config.methods):
        table.notes.append(
            f"alpha fixed at {config.alpha_grid[0]:g}" if len(config.alpha_grid) == 1
            else "alpha grid searched: " + ",".join(str(a) for a in sorted(config.alpha_grid))
            + " (internal validation selection)")
    table.notes += [
        (f"test sets are balanced at {TEST_COUNT_PER_SUBGROUP} samples per subgroup"
         if config.scenario is not None
         else f"test sets are stratified {config.test_fraction:g} fractions of the CSV"),
        *(f"{kind} settings: {getattr(config, kind)}" for kind in config.models),
    ]
    for r in range(config.replicates):
        rep_seed = derive_seed(config.seed, r)
        try:
            train, test = _replicate_data(config, full, rep_seed)
        except MemoryError:
            raise  # a size no replicate can allocate is a config error
        except Exception as exc:  # noqa: BLE001 - every cell of the replicate fails alone
            table.errors += [CellError(method, model_kind, r, str(exc), type(exc).__name__)
                             for method in config.methods for model_kind in config.models]
            continue
        _run_replicate(table, config, r, rep_seed, train, test)
    table.rows.sort(key=lambda row: (row.method, row.model, row.replicate))
    table.errors.sort(key=lambda err: (err.method, err.model, err.replicate))
    return table


def emit_results(table: ResultTable, path) -> str:
    """Write the results CSV and print a mean/std summary per method x model."""
    lines = [RESULTS_HEADER]
    for row in table.rows:
        alpha = "" if row.alpha is None else f"{row.alpha:.6f}"
        lines.append(
            f"{row.method},{row.model},{row.replicate},{alpha},"
            f"{row.accuracy:.6f},{row.dp_gap_signed:.6f},{row.fairness:.6f},"
            f"{row.train_size},{row.seed}"
        )
    Path(path).write_text("\n".join(lines) + "\n")

    print(f"results: {path} ({len(table.rows)} rows, {len(table.errors)} failed cells)")
    groups: dict[tuple[str, str], list[ResultRow]] = {}
    for row in table.rows:
        groups.setdefault((row.method, row.model), []).append(row)
    for (method, model), rows in sorted(groups.items()):
        acc = np.array([r.accuracy for r in rows])
        fair = np.array([r.fairness for r in rows])
        print(
            f"  {method:>13s} x {model:<6s}  accuracy {acc.mean():.3f} +/- {acc.std():.3f}"
            f"  fairness {fair.mean():.3f} +/- {fair.std():.3f}  (n={len(rows)})"
        )
    for err in table.errors:
        print(f"  FAILED {err.method} x {err.model} replicate {err.replicate}: "
              f"{err.exc_type}: {err.message}")
    for note in table.notes:
        print(f"  note: {note}")
    return str(path)
