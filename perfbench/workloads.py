"""The benchmark's workloads: their inputs, set-up, timed pass and output check.

Nothing here imports sgmix at module level. The orchestrator (run.py) uses
the input and check helpers without loading the program under test; only
the worker process imports sgmix, from the checkout's own `src/`.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import random
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
STANDIN_CSV = SRC_DIR / "sgmix" / "data" / "admissions_standin.csv"
SCHEMA_CFG = BENCH_DIR / "admissions.cfg"

RESULTS_HEADER = "method,model,replicate,alpha,accuracy,dp_gap_signed,fairness,train_size,seed"
GRID_SIZE = 5  # the harness's default alpha grid: 0.1, 0.5, 1, 2, 4
# Model fits per (method, model) cell: an alpha method fits once per grid
# alpha on an inner split, then once more on the full training part.
FITS_PER_CELL = {"original": 1, "fsgm": GRID_SIZE + 1,
                 "vanilla-mixup": GRID_SIZE + 1, "group-swap": 1}
CSV_TEST_FRACTION = 0.3  # the CLI default
# Training counts [[t00, t01], [t10, t11]] of the scenario, as the README documents.
UNDERREPRESENTED_COUNTS = ((200, 200), (10, 200))

# CLI flag for each settings key a workload sets.
FLAGS = {
    "csv.path": "--csv",
    "scenario.name": "--scenario",
    "experiment.methods": "--methods",
    "experiment.models": "--models",
    "experiment.replicates": "--replicates",
    "experiment.seed": "--seed",
    "experiment.out": "--out",
}


def import_sgmix() -> None:
    """Import sgmix from this checkout's src/, never from an installed copy."""
    if not (SRC_DIR / "sgmix" / "__init__.py").is_file():
        raise RuntimeError(f"no sgmix package under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import sgmix

    if not Path(sgmix.__file__).resolve().is_relative_to(SRC_DIR):
        raise RuntimeError(f"sgmix imported from {sgmix.__file__}, not {SRC_DIR}")


def stratified_train_rows(counts, test_fraction: float) -> int:
    """Training rows left by the harness's stratified split of these subgroup counts."""
    total = 0
    for n in counts:
        if n <= 1:
            total += n
            continue
        n_test = min(max(int(round(n * test_fraction)), 1), n - 1)
        total += n - n_test
    return total


def standin_subgroup_counts() -> list[int]:
    counts = {}
    with open(STANDIN_CSV, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["outcome"] == "pass", row["group"] == "A")
            counts[key] = counts.get(key, 0) + 1
    return list(counts.values())


# ------------------------------------------------------------ output checks


def check_results_csv(text: str, cells, train_size: int):
    """Check a results CSV against the cells it must hold.

    Returns (failed cell count, violation messages). A cell fails when its row
    is missing or duplicated, when train_size is not 2T, when accuracy or
    fairness is not finite in [0, 1], or when fairness != 1 - |dp_gap_signed|.
    A row for a cell that was not asked for counts as one more failure.
    """
    lines = text.splitlines()
    if not lines or lines[0] != RESULTS_HEADER:
        return len(cells), ["results CSV header is missing or wrong"]
    bad, problems, seen = set(), [], set()
    extra = 0
    for line_no, row in enumerate(csv.reader(lines[1:]), start=2):
        try:
            method, model, replicate, _alpha, acc, gap, fair, size, _seed = row
            key = (method, model)
            acc, gap, fair = float(acc), float(gap), float(fair)
            replicate, size = int(replicate), int(size)
        except ValueError:
            problems.append(f"line {line_no}: unparseable row {row!r}")
            extra += 1
            continue
        if key not in cells or replicate != 0:
            problems.append(f"line {line_no}: unexpected cell {key} replicate {replicate}")
            extra += 1
            continue
        if key in seen:
            problems.append(f"line {line_no}: duplicate row for {key}")
            bad.add(key)
        seen.add(key)
        if size != train_size:
            problems.append(f"line {line_no}: train_size {size}, expected {train_size}")
            bad.add(key)
        for name, value in (("accuracy", acc), ("fairness", fair)):
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                problems.append(f"line {line_no}: {name} {value} outside [0, 1]")
                bad.add(key)
        # Values are written with 6 decimals, so allow two rounding steps.
        if not abs(fair - (1.0 - abs(gap))) <= 2e-6:
            problems.append(f"line {line_no}: fairness {fair} != 1 - |{gap}|")
            bad.add(key)
    for key in cells:
        if key not in seen:
            problems.append(f"no row for cell {key}")
            bad.add(key)
    return min(len(cells), len(bad) + extra), problems


def fsgm_quality(text: str) -> dict[str, float]:
    """Mean accuracy and fairness over the fsgm rows of a results CSV."""
    rows = [row for row in csv.DictReader(io.StringIO(text)) if row["method"] == "fsgm"]
    if not rows:
        return {}
    return {
        "fsgm_accuracy": sum(float(r["accuracy"]) for r in rows) / len(rows),
        "fsgm_fairness": sum(float(r["fairness"]) for r in rows) / len(rows),
    }


def check_augmented(dataset, new_count: int, dim: int) -> list[str]:
    """An augmenter's output must hold exactly new_count finite rows, labels in {0, 1}."""
    import numpy as np

    problems = []
    if dataset.x.shape != (new_count, dim):
        problems.append(f"produced features of shape {dataset.x.shape}, "
                        f"expected ({new_count}, {dim})")
    elif not np.isfinite(dataset.x).all():
        problems.append("produced non-finite features")
    for name, labels in (("y", dataset.y), ("z", dataset.z)):
        if labels.shape != (new_count,) or not np.isin(labels, (0, 1)).all():
            problems.append(f"labels {name} are not {new_count} values in {{0, 1}}")
    return problems


# ------------------------------------------------------------ workloads


class PipelineWorkload:
    """One `sgmix` CLI run per pass; the results CSV is the output."""

    kind = "pipeline"

    def __init__(self, name, settings, cells, train_rows, config=None, tiny_lines=()):
        self.name = name
        self.settings = settings      # settings keys given as CLI flags
        self.cells = cells            # (method, model) cells expected
        self.train_rows = train_rows  # callable giving T, the training rows
        self.config = config          # the --config file, if any
        self.tiny_lines = tiny_lines  # extra config lines for a tiny run

    @property
    def fits_per_pass(self) -> int:
        return sum(FITS_PER_CELL[method] for method, _ in self.cells)

    def config_path(self, run_dir: Path, tiny: bool) -> Path | None:
        """The --config file: the checked-in one, or a tiny variant in run_dir."""
        if not tiny:
            return self.config
        path = run_dir / "tiny.cfg"
        base = self.config.read_text() if self.config else ""
        path.write_text(base + "".join(line + "\n" for line in self.tiny_lines))
        return path

    def flag_settings(self, seed: int, out: Path) -> dict[str, str]:
        return {**self.settings, "experiment.seed": str(seed), "experiment.out": str(out)}

    def argv(self, seed: int, out: Path, config: Path | None) -> list[str]:
        argv = ["--config", str(config)] if config else []
        for key, value in self.flag_settings(seed, out).items():
            argv += [FLAGS[key], value]
        return argv

    def setup(self, seed: int, run_dir: Path, tiny: bool):
        """Build the config as the CLI does, then load or generate the data."""
        from sgmix import cli, synth, tabular

        config_file = self.config_path(run_dir, tiny)
        out = run_dir / "results.csv"
        settings = tabular.load_config(config_file) if config_file else {}
        settings.update(self.flag_settings(seed, out))
        config, _ = cli.config_from_settings(settings)
        if config.csv_path is not None:
            tabular.load_csv(config.csv_path, config.csv_schema)
        else:
            preset = synth.preset_scenario(config.scenario, seed)
            synth.gen_conditional_gaussian(preset)
            synth.gen_conditional_gaussian(synth.balanced_test_config(preset.shifts, seed))
        return {"argv": self.argv(seed, out, config_file), "out": out}

    def run_pass(self, state):
        """The timed part: one CLI invocation, then a read of its results CSV."""
        from sgmix import cli

        out = state["out"]
        out.unlink(missing_ok=True)
        printed = io.StringIO()
        try:
            with redirect_stdout(printed):
                code = cli.main(state["argv"])  # looked up per call, so a wrapper applies
        except Exception as exc:  # noqa: BLE001 - a crash is a failed pass, not a lost run
            code = f"{type(exc).__name__}: {exc}"
        return code, printed.getvalue(), out.read_text() if out.exists() else ""

    def check_pass(self, state, result):
        """Returns (attempted, failed, problems, output fingerprint, quality)."""
        code, printed, text = result
        failed, problems = check_results_csv(text, self.cells, 2 * self.train_rows())
        if code != 0:
            problems.append(f"sgmix ended with {code!r}")
            failed = len(self.cells)
        if "FAILED" in printed:  # the CLI prints one FAILED line per error row
            problems.append("sgmix reported failed cells")
            failed = max(failed, 1)
        fingerprint = hashlib.sha256(text.encode()).hexdigest()
        return len(self.cells), failed, problems, fingerprint, fsgm_quality(text)


class AugmentSweepWorkload:
    """The library path: fsgm_augment over alphas x seeds, then vanilla_mixup."""

    kind = "library"
    name = "augment-sweep"
    seeds_per_pass = 3
    k = 5
    vanilla_alpha = 1.0  # the harness's alpha when none is searched

    def seeds(self, seed: int, tiny: bool) -> list[int]:
        rng = random.Random(seed)
        return [rng.randrange(2**31) for _ in range(1 if tiny else self.seeds_per_pass)]

    def setup(self, seed: int, run_dir: Path, tiny: bool):
        from sgmix import cli, harness, tabular

        settings = tabular.load_config(SCHEMA_CFG)
        settings.update({"csv.path": str(STANDIN_CSV), "experiment.out": str(run_dir)})
        config, _ = cli.config_from_settings(settings)
        data = tabular.load_csv(config.csv_path, config.csv_schema)
        return {
            "data": data,
            "pairs": harness.DEFAULT_PAIRS["csv"],
            "alphas": sorted(config.alpha_grid)[:1 if tiny else None],
            "seeds": self.seeds(seed, tiny),
            "new_count": 50 if tiny else len(data),
        }

    def calls_per_pass(self, state) -> int:
        return len(state["seeds"]) * (len(state["alphas"]) + 1)

    def samples_per_pass(self, state) -> int:
        return self.calls_per_pass(state) * state["new_count"]

    def run_pass(self, state):
        """The timed part. Outputs are kept and checked after the clock stops."""
        from sgmix import augment  # functions looked up per call, so wrappers apply
        data, new_count = state["data"], state["new_count"]
        produced = []

        def call(thunk):
            try:
                produced.append(thunk())
            except Exception as exc:  # noqa: BLE001 - a crash is a failed call
                produced.append(f"{type(exc).__name__}: {exc}")

        for seed in state["seeds"]:
            for alpha in state["alphas"]:
                call(lambda: augment.fsgm_augment(data, augment.FsgmConfig(
                    pairs=state["pairs"], new_count=new_count, k=self.k, alpha=alpha,
                    seed=seed, standardize=True)).produced)
        for seed in state["seeds"]:
            call(lambda: augment.vanilla_mixup(data, new_count, self.vanilla_alpha, seed))
        return produced

    def check_pass(self, state, produced):
        import numpy as np

        problems, failed = [], 0
        digest = hashlib.sha256()
        for i, dataset in enumerate(produced):
            if isinstance(dataset, str):
                problems.append(f"call {i} raised {dataset}")
                failed += 1
                digest.update(dataset.encode())
                continue
            found = check_augmented(dataset, state["new_count"], state["data"].dim)
            problems += [f"call {i}: {p}" for p in found]
            failed += bool(found)
            for arr in (dataset.x, dataset.y, dataset.z):
                arr = np.ascontiguousarray(arr)
                digest.update(f"{arr.dtype.str}{arr.shape}".encode())
                digest.update(arr.tobytes())
        attempted = self.calls_per_pass(state)
        if len(produced) != attempted:
            problems.append(f"{len(produced)} outputs for {attempted} calls")
            failed = attempted
        return attempted, failed, problems, digest.hexdigest(), {}


WORKLOADS = {
    "csv-forest": PipelineWorkload(
        "csv-forest",
        {"csv.path": str(STANDIN_CSV), "experiment.methods": "original,fsgm",
         "experiment.models": "forest", "experiment.replicates": "1"},
        cells=(("original", "forest"), ("fsgm", "forest")),
        train_rows=lambda: stratified_train_rows(standin_subgroup_counts(),
                                                 CSV_TEST_FRACTION),
        config=SCHEMA_CFG,
        tiny_lines=("forest.n_trees = 3", "forest.max_depth = 3"),
    ),
    "synth-mlp": PipelineWorkload(
        "synth-mlp",
        {"scenario.name": "underrepresented-subgroup", "experiment.models": "mlp",
         "experiment.replicates": "1"},
        cells=tuple((m, "mlp") for m in ("original", "fsgm", "vanilla-mixup", "group-swap")),
        train_rows=lambda: sum(map(sum, UNDERREPRESENTED_COUNTS)),
        tiny_lines=("mlp.epochs = 2",),
    ),
    "augment-sweep": AugmentSweepWorkload(),
}
