"""Spans around the calls into each sgmix layer, recorded from outside the program.

The tracer replaces each module attribute that a caller looks up (for
example `sgmix.harness.train_forest`) with a wrapper that records one span
per call: name, start, end and parent. Spans stay in memory and are written
as JSON lines when the run ends. Counts are taken at the same wrappers,
after the span's clock has stopped. A layer is an `src/sgmix/` module; a
span is named `<layer>.<function>`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


def _count_rows(counts, result, args):
    counts["rows"] += len(result)


def _count_fsgm(counts, result, args):
    counts["samples"] += len(result.produced)
    counts["lambda_draws"] += result.lambda_draws


def _count_samples(counts, result, args):
    counts["samples"] += len(result)


def _count_bootstrap(counts, result, args):
    counts["samples"] += len(result) - len(args["dataset"])


def _count_knn(counts, result, args):
    data, (y, z) = args["dataset"], args["target"]
    counts["dist_evals"] += int(((data.y == y) & (data.z == z)).sum())


def _count_forest(counts, result, args):
    counts["fits"] += 1
    counts["row_trees"] += len(args["x"]) * args["spec"].n_trees


def _count_mlp(counts, result, args):
    spec = args["spec"]
    counts["fits"] += 1
    counts["sgd_steps"] += spec.epochs * math.ceil(len(args["x"]) / spec.batch_size)


def _count_predict(counts, result, args):
    model = args["model"]
    if model.kind == "forest":
        counts["row_trees"] += len(args["features"]) * len(model.params["trees"])


# Span name -> (counter, every (module, attribute) a caller looks the function up by).
LAYERS = {
    "cli.main": (None, [("sgmix.cli", "main")]),
    "cli.config_from_settings": (None, [("sgmix.cli", "config_from_settings")]),
    "harness.run_experiment": (None, [("sgmix.cli", "run_experiment")]),
    "harness.emit_results": (None, [("sgmix.cli", "emit_results")]),
    "harness.alpha_search": (None, [("sgmix.harness", "alpha_search")]),
    "harness.run_method": (None, [("sgmix.harness", "run_method")]),
    "harness.train_test_split": (None, [("sgmix.harness", "train_test_split")]),
    "tabular.load_csv": (_count_rows, [("sgmix.harness", "load_csv")]),
    "synth.gen_conditional_gaussian": (None, [("sgmix.harness", "gen_conditional_gaussian")]),
    "augment.fsgm_augment": (_count_fsgm, [("sgmix.harness", "fsgm_augment"),
                                           ("sgmix.augment", "fsgm_augment")]),
    "augment.vanilla_mixup": (_count_samples, [("sgmix.harness", "vanilla_mixup"),
                                               ("sgmix.augment", "vanilla_mixup")]),
    "augment.group_swap_augment": (_count_samples, [("sgmix.harness", "group_swap_augment")]),
    "augment.bootstrap": (_count_bootstrap, [("sgmix.harness", "bootstrap")]),
    "neighbors.knn_in_subgroup": (_count_knn, [("sgmix.augment", "knn_in_subgroup")]),
    "models.train_forest": (_count_forest, [("sgmix.harness", "train_forest")]),
    "models.train_mlp": (_count_mlp, [("sgmix.harness", "train_mlp")]),
    "models.predict": (_count_predict, [("sgmix.metrics", "predict")]),
    "metrics.evaluate": (None, [("sgmix.harness", "evaluate")]),
}
ROOT_SPAN = "bench.pass"
MODEL_FITS = ("models.train_forest", "models.train_mlp")

# Per-layer metrics, per traced pass: (name, unit). `<span>.s` is inclusive
# busy time, `<span>.self_s` excludes child spans, `layer.<module>.self_s`
# sums self time over a module's spans.
METRICS = [
    ("models.train_forest.s", "s"),
    ("models.train_forest.fits", "count"),
    ("models.train_forest.row_trees", "count"),
    ("models.train_forest.ns_per_row_tree", "ns"),
    ("models.predict.s", "s"),
    ("models.predict.row_trees", "count"),
    ("models.train_mlp.s", "s"),
    ("models.train_mlp.fits", "count"),
    ("models.train_mlp.sgd_steps", "count"),
    ("models.train_mlp.us_per_step", "us"),
    ("neighbors.knn_in_subgroup.s", "s"),
    ("neighbors.knn_in_subgroup.calls", "count"),
    ("neighbors.knn_in_subgroup.dist_evals", "count"),
    ("augment.fsgm_augment.s", "s"),
    ("augment.fsgm_augment.self_s", "s"),
    ("augment.fsgm_augment.samples", "count"),
    ("augment.fsgm_augment.lambda_draws", "count"),
    ("augment.vanilla_mixup.s", "s"),
    ("augment.group_swap_augment.s", "s"),
    ("augment.bootstrap.s", "s"),
    ("harness.alpha_search.s", "s"),
    ("harness.alpha_search.fits", "count"),
    ("harness.alpha_search.useful_ratio", "ratio"),
    ("harness.run_method.self_s", "s"),
    ("harness.train_test_split.s", "s"),
    ("harness.run_experiment.self_s", "s"),
    ("harness.emit_results.s", "s"),
    ("tabular.load_csv.s", "s"),
    ("tabular.load_csv.rows", "count"),
    ("synth.gen_conditional_gaussian.s", "s"),
    ("cli.config_from_settings.s", "s"),
    ("cli.main.self_s", "s"),
    ("metrics.evaluate.self_s", "s"),
    *((f"layer.{layer}.self_s", "s") for layer in
      ("bench", "cli", "harness", "tabular", "synth", "augment", "neighbors",
       "models", "metrics")),
    ("trace.run_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace_overhead", "ratio"),
]


class Tracer:
    """Installs the wrappers, records spans and counts, derives the metrics."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        for name, (counter, sites) in LAYERS.items():
            wrappers = {}
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(name, original, counter)
                self._patched.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _begin(self, name: str) -> int:
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, index: int, start: float, end: float) -> None:
        self._open.pop()
        self.spans[index][1] = start
        self.spans[index][2] = end

    def _wrap(self, name, original, counter):
        signature = inspect.signature(original)
        counts = self.counts[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = self._begin(name)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                self._end(index, start, perf_counter())
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(counts, result, bound.arguments)
            return result

        return wrapper

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        start = perf_counter()
        try:
            yield
        finally:
            self._end(index, start, perf_counter())

    def _has_ancestor(self, index: int, names) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds `s`, `self_s` and `calls`."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = totals[name]
            entry["self_s"] += (end - start) - child_time[i]
            entry["calls"] += 1
            if not self._has_ancestor(i, (name,)):
                entry["s"] += end - start
        return totals

    def metrics(self, passes: int, traced_run_s: float, untraced_run_s: float) -> dict:
        """Every METRICS value, per traced pass."""
        totals = self.totals()
        values = {}
        for name, entry in totals.items():
            for key in ("s", "self_s", "calls"):
                values[f"{name}.{key}"] = entry[key] / passes
            for key, count in self.counts[name].items():
                values[f"{name}.{key}"] = count / passes
            layer = name.split(".", 1)[0]
            key = f"layer.{layer}.self_s"
            values[key] = values.get(key, 0.0) + entry["self_s"] / passes

        def get(key):
            return values.get(key, 0.0)

        forest_work = get("models.train_forest.row_trees")
        values["models.train_forest.ns_per_row_tree"] = (
            get("models.train_forest.s") * 1e9 / forest_work if forest_work else 0.0)
        steps = get("models.train_mlp.sgd_steps")
        values["models.train_mlp.us_per_step"] = (
            get("models.train_mlp.s") * 1e6 / steps if steps else 0.0)
        fits = sum(get(f"{name}.fits") for name in MODEL_FITS)
        search_fits = sum(
            1 for i, span in enumerate(self.spans)
            if span[0] in MODEL_FITS and self._has_ancestor(i, ("harness.alpha_search",))
        ) / passes
        values["harness.alpha_search.fits"] = search_fits
        values["harness.alpha_search.useful_ratio"] = (
            (fits - search_fits) / fits if fits else 0.0)
        values["trace.run_s"] = traced_run_s
        values["trace.self_sum_s"] = sum(entry["self_s"] for entry in totals.values()) / passes
        values["trace_overhead"] = traced_run_s / untraced_run_s - 1.0
        return {name: {"value": get(name), "unit": unit} for name, unit in METRICS}

    def write_jsonl(self, path) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")
