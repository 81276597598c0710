"""Command-line entry point: run an experiment and write the results CSV.

Settings come from three layers: the dataclass defaults, then a `key = value`
config file (--config), then command-line flags; later layers win. Exactly
one data source must end up set: a named scenario or a CSV path.
"""
from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from pathlib import Path

from .harness import (
    METHODS, MODEL_KINDS, ExperimentConfig, dump_path, emit_results, run_experiment,
)
from .models import ForestSpec, MlpSpec
from .synth import SCENARIO_NAMES, preset_scenario
from .tabular import CsvSchema, load_config

def _parse_pairs(text: str):
    """Parse `y,z->y,z` pairs separated by semicolons."""
    pairs = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        match = re.fullmatch(r"(\d+)\s*,\s*(\d+)\s*->\s*(\d+)\s*,\s*(\d+)", part)
        if match is None:
            raise ValueError(f"bad pair {part!r}; expected like 1,0->0,0")
        sy, sz, ty, tz = (int(v) for v in match.groups())
        pairs.append(((sy, sz), (ty, tz)))
    return tuple(pairs)


def _comma_list(text: str) -> tuple[str, ...]:
    return tuple(item.strip() for item in text.split(","))


def _column_names(text: str) -> tuple[str, ...]:
    return tuple(name for name in _comma_list(text) if name)


def _delimiter(text: str) -> str:
    """The text `\\t` names a tab, which a stripped config value cannot hold."""
    return "\t" if text == "\\t" else text


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _spec_settings(prefix: str, spec) -> dict:
    """One int or float setting per spec field."""
    return {
        f"{prefix}.{f.name}": (prefix, f.name, float if f.type in ("float", float) else int)
        for f in dataclasses.fields(spec)
    }


# Every config key: the part it builds, the field it sets there, its parser.
# Parts: "experiment" is ExperimentConfig; "shifts" is the scenario preset's
# ShiftSpec; "counts" is its training counts, set per [y, z] cell; "forest",
# "mlp" and "csv" are ForestSpec, MlpSpec and CsvSchema. A key left unset
# keeps the default of its dataclass or preset.
SETTINGS = {
    "experiment.seed": ("experiment", "seed", int),
    "experiment.out": ("experiment", "out", str),
    "experiment.methods": ("experiment", "methods", _comma_list),
    "experiment.models": ("experiment", "models", _comma_list),
    "experiment.replicates": ("experiment", "replicates", int),
    "experiment.alpha_grid": ("experiment", "alpha_grid", _floats),
    "experiment.test_fraction": ("experiment", "test_fraction", float),
    "scenario.name": ("experiment", "scenario", str),
    "scenario.class_shift": ("shifts", "class_shift_magnitude", float),
    "scenario.group_shift": ("shifts", "group_shift_magnitude", float),
    "scenario.angle": ("shifts", "angle", float),
    "scenario.dim": ("shifts", "dim", int),
    **{f"scenario.t{y}{z}": ("counts", (y, z), int) for y in (0, 1) for z in (0, 1)},
    "fsgm.k": ("experiment", "k", int),
    "fsgm.pairs": ("experiment", "pairs", _parse_pairs),
    **_spec_settings("forest", ForestSpec),
    **_spec_settings("mlp", MlpSpec),
    "csv.path": ("experiment", "csv_path", str),
    "csv.features": ("csv", "feature_columns", _column_names),
    **{f"csv.{f.name}": ("csv", f.name, str)
       for f in dataclasses.fields(CsvSchema) if f.name not in ("feature_columns", "delimiter")},
    "csv.delimiter": ("csv", "delimiter", _delimiter),
    "output.dump_augmented": ("experiment", "dump_augmented", str),
}


def build_parser() -> argparse.ArgumentParser:
    """Flags store their raw text under a SETTINGS key; SETTINGS parses it."""
    parser = argparse.ArgumentParser(
        prog="sgmix",
        description="Subgroup-mixup fairness experiments on synthetic or CSV data.",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", dest="experiment.seed", help="master seed (default 0)")
    parser.add_argument("--scenario", dest="scenario.name", choices=SCENARIO_NAMES,
                        help="named synthetic scenario")
    parser.add_argument("--csv", dest="csv.path",
                        help="path to a CSV dataset (needs csv.* schema keys)")
    parser.add_argument("--out", dest="experiment.out", help="path for the results CSV")
    parser.add_argument("--methods", dest="experiment.methods",
                        help="comma list from: " + ",".join(METHODS))
    parser.add_argument("--models", dest="experiment.models",
                        help="comma list from: " + ",".join(MODEL_KINDS))
    parser.add_argument("--replicates", dest="experiment.replicates")
    parser.add_argument("--alpha-grid", dest="experiment.alpha_grid",
                        help="comma list of positive reals")
    parser.add_argument("--k", dest="fsgm.k", help="neighbors per source draw")
    parser.add_argument("--test-fraction", dest="experiment.test_fraction")
    parser.add_argument("--dump-augmented", dest="output.dump_augmented",
                        help="base path; per-method augmented training sets "
                             "of replicate 0 are written next to it")
    return parser


def _merged_settings(args) -> dict[str, str]:
    settings = load_config(args.config) if args.config else {}
    for key, value in vars(args).items():
        if key != "config" and value is not None:
            settings[key] = value
    return settings


def _schema_from(fields: dict) -> CsvSchema:
    required = [f.name for f in dataclasses.fields(CsvSchema)
                if f.default is dataclasses.MISSING]
    missing = sorted(key for key, (part, name, _) in SETTINGS.items()
                     if part == "csv" and name in required and name not in fields)
    if missing:
        raise ValueError(f"CSV input needs config keys: {missing}")
    return CsvSchema(**fields)


def config_from_settings(settings: dict[str, str]) -> tuple[ExperimentConfig, str]:
    """Build the experiment config from raw `key -> text` settings.

    Every bad key or value raises ValueError: unknown keys, values their
    parser rejects (the message names the key), and values the dataclasses
    reject (the message names the field).
    """
    unknown = sorted(set(settings) - set(SETTINGS))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")
    parts = {part: {} for part in ("experiment", "shifts", "counts", "forest", "mlp", "csv")}
    for key, text in settings.items():
        part, name, parse = SETTINGS[key]
        try:
            parts[part][name] = parse(text)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from None

    fields = parts["experiment"]
    out = fields.pop("out", None)
    if out is None:
        raise ValueError("an output path is required (--out or experiment.out)")
    scenario = fields.get("scenario")
    if parts["shifts"] or parts["counts"]:
        if scenario is None:
            keys = sorted(key for key in settings if SETTINGS[key][0] in ("shifts", "counts"))
            raise ValueError(f"{', '.join(keys)}: set only with scenario.name (--scenario)")
        preset = preset_scenario(scenario)
        if parts["shifts"]:
            fields["shifts"] = dataclasses.replace(preset.shifts, **parts["shifts"])
        if parts["counts"]:
            counts = preset.counts.tolist()
            for (y, z), n in parts["counts"].items():
                counts[y][z] = n
            fields["counts"] = tuple(map(tuple, counts))
    if fields.get("csv_path") is not None:
        fields["csv_schema"] = _schema_from(parts["csv"])
    fields["forest"] = ForestSpec(**parts["forest"])
    fields["mlp"] = MlpSpec(**parts["mlp"])
    config = ExperimentConfig(**fields)
    return config, out


def _same_file(a: str, b: str) -> bool:
    a, b = Path(a), Path(b)
    if a.exists() and b.exists():
        return a.samefile(b)
    return a.resolve() == b.resolve()


def _check_written_paths(config: ExperimentConfig, out: str, config_file: str | None) -> None:
    """Reject, before any model trains, a file the run writes that could not be
    written: its directory is missing, it is a directory, or it is a file the
    run reads or another file it writes."""
    taken = [(path, what) for path, what in ((config.csv_path, "the input CSV"),
                                             (config_file, "the config file")) if path]
    written = [("experiment.out", out)]
    if config.dump_augmented:
        written += [("output.dump_augmented", dump_path(config.dump_augmented, method))
                    for method in config.methods]
    for key, path in written:
        if not Path(path).parent.is_dir():
            raise ValueError(f"{key}: directory {str(Path(path).parent)!r} does not exist")
        if Path(path).is_dir():
            raise ValueError(f"{key}: {str(Path(path))!r} is a directory, not a file")
        for other, what in taken:
            if _same_file(path, other):
                raise ValueError(f"{key}: {path!r} is {what}; it would be overwritten")
        taken.append((path, f"the {key} path"))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, out = config_from_settings(_merged_settings(args))
        _check_written_paths(config, out, args.config)
        table = run_experiment(config)
        emit_results(table, out)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if table.errors and not table.rows:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
