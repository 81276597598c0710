import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from sgmix.cli import SETTINGS, config_from_settings, main
from sgmix.harness import RESULTS_HEADER
from sgmix.tabular import dump_augmented_csv

from conftest import STANDIN_FEATURES, random_dataset

README = Path(__file__).resolve().parents[1] / "README.md"

STANDIN_SCHEMA = {
    "csv.features": ",".join(STANDIN_FEATURES),
    "csv.label_column": "outcome",
    "csv.label_positive": "pass",
    "csv.label_negative": "fail",
    "csv.group_column": "group",
    "csv.group_positive": "A",
    "csv.group_negative": "B",
}

FAST = [
    "--replicates", "1",
    "--methods", "original",
    "--models", "forest",
]


def fast_config_text():
    return (
        "# shrink everything for a quick run\n"
        "forest.n_trees = 5\n"
        "scenario.t00 = 10\n"
        "scenario.t01 = 20\n"
        "scenario.t10 = 10\n"
        "scenario.t11 = 20\n"
    )


def test_cli_scenario_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fast_config_text())
    out = tmp_path / "results.csv"
    code = main([
        "--config", str(cfg),
        "--scenario", "unbalanced-groups",
        "--seed", "3",
        "--out", str(out),
        *FAST,
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == RESULTS_HEADER
    assert len(lines) == 2
    assert lines[1].startswith("original,forest,0,,")
    assert "results:" in capsys.readouterr().out


def test_cli_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fast_config_text() + "experiment.seed = 1\nexperiment.replicates = 3\n")
    out = tmp_path / "results.csv"
    code = main([
        "--config", str(cfg),
        "--scenario", "unbalanced-groups",
        "--seed", "99",
        "--replicates", "1",
        "--methods", "original",
        "--models", "forest",
        "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 1  # CLI replicates beat the config file's 3


def test_cli_csv_run(tmp_path):
    ds = random_dataset(0, t=60, d=3)
    data = tmp_path / "input.csv"
    dump_augmented_csv(data, ds, ["original"] * 60)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "forest.n_trees = 5\n"
        "csv.features = x1,x2,x3\n"
        "csv.label_column = y\n"
        "csv.label_positive = 1\n"
        "csv.group_column = z\n"
        "csv.group_positive = 1\n"
        "fsgm.pairs = 1,0->0,0;0,0->1,0\n"
    )
    out = tmp_path / "results.csv"
    code = main([
        "--config", str(cfg),
        "--csv", str(data),
        "--alpha", "1.0",
        "--out", str(out),
        "--replicates", "1",
        "--methods", "original,fsgm",
        "--models", "forest",
    ])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 2
    methods = {row.split(",")[0] for row in rows}
    assert methods == {"original", "fsgm"}


def test_cli_dump_augmented(tmp_path):
    out = tmp_path / "results.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fast_config_text())
    code = main([
        "--config", str(cfg),
        "--scenario", "unbalanced-groups",
        "--out", str(out),
        "--dump-augmented", str(tmp_path / "aug.csv"),
        *FAST,
    ])
    assert code == 0
    assert (tmp_path / "aug.original.csv").exists()


def test_cli_rejects_two_sources(tmp_path, capsys):
    code = main([
        "--scenario", "unbalanced-groups",
        "--csv", "whatever.csv",
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_cli_rejects_missing_source(tmp_path):
    assert main(["--out", str(tmp_path / "r.csv")]) == 2


def test_cli_requires_out():
    assert main(["--scenario", "unbalanced-groups"]) == 2


def test_cli_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment.turbo = yes\n")
    code = main([
        "--config", str(cfg),
        "--scenario", "unbalanced-groups",
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_cli_rejects_unknown_method(tmp_path):
    code = main([
        "--scenario", "unbalanced-groups",
        "--methods", "smote",
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2


def test_cli_missing_csv_schema(tmp_path, capsys):
    code = main([
        "--csv", str(tmp_path / "input.csv"),
        "--out", str(tmp_path / "r.csv"),
    ])
    assert code == 2
    assert "csv." in capsys.readouterr().err


def test_cli_exit_one_when_every_cell_fails(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fast_config_text())
    out = tmp_path / "results.csv"
    code = main([
        "--config", str(cfg),
        "--scenario", "unbalanced-groups",
        "--out", str(out),
        "--replicates", "1",
        "--methods", "fsgm",
        "--models", "forest",
        "--alpha", "1.0",
        "--k", "500",
    ])
    assert code == 1
    assert out.read_text() == RESULTS_HEADER + "\n"


def test_cli_alpha_and_a_one_value_grid_pin_alpha_without_a_search(tmp_path, capsys,
                                                                   monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fast_config_text() + "mlp.epochs = 5\n")

    def no_search(*args):
        raise AssertionError("a one-value grid ran the alpha search")

    monkeypatch.setattr("sgmix.harness.alpha_search", no_search)
    runs = {}
    for flag in ("--alpha", "--alpha-grid"):
        out = tmp_path / f"{flag}.csv"
        code = main(["--config", str(cfg), "--scenario", "unbalanced-groups", "--out", str(out),
                     "--methods", "original,fsgm", "--models", "forest,mlp",
                     "--replicates", "2", flag, "0.5"])
        notes = [line for line in capsys.readouterr().out.split("\n") if "note:" in line]
        assert code == 0
        runs[flag] = (out.read_bytes(), notes)
    assert runs["--alpha"] == runs["--alpha-grid"]
    assert "  note: alpha fixed at 0.5" in runs["--alpha"][1]
    rows = runs["--alpha"][0].decode().split("\n")[1:-1]
    assert [row.split(",")[3] for row in rows] == ["0.500000"] * 4 + [""] * 4


def test_cli_alpha_wins_over_the_grid_it_replaces_which_is_still_checked(tmp_path, capsys):
    config, _ = config_from_settings({"scenario.name": "unbalanced-groups",
                                      "experiment.out": "r.csv",
                                      "experiment.alpha_grid": "0.1,2", "fsgm.alpha": "4"})
    assert config.alpha_grid == (4.0,)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("experiment.alpha_grid = 0.5,0.5\n")
    out = tmp_path / "r.csv"
    code = main(["--config", str(cfg), "--scenario", "unbalanced-groups", "--alpha", "0.5",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: alpha_grid must not repeat")
    assert not out.exists()


# One config line per bad value, the data source it runs with, and the key or
# field its error line must name.
BAD_VALUES = [
    ("scenario.angle = nan", "scenario", "angle"),
    ("scenario.class_shift = inf", "scenario", "class_shift_magnitude"),
    ("experiment.test_fraction = 1.5", "csv", "test_fraction"),
    ("experiment.validation_fraction = 0", "scenario", "validation_fraction"),
    ("scenario.t00 = 99999999999999999999", "scenario", "counts"),
    ("scenario.t11 = -1", "scenario", "counts"),
    ("experiment.alpha_grid = -1", "scenario", "alpha_grid"),
    ("experiment.alpha_grid = 0.5,nan", "scenario", "alpha_grid"),
    ("experiment.alpha_grid = 0.5,0.5,1", "scenario", "alpha_grid must not repeat"),
    ("fsgm.alpha = nan", "scenario", "alpha_grid"),
    ("fsgm.k = 0", "scenario", "k must be"),
    ("forest.n_trees = abc", "scenario", "forest.n_trees"),
    ("mlp.learning_rate = inf", "scenario", "learning_rate"),
    ("experiment.seed = -1", "scenario", "seed"),
    ("fsgm.standardize = maybe", "scenario", "fsgm.standardize"),
    ("fsgm.pairs = 1,0->1,0", "scenario", "coincide"),
    ("fsgm.pairs = 5,5->0,0", "scenario", "0 or 1"),
    ("scenario.angle = nan", "csv", "scenario.angle"),
    ("scenario.t00 = -5", "csv", "scenario.t00"),
    ("experiment.methods = original,original", "scenario", "methods must not repeat"),
    ("experiment.models = forest,forest", "scenario", "models must not repeat"),
]


@pytest.mark.parametrize("line,source,name", BAD_VALUES, ids=[
    f"{line} with --csv" if source == "csv" and line.startswith("scenario.") else line
    for line, source, _ in BAD_VALUES
])
def test_cli_rejects_bad_value(tmp_path, capsys, standin_path, line, source, name):
    cfg = tmp_path / "bad.cfg"
    if source == "csv":
        schema = "".join(f"{key} = {value}\n" for key, value in STANDIN_SCHEMA.items())
        cfg.write_text(schema + line + "\n")
        data = ["--csv", standin_path]
    else:
        cfg.write_text(line + "\n")
        data = ["--scenario", "unbalanced-groups"]
    out = tmp_path / "r.csv"
    code = main(["--config", str(cfg), *data, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and name in err, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["experiment.out", "output.dump_augmented"])
def test_cli_rejects_missing_output_directory_before_the_run(tmp_path, capsys, monkeypatch,
                                                             key):
    def must_not_run(config):
        raise AssertionError("run_experiment called despite a missing output directory")

    monkeypatch.setattr("sgmix.cli.run_experiment", must_not_run)
    paths = {"experiment.out": tmp_path / "r.csv", "output.dump_augmented": tmp_path / "aug.csv"}
    paths[key] = tmp_path / "missing" / paths[key].name
    code = main(["--scenario", "unbalanced-groups", "--out", str(paths["experiment.out"]),
                 "--dump-augmented", str(paths["output.dump_augmented"])])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {key}: ") and "missing" in err and err.count("\n") == 1, err


@pytest.mark.parametrize("out", ["", ".", "results"])
def test_cli_rejects_directory_as_out_before_the_run(tmp_path, capsys, monkeypatch, out):
    def must_not_run(config):
        raise AssertionError("run_experiment called despite a directory as output")

    monkeypatch.setattr("sgmix.cli.run_experiment", must_not_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "results").mkdir()
    code = main(["--scenario", "unbalanced-groups", "--out", out])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: experiment.out: {out or '.'!r} is a directory, not a file\n", err


def test_cli_rejects_key_repeated_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment.seed = 1\nexperiment.seed = 2\n")
    code = main(["--config", str(cfg), "--scenario", "unbalanced-groups",
                 "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: config line 2: key 'experiment.seed' is already set on line 1\n", err


@pytest.mark.parametrize("key", ["scenario.t00", "scenario.dim"])
def test_cli_rejects_size_that_cannot_be_allocated(tmp_path, capsys, key):
    # 10**15 rows or columns of float64 exceed any address space, so numpy
    # refuses the allocation before it touches memory.
    out = tmp_path / "r.csv"
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"{key} = {10**15}\n")
    code = main(["--config", str(cfg), "--scenario", "unbalanced-groups", "--out", str(out),
                 *FAST])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


SIZING_KEYS = ["forest.n_trees", "forest.max_depth", "forest.min_leaf",
               "forest.features_per_split", "mlp.hidden_units", "mlp.epochs", "mlp.batch_size",
               "experiment.replicates", "fsgm.k", "scenario.dim"]


@pytest.mark.parametrize("key", SIZING_KEYS)
def test_sizing_integer_past_int64_is_rejected_before_the_run(tmp_path, capsys, monkeypatch,
                                                               key):
    # A typo this long would otherwise start a run that never ends.
    huge = "99999999999999999999"
    message = f"{key.split('.')[1]} must fit in int64, got {huge}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        config_from_settings({"scenario.name": "unbalanced-groups",
                              "experiment.out": "r.csv", key: huge})

    def must_not_run(config):
        raise AssertionError("run_experiment called despite an unbounded size")

    monkeypatch.setattr("sgmix.cli.run_experiment", must_not_run)
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"{key} = {huge}\n")
    code = main(["--config", str(cfg), "--scenario", "unbalanced-groups",
                 "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_rejects_non_finite_csv_feature(tmp_path, capsys):
    data = tmp_path / "input.csv"
    data.write_text("x1,y,z\n0.5,1,0\nnan,0,1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text("csv.features = x1\ncsv.label_column = y\ncsv.label_positive = 1\n"
                   "csv.group_column = z\ncsv.group_positive = 1\n")
    code = main(["--config", str(cfg), "--csv", str(data), "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "line 3: non-finite feature 'x1'" in capsys.readouterr().err


def test_config_from_settings_returns_config_or_value_error(tmp_path, monkeypatch, capsys,
                                                            standin_path):
    """Random settings dicts never escape as anything but a ValueError.

    The first ten that build a config also run through `main`, shrunk to one
    replicate, two trees and one epoch; each exits 0, 1 or 2 with no traceback.
    """
    pool = ("", "nan", "inf", "-1", "0", "1e400", "99999999999999999999", "abc",
            "1,0->0,0", "1->0")
    keys = sorted(SETTINGS) + ["experiment.turbo", "forest.seed", "mlp.seed", "scenario"]
    bases = (
        {"scenario.name": "unbalanced-groups", "experiment.out": "r.csv"},
        {"csv.path": standin_path, "experiment.out": "r.csv", **STANDIN_SCHEMA},
    )
    rng = random.Random(0)
    outcomes = {"config": 0, "error": 0}
    built = []
    for _ in range(300):
        settings = dict(rng.choice(bases))
        for key in rng.sample(keys, rng.randint(1, 4)):
            settings[key] = rng.choice(pool)
        try:
            config, out = config_from_settings(settings)
        except ValueError:
            outcomes["error"] += 1
            continue
        outcomes["config"] += 1
        built.append(settings)
        assert out == settings["experiment.out"]
        reals = [config.test_fraction, config.validation_fraction, *config.alpha_grid,
                 config.mlp.learning_rate]
        if config.shifts is not None:
            shifts = config.shifts
            reals += [shifts.class_shift_magnitude, shifts.group_shift_magnitude, shifts.angle]
        assert all(math.isfinite(v) for v in reals), settings
    assert outcomes["config"] > 0 and outcomes["error"] > 0, outcomes

    monkeypatch.chdir(tmp_path)  # drawn output and dump paths are relative
    shrink = {"experiment.replicates": "1", "forest.n_trees": "2", "mlp.epochs": "1"}
    for i, settings in enumerate(built[:10]):
        cfg = tmp_path / f"draw{i}.cfg"
        cfg.write_text("".join(f"{key} = {value}\n"
                               for key, value in {**settings, **shrink}.items()))
        code = main(["--config", str(cfg)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (settings, code, err)
        assert "Traceback" not in err, settings


def test_readme_key_table_matches_settings():
    section = README.read_text().split("### Config file", 1)[1].split("\n#", 1)[0]
    documented = set()
    for prefix, names in re.findall(r"^\| `(\w+)\.` \| (.*) \|$", section, re.MULTILINE):
        documented.update(f"{prefix}.{name}" for name in re.findall(r"`(\w+)`", names))
    assert len(documented) == 39
    assert documented == set(SETTINGS)
