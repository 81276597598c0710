import csv
import dataclasses
import io
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from sgmix.cli import SETTINGS, build_parser, config_from_settings, main
from sgmix.harness import RESULTS_HEADER, ExperimentConfig
from sgmix.synth import ShiftSpec, preset_scenario
from sgmix.tabular import dump_augmented_csv

from conftest import STANDIN_FEATURES, random_dataset, run_python

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
    # A fit's seed derives from experiment.seed; the specs have no seed key.
    for line in ("experiment.turbo = yes", "forest.seed = 3", "mlp.seed = 3"):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
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


def test_cli_diverged_mlp_fails_its_cell_without_numpy_warnings(tmp_path):
    """Run as users do, with Python's default warning filters."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mlp.learning_rate = 1e300\nmlp.epochs = 5\n")
    done = run_python(
        ["-m", "sgmix.cli", "--config", str(cfg),
         "--scenario", "unbalanced-groups", "--methods", "original", "--models", "mlp",
         "--replicates", "1", "--out", str(tmp_path / "results.csv")], timeout=120)
    assert done.returncode == 1
    assert ("FAILED original x mlp replicate 0: ValueError: mlp weights diverged to a "
            "non-finite output; lower mlp.learning_rate") in done.stdout
    assert done.stderr == ""  # no numpy RuntimeWarning on the way


def test_cli_run_at_a_tiny_alpha_ends(tmp_path):
    """Every Gamma(1e-30) draw underflows to 0; the run must still end, here
    within a child process's timeout, and raise no numpy warning."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(fast_config_text())
    out = tmp_path / "results.csv"
    done = run_python(
        ["-W", "error", "-m", "sgmix.cli", "--config", str(cfg), "--scenario", "unbalanced-groups",
         "--methods", "fsgm,vanilla-mixup", "--models", "forest", "--replicates", "1",
         "--alpha-grid", "1e-30", "--out", str(out)], timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    rows = out.read_text().split("\n")[1:-1]
    assert [row.split(",")[:4] for row in rows] == [
        ["fsgm", "forest", "0", "0.000000"], ["vanilla-mixup", "forest", "0", "0.000000"]]


def test_cli_dump_comes_before_the_fit_that_fails(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mlp.learning_rate = 1e300\nmlp.epochs = 5\n")
    code = main([
        "--config", str(cfg),
        "--scenario", "unbalanced-groups",
        "--models", "mlp",
        "--replicates", "1",
        "--alpha", "1",
        "--out", str(tmp_path / "results.csv"),
        "--dump-augmented", str(tmp_path / "aug.csv"),
    ])
    assert code == 1
    assert capsys.readouterr().out.count("FAILED") == 4
    # Every cell's diverged model fails after its training set was dumped.
    t = int(preset_scenario("unbalanced-groups").counts.sum())
    for method in ("original", "fsgm", "vanilla-mixup", "group-swap"):
        lines = (tmp_path / f"aug.{method}.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 2 * t


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


# One config line per bad value, the data source it runs with, and the key or
# field its error line must name.
BAD_VALUES = [
    ("scenario.angle = nan", "scenario", "angle"),
    ("scenario.class_shift = inf", "scenario", "class_shift_magnitude"),
    ("scenario.class_shift = -1", "scenario", "shift magnitudes must be nonnegative"),
    ("experiment.test_fraction = 1.5", "csv", "test_fraction"),
    ("experiment.validation_fraction = 0", "scenario",
     "unknown config keys: ['experiment.validation_fraction']"),
    ("scenario.t00 = 99999999999999999999", "scenario", "counts"),
    ("scenario.t11 = -1", "scenario", "counts"),
    ("experiment.alpha_grid = -1", "scenario", "alpha_grid"),
    ("experiment.alpha_grid = 0.5,nan", "scenario", "alpha_grid"),
    ("experiment.alpha_grid = 0.5,0.5,1", "scenario", "alpha_grid must not repeat"),
    ("fsgm.alpha = 0.5", "scenario", "unknown config keys: ['fsgm.alpha']"),
    ("fsgm.k = 0", "scenario", "k must be"),
    ("forest.n_trees = abc", "scenario", "forest.n_trees"),
    ("mlp.learning_rate = inf", "scenario", "learning_rate"),
    ("experiment.seed = -1", "scenario", "seed"),
    ("fsgm.standardize = maybe", "scenario", "unknown config keys: ['fsgm.standardize']"),
    ("fsgm.pairs = 1,0->1,0", "scenario", "coincide"),
    ("fsgm.pairs = 5,5->0,0", "scenario", "0 or 1"),
    ("fsgm.pairs = 1,0->0", "scenario", "bad pair"),
    ("fsgm.pairs = 1,0,1->0,0", "scenario", "bad pair"),
    ("scenario.angle = nan", "csv", "scenario.angle"),
    ("scenario.t00 = -5", "csv", "scenario.t00"),
    ("experiment.methods = original,original", "scenario", "methods must not repeat"),
    ("experiment.models = forest,forest", "scenario", "models must not repeat"),
    ("csv.label_negative = pass", "csv", "label_negative must differ from label_positive"),
    ("csv.group_negative = A", "csv", "group_negative must differ from group_positive"),
]


@pytest.mark.parametrize("line,source,name", BAD_VALUES, ids=[
    f"{line} with --csv" if source == "csv" and line.startswith("scenario.") else line
    for line, source, _ in BAD_VALUES
])
def test_cli_rejects_bad_value(tmp_path, capsys, standin_path, line, source, name):
    cfg = tmp_path / "bad.cfg"
    if source == "csv":  # the line's key replaces the stand-in schema's own
        schema = "".join(f"{key} = {value}\n" for key, value in STANDIN_SCHEMA.items()
                         if key != line.split("=")[0].strip())
        cfg.write_text(schema + line + "\n")
        data = ["--csv", standin_path]
    else:
        cfg.write_text(line + "\n")
        data = ["--scenario", "unbalanced-groups"]
    out = tmp_path / "r.csv"
    code = main(["--config", str(cfg), *data, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and name in err and err.count("\n") == 1, err
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
    # a --dump-augmented file that is a directory is stopped by the same rule
    (tmp_path / out / "base.fsgm.csv").mkdir()
    code = main(["--scenario", "unbalanced-groups", "--out", "r.csv", "--methods",
                 "original,fsgm", "--dump-augmented", str(Path(out, "base.csv"))])
    err = capsys.readouterr().err
    dump = str(Path(out, "base.fsgm.csv"))
    assert code == 2
    assert err == f"error: output.dump_augmented: {dump!r} is a directory, not a file\n", err


def test_cli_rejects_key_repeated_in_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment.seed = 1\nexperiment.seed = 2\n")
    code = main(["--config", str(cfg), "--scenario", "unbalanced-groups",
                 "--out", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: config line 2: key 'experiment.seed' is already set on line 1\n", err


@pytest.mark.parametrize("source,lines,message", [
    ("csv", "forest.features_per_split = 9\n",
     "forest.features_per_split=9 exceeds feature count 7"),
    ("scenario", fast_config_text() + "scenario.dim = 2\nforest.features_per_split = 3\n",
     "forest.features_per_split=3 exceeds feature count 2"),
], ids=["csv", "scenario"])
def test_cli_rejects_features_per_split_past_feature_count(tmp_path, capsys, monkeypatch,
                                                          standin_path, source, lines, message):
    def must_not_run(config):
        raise AssertionError("run_experiment called despite too many features per split")

    cfg = tmp_path / "run.cfg"
    if source == "csv":
        schema = "".join(f"{key} = {value}\n" for key, value in STANDIN_SCHEMA.items())
        cfg.write_text(schema + lines)
        data = ["--csv", standin_path]
    else:
        cfg.write_text(lines)
        data = ["--scenario", "unbalanced-groups"]
    out = tmp_path / "r.csv"
    with monkeypatch.context() as patch:
        patch.setattr("sgmix.cli.run_experiment", must_not_run)
        code = main(["--config", str(cfg), *data, "--out", str(out), "--methods", "original,fsgm",
                     "--models", "forest", "--replicates", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {message}\n", err
    assert not out.exists()

    # The forest setting does not bind an MLP-only run.
    cfg.write_text(cfg.read_text() + "mlp.epochs = 1\n")
    code = main(["--config", str(cfg), *data, "--out", str(out), "--methods", "original",
                 "--models", "mlp", "--replicates", "1"])
    assert code == 0, capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 2


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
    # A typo this long would otherwise start a run that never ends; a 0 names
    # the one field that is wrong.
    def must_not_run(config):
        raise AssertionError("run_experiment called despite a bad size")

    monkeypatch.setattr("sgmix.cli.run_experiment", must_not_run)
    field = key.split(".")[1]
    huge = "99999999999999999999"
    for value, message in ((huge, f"{field} must fit in int64, got {huge}"),
                           ("0", f"{field} must be >= 1, got 0")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            config_from_settings({"scenario.name": "unbalanced-groups",
                                  "experiment.out": "r.csv", key: value})
        cfg = tmp_path / "size.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code = main(["--config", str(cfg), "--scenario", "unbalanced-groups",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"


X1_SCHEMA = ("csv.features = x1\ncsv.label_column = y\ncsv.label_positive = 1\n"
             "csv.group_column = z\ncsv.group_positive = 1\n")


def test_cli_rejects_non_finite_csv_feature(tmp_path, capsys):
    data = tmp_path / "input.csv"
    data.write_text("x1,y,z\n0.5,1,0\nnan,0,1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(X1_SCHEMA)
    code = main(["--config", str(cfg), "--csv", str(data), "--out", str(tmp_path / "r.csv")])
    assert code == 2
    assert "line 3: non-finite feature 'x1'" in capsys.readouterr().err


@pytest.mark.parametrize("rows", [0, 1])
def test_cli_rejects_csv_with_fewer_than_two_rows(tmp_path, capsys, rows):
    data = tmp_path / "input.csv"
    data.write_text("x1,y,z\n" + "0.5,1,0\n" * rows)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(X1_SCHEMA)
    out = tmp_path / "r.csv"
    code = main(["--config", str(cfg), "--csv", str(data), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: {data}: {rows} data row(s); a run needs at least 2\n"
    assert "FAILED" not in captured.out
    assert not out.exists()


def test_cli_two_row_csv_in_different_cells_fails_its_split(tmp_path, capsys):
    """Each row is alone in its (y, z) cell, so the split leaves no test row."""
    data = tmp_path / "input.csv"
    data.write_text("x1,y,z\n0.5,1,0\n0.25,0,1\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(X1_SCHEMA)
    out = tmp_path / "r.csv"
    code = main(["--config", str(cfg), "--csv", str(data), "--out", str(out),
                 "--methods", "original", "--models", "forest", "--replicates", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    failed = [line for line in captured.out.split("\n") if "FAILED" in line]
    assert failed == ["  FAILED original x forest replicate 0: "
                      "ValueError: degenerate split: one side would be empty"]


@pytest.mark.parametrize("variant", ["byte-order marks", "tab delimiter", "hash delimiter"])
def test_cli_standin_variants_give_byte_identical_results(tmp_path, standin_path, variant):
    plain_csv = Path(standin_path).read_bytes()
    plain_cfg = "".join(f"{key} = {value}\n" for key, value in
                        {**STANDIN_SCHEMA, "forest.n_trees": "3"}.items()).encode()
    if variant == "byte-order marks":
        data, cfg = b"\xef\xbb\xbf" + plain_csv, b"\xef\xbb\xbf" + plain_cfg
    else:  # a stripped config value cannot hold a tab, so `\t` names one; `\#` is a literal #
        delimiter, setting = ("\t", b"\\t") if variant == "tab delimiter" else ("#", b"\\#")
        with open(standin_path, newline="") as fh:
            text = io.StringIO()
            csv.writer(text, delimiter=delimiter, lineterminator="\n").writerows(csv.reader(fh))
        data, cfg = text.getvalue().encode(), plain_cfg + b"csv.delimiter = " + setting + b"\n"

    def results(name, data, cfg):
        data_path, cfg_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.cfg"
        data_path.write_bytes(data)
        cfg_path.write_bytes(cfg)
        out = tmp_path / f"{name}.results.csv"
        code = main(["--config", str(cfg_path), "--csv", str(data_path), "--out", str(out),
                     "--replicates", "1", "--methods", "original,fsgm", "--models", "forest",
                     "--alpha-grid", "1"])
        assert code == 0
        return out.read_bytes()

    assert results("variant", data, cfg) == results("plain", plain_csv, plain_cfg)


@pytest.mark.parametrize("which", ["csv", "config"])
def test_cli_rejects_a_file_that_is_not_utf8(tmp_path, capsys, which):
    data = tmp_path / "input.csv"
    data.write_text("x1,y,z\n" + "0.5,1,0\n0.25,0,1\n" * 10)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(X1_SCHEMA)
    bad = data if which == "csv" else cfg
    line = bad.read_bytes().count(b"\n") + 1
    bad.write_bytes(bad.read_bytes() + "# G\u00e4ste\n".encode("latin-1"))
    out = tmp_path / "r.csv"
    code = main(["--config", str(cfg), "--csv", str(data), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {bad}: line {line} is not UTF-8 text (byte 0xe4)\n"
    assert not out.exists()


def test_cli_rejects_out_that_is_the_input_csv(tmp_path, capsys, monkeypatch):
    data = tmp_path / "input.csv"
    data.write_text("x1,y,z\n" + "0.5,1,0\n0.25,0,1\n" * 10)
    before = data.read_bytes()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(X1_SCHEMA)
    monkeypatch.chdir(tmp_path)  # the same file under another spelling
    code = main(["--config", str(cfg), "--csv", str(data), "--out", "input.csv", *FAST])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: experiment.out: ") and "input CSV" in err, err
    assert "Traceback" not in err
    assert data.read_bytes() == before


@pytest.mark.parametrize("flags, key, what", [
    (["--out", "run.cfg"], "experiment.out", "the config file"),
    (["--csv", "d.original.csv", "--out", "r.csv", "--dump-augmented", "d.csv",
      "--methods", "original"], "output.dump_augmented", "the input CSV"),
    (["--out", "r.fsgm.csv", "--dump-augmented", "r.csv", "--methods", "fsgm"],
     "output.dump_augmented", "the experiment.out path"),
], ids=["out-is-config", "dump-is-csv", "dump-is-out"])
def test_cli_rejects_a_written_path_that_is_read_or_written_twice(tmp_path, capsys, monkeypatch,
                                                                  flags, key, what):
    def must_not_run(config):
        raise AssertionError("run_experiment called despite a path collision")

    monkeypatch.setattr("sgmix.cli.run_experiment", must_not_run)
    monkeypatch.chdir(tmp_path)
    Path("d.original.csv").write_text("x1,y,z\n" + "0.5,1,0\n0.25,0,1\n" * 10)
    Path("run.cfg").write_text(X1_SCHEMA + "csv.path = d.original.csv\n")
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    code = main(["--config", "run.cfg", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {key}: ") and what in err and err.count("\n") == 1, err
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before


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
        reals = [config.test_fraction, *config.alpha_grid, config.mlp.learning_rate]
        if config.resolved_shifts is not None:
            shifts = config.resolved_shifts
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


@pytest.mark.parametrize("scenario, settings, parts", [
    *(pytest.param(scenario, {}, {}, id=scenario) for scenario in
      ("unbalanced-groups", "unbalanced-class", "underrepresented-subgroup")),
    # a shift key sets shifts alone, a count key counts alone, each over its preset
    pytest.param("unbalanced-groups", {"scenario.angle": "0.5"},
                 {"shifts": ShiftSpec(angle=0.5)}, id="shift-key"),
    pytest.param("unbalanced-class", {"scenario.t00": "20"},
                 {"counts": ((20, 100), (60, 10))}, id="count-key"),
    pytest.param("underrepresented-subgroup", {"scenario.class_shift": "2.5", "scenario.t11": "7"},
                 {"shifts": ShiftSpec(class_shift_magnitude=2.5, angle=math.pi / 6),
                  "counts": ((200, 200), (10, 7))}, id="shift-and-count-keys"),
])
def test_config_from_settings_adds_nothing_the_library_would_not(scenario, settings, parts):
    config, _ = config_from_settings({"scenario.name": scenario, "experiment.out": "r.csv",
                                      **settings})
    expected = ExperimentConfig(scenario=scenario, **parts)
    assert config == expected
    assert hash(config) == hash(expected)


def test_settings_set_every_experiment_config_field():
    """Each ExperimentConfig init field has one key, or is built from its part's keys."""
    named = [name for part, name, _ in SETTINGS.values()
             if part == "experiment" and name != "out"]
    assert len(set(named)) == len(named), named
    fields = {f.name for f in dataclasses.fields(ExperimentConfig) if f.init}
    assert {*named, "csv_schema", "shifts", "counts", "forest", "mlp"} == fields


def test_every_flag_stores_into_its_own_settings_key():
    dests = [action.dest for action in build_parser()._actions
             if action.option_strings and action.dest not in ("help", "config")]
    assert len(set(dests)) == len(dests), dests
    assert set(dests) <= set(SETTINGS), sorted(set(dests) - set(SETTINGS))


def test_readme_key_table_matches_settings():
    section = README.read_text().split("### Config file", 1)[1].split("\n#", 1)[0]
    documented = set()
    for prefix, names in re.findall(r"^\| `(\w+)\.` \| (.*) \|$", section, re.MULTILINE):
        documented.update(f"{prefix}.{name}" for name in re.findall(r"`(\w+)`", names))
    assert len(documented) == 36
    assert documented == set(SETTINGS)
