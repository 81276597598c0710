"""Boundary probe: odd setting values and malformed CSVs, run through cli.main.

Every run must end as the README documents, whatever its input: exit 0, 1
or 2 with no exception escaping main, no warning, stderr empty or one
`error:` line, and only finite values in the results CSV. The runs are
in-process on a 200-row slice of the bundled stand-in, with tiny models.
"""
import contextlib
import io
import math
import warnings
from pathlib import Path

import pytest

from sgmix.cli import SETTINGS, main

from conftest import STANDIN_FEATURES

STANDIN = Path(__file__).resolve().parents[1] / "src" / "sgmix" / "data" / "admissions_standin.csv"
HEADER, *ROWS = STANDIN.read_text().splitlines()[:201]

TINY = {
    "experiment.replicates": "1",
    "experiment.alpha_grid": "1",
    "forest.n_trees": "3",
    "mlp.hidden_units": "4",
    "mlp.epochs": "3",
}
CSV_BASE = {
    **TINY,
    "csv.features": ",".join(STANDIN_FEATURES),
    "csv.label_column": "outcome",
    "csv.label_positive": "pass",
    "csv.label_negative": "fail",
    "csv.group_column": "group",
    "csv.group_positive": "A",
    "csv.group_negative": "B",
}
SCENARIO_BASE = {
    **TINY,
    "scenario.name": "unbalanced-groups",
    "scenario.dim": "2",
    **{f"scenario.t{y}{z}": "12" for y in (0, 1) for z in (0, 1)},
}
PATH_KEYS = ("csv.path", "experiment.out", "output.dump_augmented")

ODD_VALUES = (
    "", "0", "-1", "1", "-0", "2.5", "nan", "inf", "-inf", "1e309", "1e-320", "1e300",
    "99999999999999999999", "9223372036854775808", ",", "1,,2", "zzz", "True",
    "1e-320,1e300", "1,0->0,0", "1,0->0,0;0,0->1,0", "original,original", "fsgm,\\#",
)


def probe(tmp_path: Path, settings: dict, csv_text: str | None = None) -> str:
    """Run main on settings (plus the slice, or csv_text, for a CSV run) and
    check the four boundary outcomes; returns what went wrong, or ''."""
    out = tmp_path / "results.csv"
    out.unlink(missing_ok=True)
    settings = {**settings, "experiment.out": str(out)}
    if "csv.features" in settings:
        data = tmp_path / "data.csv"
        text = slice_text() if csv_text is None else csv_text
        data.write_bytes(text.encode("utf-8", "surrogateescape"))
        settings["csv.path"] = str(data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = main(["--config", str(cfg)])
        except BaseException as exc:  # noqa: BLE001 - nothing may escape main
            return f"{type(exc).__name__} escaped main: {exc}"
    err = stderr.getvalue()
    problems = []
    if code not in (0, 1, 2):
        problems.append(f"exit {code}")
    if caught:
        problems.append(f"warnings {[str(w.message) for w in caught]}")
    first, *details = err.splitlines() or [""]
    if err and not (first.startswith("error: ") and all(d.startswith("  ") for d in details)):
        problems.append(f"stderr {err!r}")
    if code != 2 and out.exists():
        for line in out.read_text().splitlines()[1:]:
            values = [v for v in line.split(",")[2:] if v]
            if not all(math.isfinite(float(v)) for v in values):
                problems.append(f"results row {line!r}")
    return "; ".join(problems)


def slice_text(rows=ROWS, header=HEADER, newline="\n") -> str:
    return newline.join([header, *rows]) + newline


def with_cells(column: str, values) -> str:
    """The slice with column's first len(values) cells replaced."""
    at = HEADER.split(",").index(column)
    rows = [row.split(",") for row in ROWS]
    for row, value in zip(rows, values):
        row[at] = value
    return slice_text([",".join(row) for row in rows])


def pass_b_rows(keep: int) -> str:
    """The slice keeping only the first keep (pass, B) rows."""
    seen, rows = 0, []
    for row in ROWS:
        if row.endswith(",pass,B"):
            seen += 1
            if seen > keep:
                continue
        rows.append(row)
    return slice_text(rows)


def other_label(row: str, column: int, value: str) -> str:
    cells = row.split(",")
    cells[column] = value
    return ",".join(cells)


CSV_MUTATIONS = {
    "header only": slice_text([]),
    "one row": slice_text(ROWS[:1]),
    "crlf": slice_text(newline="\r\n"),
    "blank lines": slice_text([row for r in ROWS for row in (r, "")]),
    "trailing comma": slice_text([row + "," for row in ROWS]),
    "short row": slice_text([ROWS[0].rsplit(",", 1)[0], *ROWS[1:]]),
    "long row": slice_text([ROWS[0] + ",1", *ROWS[1:]]),
    "unknown label": slice_text([other_label(ROWS[0], 7, "maybe"), *ROWS[1:]]),
    "quoted cell": slice_text(['"' + ROWS[0].replace(",", '",', 1), *ROWS[1:]]),
    "comma-space separators": slice_text([row.replace(",", ", ") for row in ROWS]),
    "nan cell": with_cells("gpa", ["nan"]),
    "Infinity cell": with_cells("gpa", ["Infinity"]),
    "empty cell": with_cells("gpa", [""]),
    "hex cell": with_cells("gpa", ["0x1p3"]),
    "NUL byte": with_cells("gpa", ["1\x002"]),
    "Latin-1 byte": with_cells("gpa", ["1\udce92"]),
    "BOM": "\ufeff" + slice_text(),
    "repeated header column": slice_text(
        [row + "," + row.split(",")[1] for row in ROWS], header=HEADER + ",gpa"),
    "reordered columns": slice_text(
        [",".join(reversed(row.split(","))) for row in ROWS],
        header=",".join(reversed(HEADER.split(",")))),
    "constant column": with_cells("age", ["30"] * len(ROWS)),
    "1e-320 column": with_cells("age", ["1e-320"] * len(ROWS)),
    "one group": slice_text([other_label(row, 8, "A") for row in ROWS]),
    "one label": slice_text([other_label(row, 7, "pass") for row in ROWS]),
    "no (pass, B) rows": pass_b_rows(0),
    "two (pass, B) rows": pass_b_rows(2),
    "six (pass, B) rows": pass_b_rows(6),
    "repeated rows": slice_text(ROWS[:100] * 2),
    "1_000 cell": with_cells("exam_score", ["1_000"]),
    "1e150 cell": with_cells("family_income", ["1e150"]),
    "1e160 cell": with_cells("family_income", ["1e160"]),
    "1e308 cell": with_cells("family_income", ["1e308"]),
    "alternating 1e300 column": with_cells(
        "family_income", ["1e300", "-1e300"] * (len(ROWS) // 2)),
}


@pytest.mark.parametrize("key", [key for key in SETTINGS if key not in PATH_KEYS])
def test_every_odd_setting_value_ends_at_the_boundary(tmp_path, key):
    base = SCENARIO_BASE if key.startswith("scenario.") else CSV_BASE
    failures = {value: problem for value in ODD_VALUES
                if (problem := probe(tmp_path, {**base, key: value}))}
    assert failures == {}


@pytest.mark.parametrize("text", CSV_MUTATIONS.values(), ids=CSV_MUTATIONS.keys())
def test_every_csv_mutation_ends_at_the_boundary(tmp_path, text):
    assert probe(tmp_path, CSV_BASE, text) == ""


@pytest.mark.parametrize("base", [CSV_BASE, SCENARIO_BASE], ids=["csv", "scenario"])
def test_the_probe_bases_score_every_cell(tmp_path, base):
    # a probe whose base run failed would show nothing about its inputs
    assert probe(tmp_path, base) == ""
    rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 8
