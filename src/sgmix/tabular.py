"""Schema-driven CSV ingestion, the flat config-file format, and CSV dumps.

A CsvSchema names the feature columns (in order), the label column with its
positive value, and the group column with its group-1 value. Declaring the
negative value is optional; when present, any other value in that column is
an error instead of silently mapping to 0.
"""
from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass

import numpy as np

from .data import Dataset

_LISTED_ROWS = 10  # rejected rows a load_csv error lists one by one


@dataclass(frozen=True)
class CsvSchema:
    feature_columns: tuple[str, ...]
    label_column: str
    label_positive: str
    group_column: str
    group_positive: str
    label_negative: str | None = None
    group_negative: str | None = None
    delimiter: str = ","

    def __post_init__(self):
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))
        if not self.feature_columns:
            raise ValueError("at least one feature column is required")
        names = (*self.feature_columns, self.label_column, self.group_column)
        if len(set(names)) != len(names):
            raise ValueError("feature, label, and group columns must be disjoint")
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got {self.delimiter!r}")
        for column in ("label", "group"):
            positive = getattr(self, f"{column}_positive")
            if getattr(self, f"{column}_negative") == positive:
                raise ValueError(
                    f"{column}_negative must differ from {column}_positive, got {positive!r}")


def _map_binary(raw: str, positive: str, negative: str | None, column: str) -> int:
    if raw == positive:
        return 1
    if negative is None or raw == negative:
        return 0
    raise ValueError(f"unknown value {raw!r} in column {column!r}")


def _read_text(path) -> str:
    """The file as UTF-8 text, less a leading byte-order mark (as spreadsheet tools save it)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:  # exc.object is raw less any byte-order mark
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(
            f"{path}: line {line} is not UTF-8 text (byte {exc.object[exc.start]:#04x})") from None


def load_csv(path, schema: CsvSchema) -> Dataset:
    """Parse a header-led UTF-8 CSV into a Dataset.

    Any row with an unparseable cell or a nan/inf feature is rejected; one
    error counts the rejected rows and lists the first _LISTED_ROWS of them,
    each with the 1-based file line it starts on. A header may repeat only
    columns the schema does not read.
    """
    with io.StringIO(_read_text(path), newline="") as fh:
        reader = csv.reader(fh, delimiter=schema.delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: file is empty, expected a header row") from None
        positions = {name: i for i, name in enumerate(header)}
        needed = (*schema.feature_columns, schema.label_column, schema.group_column)
        missing = [name for name in needed if name not in positions]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        for name in needed:
            if header.count(name) > 1:
                raise ValueError(
                    f"{path}: column {name!r} appears {header.count(name)} times in the header")
        feat_pos = [positions[name] for name in schema.feature_columns]
        label_pos = positions[schema.label_column]
        group_pos = positions[schema.group_column]

        xs, ys, zs, bad = [], [], [], []
        next_line = reader.line_num + 1  # quoted cells may span lines, so ask the reader
        for row in reader:
            line_no, next_line = next_line, reader.line_num + 1
            if not row:
                continue
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} cells, got {len(row)}")
                features = []
                for name, pos in zip(schema.feature_columns, feat_pos):
                    try:
                        value = float(row[pos])
                    except ValueError:
                        raise ValueError(
                            f"non-numeric feature {name!r}: {row[pos]!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise ValueError(f"non-finite feature {name!r}: {row[pos]!r}")
                    features.append(value)
                y = _map_binary(row[label_pos], schema.label_positive,
                                schema.label_negative, schema.label_column)
                z = _map_binary(row[group_pos], schema.group_positive,
                                schema.group_negative, schema.group_column)
            except ValueError as exc:
                bad.append(f"line {line_no}: {exc}")
                continue
            xs.append(features)
            ys.append(y)
            zs.append(z)
    if bad:
        listed = bad[:_LISTED_ROWS]
        if len(bad) > _LISTED_ROWS:
            listed.append(f"… and {len(bad) - _LISTED_ROWS} more")
        raise ValueError(f"{path}: rejected {len(bad)} row(s):\n  " + "\n  ".join(listed))
    if not xs:
        return Dataset.empty(len(schema.feature_columns))
    return Dataset(np.asarray(xs, dtype=np.float64), np.asarray(ys), np.asarray(zs))


def parse_config_text(text: str) -> dict[str, str]:
    """Flat `key = value` lines; '#' comments; dotted prefixes group keys; no repeats.

    `\\#` stands for a literal '#' and starts no comment, so a value can hold one.
    """
    out: dict[str, str] = {}
    line_of: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?<!\\)#", raw, maxsplit=1)[0].replace("\\#", "#").strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected `key = value`, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"config line {line_no}: empty key")
        if key in line_of:
            raise ValueError(
                f"config line {line_no}: key {key!r} is already set on line {line_of[key]}")
        line_of[key] = line_no
        out[key] = value.strip()
    return out


def load_config(path) -> dict[str, str]:
    """parse_config_text of a UTF-8 file."""
    return parse_config_text(_read_text(path))


def dump_augmented_csv(path, dataset: Dataset, origins) -> None:
    """Write rows as x1..xd,y,z,origin; features keep full precision."""
    origins = list(origins)
    if len(origins) != len(dataset):
        raise ValueError(f"{len(origins)} origins for {len(dataset)} samples")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(dataset.dim)] + ["y", "z", "origin"])
        for x, y, z, origin in zip(dataset.x, dataset.y, dataset.z, origins):
            writer.writerow([repr(float(v)) for v in x] + [int(y), int(z), origin])
