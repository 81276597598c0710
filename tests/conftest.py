import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgmix import CsvSchema, Dataset
from sgmix.rng import RngStream

SRC = Path(__file__).resolve().parents[1] / "src"

STANDIN_FEATURES = (
    "exam_score", "gpa", "first_year_score", "final_score",
    "family_income", "age", "rank_decile",
)


def random_dataset(seed: int, t: int = 40, d: int = 3, ensure_all_subgroups: bool = True) -> Dataset:
    """Random dataset for property tests; by default every (y, z) cell is hit."""
    stream = RngStream(seed)
    x = stream.standard_normal((t, d))
    y = stream.integers(0, 2, size=t)
    z = stream.integers(0, 2, size=t)
    if ensure_all_subgroups and t >= 4:
        y[:4] = (0, 0, 1, 1)
        z[:4] = (0, 1, 0, 1)
    return Dataset(x, y, z)


@pytest.fixture
def standin_schema() -> CsvSchema:
    return CsvSchema(
        feature_columns=STANDIN_FEATURES,
        label_column="outcome",
        label_positive="pass",
        label_negative="fail",
        group_column="group",
        group_positive="A",
        group_negative="B",
    )


@pytest.fixture
def standin_path() -> str:
    from importlib import resources

    return str(resources.files("sgmix") / "data" / "admissions_standin.csv")


def run_python(args, timeout: float) -> subprocess.CompletedProcess:
    """Run `python *args` with this checkout's src on the path, in a child
    process, so code that never ends fails its test at the timeout."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout)
