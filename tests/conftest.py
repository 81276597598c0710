import numpy as np
import pytest

from sgmix import CsvSchema, Dataset
from sgmix.rng import RngStream

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
