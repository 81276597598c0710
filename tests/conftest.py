import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgmix import CsvSchema, Dataset
from sgmix.models import TrainedModel
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


def forest_model(trees, dim: int) -> TrainedModel:
    """A forest of nested-dict trees, each node {"leaf": label} or {"feature",
    "threshold", "left", "right"}, laid out as train_forest grows its node
    table: each tree's root, then a split's two children in adjacent rows and
    the left one's subtree before the right one's."""
    nodes, roots, depth = [], [], 0

    def place(node, at, level):
        if "leaf" in node:
            nodes[at] = 0, math.inf, at, node["leaf"]
            return level
        c = len(nodes)
        nodes[at] = node["feature"], node["threshold"], c, 0
        nodes.extend([None, None])
        return max(place(node["left"], c, level + 1), place(node["right"], c + 1, level + 1))

    for tree in trees:
        roots.append(len(nodes))
        nodes.append(None)
        depth = max(depth, place(tree, roots[-1], 0))
    feature, threshold, child, leaf = zip(*nodes)
    return TrainedModel(kind="forest", dim=dim, params={
        "trees": np.array(roots, dtype=np.intp), "feature": np.array(feature, dtype=np.intp),
        "threshold": np.array(threshold, dtype=np.float64),
        "child": np.array(child, dtype=np.intp), "leaf": np.array(leaf, dtype=np.int64),
        "depth": depth})


def tree_dicts(model: TrainedModel) -> list:
    """A forest's node table read back as forest_model's nested dicts, one
    per tree; a node whose child is itself is a leaf."""
    p = model.params

    def node(i):
        c = int(p["child"][i])
        if c == i:
            return {"leaf": int(p["leaf"][i])}
        return {"feature": int(p["feature"][i]), "threshold": float(p["threshold"][i]),
                "left": node(c), "right": node(c + 1)}

    return [node(int(root)) for root in p["trees"]]


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
