"""Fast self-check of the benchmark at tiny sizes (well under a minute on 2 cores).

    python3 perfbench/selfcheck.py

Runs every workload with --tiny, untraced and traced, and asserts that the
last line of each run is a correct result naming exactly the metrics, with
their units, that BENCHMARK.json lists for that mode. Then asserts that the
output checks reject a corrupted results CSV and a malformed augmenter output.
"""
from __future__ import annotations

import json
import subprocess
import sys
from types import SimpleNamespace

import numpy as np

from workloads import OUT_DIR, ROOT, WORKLOADS, check_augmented, check_results_csv


def check_printed_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    assert names == set(WORKLOADS), f"BENCHMARK.json workloads {names} != {set(WORKLOADS)}"
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in sorted(WORKLOADS):
            command = [sys.executable, *spec["command"][1:], "--workload", workload,
                       "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                  timeout=180, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, (workload, trace, done.stdout)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, (workload, trace, set(printed) ^ set(expected))
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            print(f"ok  {workload} --trace {trace}: {len(printed)} metrics")


def check_rejects_corruption() -> None:
    workload = WORKLOADS["csv-forest"]
    good = (OUT_DIR / "csv-forest-seed0-trace0-tiny" / "results.csv").read_text()
    train_size = 2 * workload.train_rows()
    assert check_results_csv(good, workload.cells, train_size) == (0, [])

    header, first, second = good.splitlines()[:3]
    fields = first.split(",")

    def with_field(index: int, value: str) -> str:
        row = fields.copy()
        row[index] = value
        return "\n".join([header, ",".join(row), second]) + "\n"

    corrupted = {
        "wrong header": good.replace("fairness", "fair", 1),
        "missing row": "\n".join([header, first]) + "\n",
        "duplicate row": "\n".join([header, first, first, second]) + "\n",
        "train_size not 2T": with_field(7, str(train_size - 1)),
        "nan accuracy": with_field(4, "nan"),
        "fairness above 1": with_field(6, "1.500000"),
        "fairness != 1 - |gap|": with_field(6, f"{float(fields[6]) - 0.01:.6f}"),
        "unexpected cell": good + "group-swap,forest,0,,0.5,0.0,1.0,1,0\n",
    }
    for name, text in corrupted.items():
        failed, problems = check_results_csv(text, workload.cells, train_size)
        assert failed >= 1 and problems, f"corruption not rejected: {name}"
        print(f"ok  results CSV rejected: {name}")

    rows = SimpleNamespace(x=np.zeros((4, 2)), y=np.array([0, 1, 1, 0]), z=np.zeros(4, int))
    assert check_augmented(rows, 4, 2) == []
    assert check_augmented(rows, 5, 2), "wrong row count not rejected"
    assert check_augmented(SimpleNamespace(x=rows.x, y=np.array([0, 2, 1, 0]), z=rows.z), 4, 2)
    assert check_augmented(SimpleNamespace(x=rows.x * np.nan, y=rows.y, z=rows.z), 4, 2)
    print("ok  augmenter output rejected: wrong count, label 2, nan features")


if __name__ == "__main__":
    check_printed_metrics()
    check_rejects_corruption()
    print("selfcheck passed")
