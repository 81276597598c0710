"""Each benchmark workload's seed-0 output still hashes to its recorded fingerprint.

The fingerprint is the SHA-256 of a workload's output (for the pipeline
workloads, its results CSV), recorded in perfbench/fingerprints.json. A
refactor must keep every byte, so one pass of each workload runs here
through the benchmark's own set-up, pass and check.
"""
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
RECORDED = json.loads((BENCH / "fingerprints.json").read_text())


def load_workloads_module():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def versions() -> str:
    """numpy and its BLAS, since MLP bits may depend on them."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')}"


@pytest.mark.parametrize("name", sorted(RECORDED))
def test_workload_output_matches_its_recorded_seed_0_fingerprint(name, tmp_path):
    workload = load_workloads_module().WORKLOADS[name]
    state = workload.setup(0, tmp_path, False)
    _, failed, problems, fingerprint, _ = workload.check_pass(state, workload.run_pass(state))
    assert failed == 0 and problems == []
    expected = RECORDED[name]["0"]["sha256"]
    assert fingerprint == expected, (
        f"{name} seed 0: output hashes to {fingerprint}, recorded {expected} ({versions()})")
