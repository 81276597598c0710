"""The quick demos run clean, and the stand-in generator rebuilds the bundled CSV."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
STANDIN_CSV = ROOT / "src" / "sgmix" / "data" / "admissions_standin.csv"


def run_script(script: Path, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run one script under `-W error` with this checkout's sgmix importable."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", str(script), *args],
        cwd=cwd, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )


# 03 (about 11 s) and 04 (about 30 s) are left to manual runs.
@pytest.mark.parametrize("name", ["01_biased_data_and_metrics", "02_subgroup_mixup"])
def test_demo_runs_clean(tmp_path, name):
    done = run_script(DEMOS / f"{name}.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    assert done.stdout


def test_standin_generator_rebuilds_bundled_csv(tmp_path):
    out = tmp_path / "standin.csv"
    done = run_script(DEMOS / "make_admissions_standin.py", "--out", str(out), cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert out.read_bytes() == STANDIN_CSV.read_bytes()
