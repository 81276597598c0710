"""sgmix benchmark: one workload at one seed, timed end to end or traced per layer.

    python3 perfbench/run.py --workload csv-forest --seed 0 --seconds 20 --trace 0

Runs, one after another, SETUP_RUNS set-up-only worker processes and one
measuring worker process (perfbench/worker.py), so at most one process works
at a time. Prints a summary, then as its last line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import BENCH_DIR, OUT_DIR, ROOT, SRC_DIR, WORKLOADS

SETUP_RUNS = 6      # fresh set-up-only processes; the measuring one adds a sample
END_TO_END = ("run_ref", "setup_s", "peak_rss_mb")  # the metrics BENCHMARK.json gates
DEADLINE_S = 170    # every worker must have ended by then
WORKER = BENCH_DIR / "worker.py"
FINGERPRINTS = BENCH_DIR / "fingerprints.json"


class WorkerError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict[str, str]:
    """The workers' environment: BLAS and OpenMP pools capped at nproc threads."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(nproc())
    return env


def run_worker(mode: str, args, run_dir, index: int, deadline: float):
    """Run one worker to completion; returns (its JSON result, its peak RSS in MB)."""
    result_path = run_dir / f"{mode}-{index}.json"
    result_path.unlink(missing_ok=True)
    command = [sys.executable, str(WORKER), "--mode", mode, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--run-dir", str(run_dir),
               "--result", str(result_path)]
    if args.tiny:
        command.append("--tiny")
    proc = subprocess.Popen(command, cwd=ROOT, env=worker_env(), stdout=subprocess.DEVNULL)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            if time.monotonic() > deadline:
                raise WorkerError(f"{mode} worker did not finish within {DEADLINE_S} s")
            time.sleep(0.05)
    finally:
        if proc.returncode is None:  # deadline, interrupt or termination: stop it
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024  # KiB -> MiB


def environment(worker_env_block: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30, check=False)
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC_DIR / "sgmix").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC_DIR)).encode())
            digest.update(path.read_bytes())
    blas = worker_env_block.get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": worker_env_block.get("numpy"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas.get("threads"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def behaviour_note(workload: str, seed: int, fingerprint: str) -> str:
    """Compare the output fingerprint with the one recorded for this seed."""
    recorded = json.loads(FINGERPRINTS.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return f"fingerprint {fingerprint} (none recorded for seed {seed})"
    if recorded["sha256"] == fingerprint:
        return f"fingerprint {fingerprint} matches the recorded one"
    then = ", ".join(f"{k} {v:.6f}" for k, v in recorded.items() if k != "sha256")
    return (f"BEHAVIOUR CHANGE: fingerprint {fingerprint} differs from the recorded "
            f"{recorded['sha256']}" + (f" (recorded {then})" if then else ""))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long the timed passes run; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: half the time untraced, half traced; print per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny models and inputs, for the self-check only")
    args = parser.parse_args()
    # Turn termination into an exception, so run_worker stops its worker first.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC_DIR / "sgmix" / "__init__.py").is_file():
        print(f"error: no sgmix package under {SRC_DIR}; run from a full checkout",
              file=sys.stderr)
        return 2
    run_dir = OUT_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                         + ("-tiny" if args.tiny else ""))
    run_dir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [run_worker("setup", args, run_dir, i, deadline)[0]["setup_s"]
                  for i in range(SETUP_RUNS)]
        measured, peak_rss_mb = run_worker("measure", args, run_dir, 0, deadline)
    except (WorkerError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups.append(measured["setup_s"])
    passes = measured["pass_s"]
    run_s = statistics.fmean(passes)
    attempted, failed = measured["attempted"], measured["failed"]
    correct = failed == 0 and measured["deterministic"]
    env = environment(measured["env"])

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} untraced, {len(measured.get('traced_pass_s', []))} traced")
    summary = [
        ("run_ref", run_s / measured["reference_s"], "ref",
         f"run_s / mean of {measured['reference_samples']} reference samples"),
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} processes"),
        ("peak_rss_mb", peak_rss_mb, "MB", "measuring process"),
        ("run_s", run_s, "s", f"mean of {len(passes)} untraced passes"),
        ("failed_share", failed / attempted, "ratio", f"{failed} of {attempted}"),
    ]
    for name, count in measured["work"].items():
        summary.append((f"{name}_per_s", count / sum(passes), "1/s", f"{count} {name}"))
    for name, value in measured["quality"].items():
        summary.append((name, value, "ratio", "mean over the fsgm rows"))
    for name, value, unit, note in summary:
        print(f"  {name:<16} {value:>14.6f} {unit:<6} {note}")
    print(behaviour_note(args.workload, args.seed, measured["fingerprint"]))
    for problem in measured["problems"]:
        print(f"  check failed: {problem}")

    if args.trace:
        metrics = measured["layers"]
        print(f"per layer, per traced pass (spans in {run_dir / 'trace.jsonl'}):")
        for name, entry in metrics.items():
            print(f"  {name:<40} {entry['value']:>16.6f} {entry['unit']}")
        if measured["missing_wrap_sites"]:
            print(f"  not wrapped (attribute missing): {measured['missing_wrap_sites']}")
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, value, unit, _ in summary if name in END_TO_END}
    print("env " + json.dumps(env, sort_keys=True))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "env": env, "setup_samples_s": setups, "measured": measured}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
