"""One workload process: set up, run timed passes, check outputs, write a JSON result.

run.py starts this script; it is not meant to be run by hand.

  --mode setup    import sgmix, build the config, load or generate the data, stop
  --mode measure  then run timed passes for --seconds (with --trace 1, half
                  untraced and half traced) and check each pass's output
"""
from __future__ import annotations

import time

SETUP_START = time.perf_counter()  # before sgmix (and numpy) is imported

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS, import_sgmix  # noqa: E402

MAX_PROBLEMS = 20  # violation messages kept in the result
SAMPLE_PERIOD_S = 0.1
SAMPLE_ROUNDS = 20


def blas_info() -> dict:
    """BLAS library numpy was built against, and its thread count if it can be read."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    info = {"name": blas.get("name"), "version": blas.get("version"), "threads": None}
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                info["threads"] = function()
                return info
    return info


class SpeedSampler:
    """Times a fixed reference computation every SAMPLE_PERIOD_S while passes run.

    On a shared machine, co-tenants slow every computation on the core at
    once, by up to 2x over minutes. The reference is small numpy sorts, sums
    and a matmul driven by a Python loop, the mix the sgmix layers run; it
    does not touch sgmix. Pass time divided by the mean reference time
    cancels much of that slowdown. Each sample runs the reference once to
    warm the caches the pass evicted, then times a second run, so what the
    program keeps in cache does not move the reading. Sampling costs about
    1% of the pass time.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._values = rng.standard_normal(64)
        self._weights = rng.standard_normal((10, 32))
        self._rows = rng.standard_normal((32, 10))
        self.samples: list[float] = []

    def _reference(self) -> float:
        import numpy as np

        total = 0.0
        for _ in range(SAMPLE_ROUNDS):
            order = np.argsort(self._values, kind="stable")
            total += float(np.cumsum(self._values[order])[-1])
            total += float((self._rows @ self._weights).sum())
        return total

    def sample(self, *_signal_args) -> None:
        self._reference()
        start = time.perf_counter()
        self._reference()
        self.samples.append(time.perf_counter() - start)

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.sample()


def timed_passes(run_pass, check_pass, budget_s: float):
    """Run passes until the next one would end past budget_s; at least one.

    Each pass's output is checked as soon as its clock stops, so no output is
    held across passes and memory does not grow with the pass count.
    """
    times, checks = [], []
    while True:
        start = time.perf_counter()
        outcome = run_pass()
        times.append(time.perf_counter() - start)
        checks.append(check_pass(outcome))
        if sum(times) * (1 + 1 / len(times)) > budget_s:
            return times, checks


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    run_dir = Path(args.run_dir)
    import_sgmix()
    state = workload.setup(args.seed, run_dir, args.tiny)
    result = {"setup_s": time.perf_counter() - SETUP_START}
    if args.mode == "measure":
        result.update(measure(workload, state, args, run_dir))
    Path(args.result).write_text(json.dumps(result))


def measure(workload, state, args, run_dir: Path) -> dict:
    import numpy as np

    def run_pass():
        return workload.run_pass(state)

    def check_pass(outcome):
        return workload.check_pass(state, outcome)

    budget = args.seconds / 2 if args.trace else args.seconds
    sampler = SpeedSampler()
    with sampler.running():
        times, checks = timed_passes(run_pass, check_pass, budget)
    traced_times, tracer = [], None
    if args.trace:
        from tracer import ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        try:
            def traced_pass():
                with tracer.span(ROOT_SPAN):
                    return run_pass()

            traced_times, traced_checks = timed_passes(traced_pass, check_pass, budget)
        finally:
            tracer.uninstall()
        checks += traced_checks

    attempted = sum(check[0] for check in checks)
    failed = sum(check[1] for check in checks)
    problems = [problem for check in checks for problem in check[2]]
    fingerprints = {check[3] for check in checks}
    if len(fingerprints) > 1:
        problems.append("passes over the same inputs gave different outputs")

    measured = {
        "pass_s": times,
        "reference_s": statistics.fmean(sampler.samples),
        "reference_samples": len(sampler.samples),
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:MAX_PROBLEMS],
        "deterministic": len(fingerprints) == 1,
        "fingerprint": checks[0][3],
        "quality": checks[0][4],
        "env": {"numpy": np.__version__, "blas": blas_info()},
    }
    if workload.kind == "pipeline":
        measured["work"] = {"fits": workload.fits_per_pass * len(times)}
    else:
        measured["work"] = {"samples": workload.samples_per_pass(state) * len(times)}
    if tracer is not None:
        measured["traced_pass_s"] = traced_times
        measured["layers"] = tracer.metrics(
            len(traced_times), statistics.fmean(traced_times), statistics.fmean(times))
        measured["missing_wrap_sites"] = tracer.missing
        tracer.write_jsonl(run_dir / "trace.jsonl")
    return measured


if __name__ == "__main__":
    main()
