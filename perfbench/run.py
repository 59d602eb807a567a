"""tricklelab benchmark: timed or traced rounds of command-line queries.

    python3 perfbench/run.py --workload protocol_mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from workloads import WARMUP, WORKLOADS, round_queries

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "_out"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
# Query times are scaled to a machine on which calibration_kernel() takes
# this long (see the README: the speed of a shared machine drifts by a third
# within minutes, alike for this kernel and for the program).
CALIBRATION_REF_S = 0.010

SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import tricklelab.cli
sys.exit(tricklelab.cli.main(sys.argv[2:]))
"""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibration_kernel() -> float:
    """Seconds taken by a fixed piece of interpreter and small-array numpy work,
    the two kinds of work the program does."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    a = np.zeros(64)
    for _ in range(2000):
        a = a + 1.0
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, from the kernel times around it."""
    return seconds * CALIBRATION_REF_S / (0.5 * (before + after))


def measure_setup(workload: str, out_dir: Path) -> float:
    """Median wall time of a fresh interpreter importing tricklelab and
    answering the workload's warm-up query.

    Not scaled: the kernel does not track the speed of an import, which
    reads and links files (scaling raised the spread of single probes from
    0.11 to 0.16 of their mean).
    """
    argv = WARMUP[workload].argv(str(out_dir / "setup"))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), *argv],
                              cwd=ROOT, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {done.returncode}")
    return statistics.median(samples)


def import_program():
    sys.path.insert(0, str(SRC))
    import tricklelab.cli

    if not Path(tricklelab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"tricklelab imported from {tricklelab.cli.__file__}, not {SRC}")
    return tricklelab


class Runner:
    """Runs rounds of queries, checks every output, keeps per-slot timings."""

    def __init__(self, workload: str, seed: int, out_dir: Path, program):
        self.workload, self.seed, self.out_dir, self.program = workload, seed, out_dir, program
        self.slot_times: dict[str, list[float]] = {}   # scaled seconds per query
        self.wall_seconds = 0.0     # summed query wall time, unscaled
        self.scaled_seconds = 0.0
        self.attempted = self.failed = 0
        self.bytes_written = 0
        self.errors: list[str] = []
        self._kernel_s = calibration_kernel()

    def call(self, query, out_path: str, tracer=None) -> bool:
        """One query; False if it failed (nonzero exit or exception)."""
        argv = query.argv(out_path)
        main = self.program.cli.main
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = tracer.query(query.slot, lambda: main(argv)) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed query; the run goes on
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        before, self._kernel_s = self._kernel_s, calibration_kernel()
        if code != 0:
            self.failed += 1
            print(f"query failed with {code}: {' '.join(argv)}", file=sys.stderr)
            return False
        seconds = scaled(elapsed, before, self._kernel_s)
        self.wall_seconds += elapsed
        self.scaled_seconds += seconds
        self.slot_times.setdefault(query.slot, []).append(seconds)
        self.bytes_written += os.path.getsize(out_path)
        return True

    def run_round(self, index: int, tracer=None) -> float:
        """Run and check round `index`; returns its summed query wall time."""
        before = self.wall_seconds
        mean_delays = {}
        queries = round_queries(self.workload, self.seed, index)
        for query in queries:
            out_path = str(self.out_dir / query.slot)
            if not self.call(query, out_path, tracer):
                continue
            self.guarded(query.slot, lambda: self._check(query, out_path, mean_delays))
        self.guarded("eta order", lambda: checks.check_eta_order(mean_delays))
        if self.workload == "protocol_mix":
            for query in queries:
                self.guarded(f"trace {query.slot}", lambda: self._check_trace(query))
        return self.wall_seconds - before

    def _check(self, query, out_path, mean_delays) -> None:
        mean_t = checks.check_query(query, out_path)
        if mean_t is not None and checks.paper_model(query.params):
            p = query.params
            mean_delays[(query.command, p["R"], p["eta"])] = mean_t

    def _check_trace(self, query) -> None:
        p = query.params
        lab = self.program
        params = lab.TrickleParams(k=p["k"], tau_h=p["tau_h"], eta=p["eta"])
        trace = lab.run_protocol_event(params, lab.LineTopology(p["n"], p["R"]), seed=p["seed"])
        checks.check_trace(p, trace.to_dict())

    def guarded(self, what: str, check) -> None:
        """Run a check; a wrong or malformed output is recorded, not raised."""
        try:
            check()
        except (checks.CheckError, KeyError, IndexError, TypeError, ValueError, OSError) as exc:
            self.errors.append(f"{what}: {exc}")
            print(f"check failed: {what}: {exc}", file=sys.stderr)


def timed_run(runner: Runner, seconds: float, setup_s: float) -> dict:
    rounds = 0
    while rounds == 0 or runner.wall_seconds < seconds:
        runner.run_round(rounds)
        rounds += 1
    answered = runner.attempted - runner.failed
    # Slots differ in cost, so the median of all queries pooled would sit
    # between two slots and follow the extremes of both.
    p50 = statistics.median(statistics.median(t) for t in runner.slot_times.values())
    print(f"{rounds} rounds, {answered} queries in {runner.wall_seconds:.3f} s wall "
          f"({runner.scaled_seconds:.3f} s scaled)", file=sys.stderr)
    return {
        "queries_per_s": (answered / runner.scaled_seconds, "queries/s"),
        "query_p50_s": (p50, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
    }


def traced_run(runner: Runner, trace_path: Path) -> dict:
    """Round 0 untraced, then round 0 again traced: the counts depend only on
    the seed, and the difference in time is the tracing overhead."""
    from tracer import Tracer

    plain = runner.run_round(0)
    tracer = Tracer()
    tracer.attach()
    before = runner.bytes_written
    try:
        traced = runner.run_round(0, tracer)
    finally:
        tracer.detach()
    tracer.dump(trace_path)
    metrics = tracer.metrics()
    metrics["cli.bytes_written"] = (runner.bytes_written - before, "bytes")
    metrics["trace.overhead_s"] = (traced - plain, "s")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tricklelab" / "__init__.py").is_file():
        print(f"error: no tricklelab sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    out_dir = OUT / f"queries-{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir()
    tag = f"{args.workload}-seed{args.seed}"
    try:
        setup_s = None if args.trace else measure_setup(args.workload, out_dir)
        program = import_program()
        program.cli.main(WARMUP[args.workload].argv(str(out_dir / "warmup")))
        runner = Runner(args.workload, args.seed, out_dir, program)
        if args.trace:
            metrics = traced_run(runner, OUT / f"trace-{tag}.json")
        else:
            metrics = timed_run(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    line = json.dumps(result)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
