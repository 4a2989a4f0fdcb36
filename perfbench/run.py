"""The repository benchmark (see ``BENCHMARK.json`` at the repo root).

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each batch of a workload runs in its own fresh process
(``perfbench/worker.py``), serially and single-threaded.

``--trace 0`` runs batches one after another for about ``--seconds``
(give or take half a batch), and reports medians over batches
of the end-to-end metrics: ``wall_s`` (seconds in the timed region),
``setup_s`` (seconds from process start to the timed region) and
``peak_rss_mb`` (peak resident memory of the batch).  The two times are
the process's CPU time rescaled to a fixed reference host speed,
sampled while the batch runs (``perfbench/hostspeed.py``): what a
shared host gives a vCPU drifts by tens of percent, far more than the
changes the benchmark must detect.  For a single-threaded batch that
never waits this is the wall time on an uncontended reference host.
The raw host times are on the ``detail`` line.

``--trace 1`` runs three batches, each in a fresh process: an untraced
one that also counts scheduler events, one under cProfile, and one with
an obs observer on every engine.  It reports per-layer self time and
share, exact per-layer counts, and ``trace.overhead`` (profiled wall
over untraced wall).

Every op's virtual-time output is checked against a reference after the
timed region; an op that raises or differs counts as failed.  The last
stdout line is the JSON result; the lines before it record the machine
and per-batch detail.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("recopy-ckpt", "coldstart-restore", "continuous-ckpt",
             "fleet-replay")

#: Result-neutral switches of the program.  The benchmark measures the
#: default program only, so it refuses to run with any of them set.
SWITCHES = ("REPRO_NO_FASTPATH", "REPRO_NO_HASHCACHE", "REPRO_LEGACY_HEAP",
            "REPRO_CLOCK_DOMAINS", "REPRO_CHECK_CLOCK", "REPRO_NO_PARALLEL",
            "REPRO_PARALLEL_AUTO", "REPRO_JOBS")

#: ``setup_s`` is the median of at least this many set-ups; set-up-only
#: runs top up the timed batches.
MIN_SETUP_SAMPLES = 7

#: A run gives up (exit 1, no result) once this many seconds have passed,
#: so a hung batch cannot hold it past the driver's 180-second limit.
RUN_DEADLINE_S = 170.0


class BatchError(RuntimeError):
    pass


def machine() -> dict:
    """The facts a speed figure needs beside it."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    if Path(".git").exists():  # a driver checkout need not be a repo
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "effective_cpus": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": commit,
        "loadavg_at_start": os.getloadavg(),
    }


class Runner:
    """Starts batches of one workload, each in a fresh worker process."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload, self.seed = workload, seed
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def batch(self, mode: str) -> dict:
        """One batch; the worker's parsed result."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in ("src", env.get("PYTHONPATH", "")) if p)
        # Single-threaded: importing numpy would otherwise start a BLAS
        # thread per CPU, whose start-up spin lands in setup_s and
        # competes with the batch for the few CPUs.
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = "1"
        cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode]
        spawned_at = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(spawned_at)], env=env,
                capture_output=True, text=True,
                timeout=max(1.0, self.deadline - spawned_at))
        except subprocess.TimeoutExpired as err:
            raise BatchError(f"{mode} batch of {self.workload} did not end "
                             "before the run deadline") from err
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BatchError(f"{mode} batch of {self.workload} exited with "
                             f"{proc.returncode}")
        return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def timed(runner: Runner, seconds: float) -> tuple[list, list]:
    """Batches for about ``seconds``; then set-up-only runs.

    Another batch starts while it would end nearer to ``seconds`` than
    stopping now would, so a run lasts ``seconds`` give or take half a
    batch.  Returns the batches and the set-up-only runs.
    """
    batches = []
    start = time.perf_counter()
    while True:
        batches.append(runner.batch("timed"))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(batches) / 2 >= seconds:
            break
    setups = []
    while len(batches) + len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.batch("setup"))
    return batches, setups


def traced(runner: Runner) -> tuple[list, dict, dict]:
    """One untraced counted batch, one profiled, one observed."""
    from layers import LAYERS, OUTSIDE

    counted = runner.batch("counted")
    profiled = runner.batch("profiled")
    observed = runner.batch("observed")
    metrics = {}
    total = sum(profiled["self_s"].values())
    for layer in LAYERS + (OUTSIDE,):
        seconds = profiled["self_s"][layer]
        metrics[f"{layer}.self_s"] = {"value": seconds, "unit": "s"}
        metrics[f"{layer}.share"] = {"value": seconds / total if total else 0.0,
                                     "unit": "fraction"}
    units = {"sim.engine.events_per_s": "1/s", "fleet.requests_per_s": "1/s",
             "storage.rehash_bytes": "bytes", "storage.drain_bytes": "bytes"}
    for batch in (counted, profiled, observed):
        for name, value in batch["counts"].items():
            unit = units.get(name, "fraction" if name.endswith(("_ratio",
                                                                "_per_flow"))
                             else "count")
            metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead"] = {
        "value": profiled["wall_s"] / counted["wall_s"], "unit": "x"}
    detail = {"outside_modules_s": profiled["outside_modules"],
              "untraced_wall_s": counted["wall_s"],
              "profiled_wall_s": profiled["wall_s"],
              "observed_wall_s": observed["wall_s"]}
    return [counted, profiled, observed], metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    set_switches = [s for s in SWITCHES if s in os.environ]
    if set_switches:
        print(f"perfbench: refusing to run with {', '.join(set_switches)} "
              "set; the benchmark measures the default program",
              file=sys.stderr)
        return 2
    if not Path("src", "repro", "__init__.py").is_file():
        print("perfbench: run from the repository root (no src/repro here)",
              file=sys.stderr)
        return 2

    print("machine " + json.dumps(machine()))
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            batches, metrics, detail = traced(runner)
        else:
            batches, setups = timed(runner, args.seconds)
            walls = [b["scaled_wall_s"] for b in batches]
            setup_s = [b["scaled_setup_s"] for b in batches + setups]
            metrics = {
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "peak_rss_mb": {
                    "value": statistics.median(b["peak_rss_mb"]
                                               for b in batches),
                    "unit": "MB"},
            }
            detail = {"batches": len(batches), "wall_s": walls,
                      "wall_s_quartiles": quartiles(walls),
                      "host_wall_s": [b["wall_s"] for b in batches],
                      "cpu_s": [b["cpu_s"] for b in batches],
                      "setup_s": setup_s,
                      "host_setup_s": [b["setup_s"]
                                       for b in batches + setups]}
    except BatchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print("detail " + json.dumps(detail))
    attempted = sum(b["attempted"] for b in batches)
    failed = sum(len(b["failed"]) for b in batches)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
