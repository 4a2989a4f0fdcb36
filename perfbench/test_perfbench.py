"""Self-test of the benchmark.  Slow (about six minutes on 2 CPUs)::

    python3 -m pytest perfbench -q

It checks that every per-layer count repeats exactly across two traced
runs, that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that each workload records a one-line reason, and that the traced
run separates the layers the workloads were chosen to separate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer metrics that are host timings or derived from them; every
#: other per-layer metric is a count and must repeat exactly.
TIMED_SUFFIXES = (".self_s", ".share", "_per_s", "trace.overhead")


def bench(*args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=REPO, env=env,
        capture_output=True, text=True, timeout=600)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@lru_cache(maxsize=None)
def traced(workload: str, seed: int) -> dict:
    return result_of(bench("--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", "1"))


def assert_metrics(result: dict, spec_metrics: list) -> None:
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in spec_metrics}
    for m in spec_metrics:
        assert emitted[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(emitted[m["name"]]["value"], (int, float))


def test_workloads_record_a_one_line_reason():
    import run
    import workloads

    assert WORKLOADS == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"].strip() and "\n" not in w["why"]
        assert len(w["why"]) <= 200


def test_scaled_time_leaves_out_samples_and_rescales():
    from hostspeed import REFERENCE_S, HostSpeed

    speed = HostSpeed()
    # Twice the reference loop time: the host ran at half speed.
    speed.samples = [(0.5, 2 * REFERENCE_S), (1.5, 2 * REFERENCE_S),
                     (9.0, REFERENCE_S)]
    # 1.5 CPU seconds in a 2-second window: the vCPU was taken away.
    busy = 1.5 - 4 * REFERENCE_S
    assert speed.scaled(0.0, 2.0, 1.5) == pytest.approx(busy / 2)
    with pytest.raises(ValueError):
        speed.scaled(3.0, 4.0, 1.0)


def test_refuses_result_neutral_switches():
    env = dict(os.environ, REPRO_NO_FASTPATH="1")
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", env=env)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "2",
                             "--seconds", "1", "--trace", "0"))
    assert_metrics(result, SPEC["end_to_end"])
    for name in ("wall_s", "setup_s", "peak_rss_mb"):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = traced(workload, 5), result_of(bench(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", "1"))
    for result in (first, second):
        assert_metrics(result, SPEC["per_layer"])
    counts = [m["name"] for m in SPEC["per_layer"]
              if not m["name"].endswith(TIMED_SUFFIXES)]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def share(workload: str, layer: str) -> float:
    return traced(workload, 5)["metrics"][f"{layer}.share"]["value"]


def test_traced_run_separates_the_layers():
    assert share("coldstart-restore", "sim.fluid") \
        >= 3 * share("recopy-ckpt", "sim.fluid")
    assert share("recopy-ckpt", "api") \
        >= 3 * share("coldstart-restore", "api")
    for other in ("recopy-ckpt", "coldstart-restore", "fleet-replay"):
        assert share("continuous-ckpt", "storage") \
            >= 5 * share(other, "storage"), other
    for other in ("recopy-ckpt", "coldstart-restore", "continuous-ckpt"):
        assert share(other, "fleet") < 0.001, other
        assert share(other, "sim.domains") < 0.001, other
    for workload in WORKLOADS:
        assert share(workload, "unattributed") < 0.05, workload
