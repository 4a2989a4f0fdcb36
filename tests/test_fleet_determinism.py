"""Fleet experiment bit-identity across ``--jobs`` counts.

The fig_fleet cells calibrate their own profiles with real protocol
probes inside each worker process; the probes run on a virtual clock,
so every worker measures the identical numbers and the merged report
must be byte-for-byte the same at any parallelism.

Kept to one small single-GPU function and short traces: the point is
the merge/aggregation determinism, not fleet behaviour (that is
``tests/test_fleet.py``).
"""

import pytest

from repro import parallel
from repro.experiments import fig_fleet
from repro.parallel import engine as parallel_engine

FAST_KWARGS = dict(
    kinds=("bursty",),
    seeds=(1, 2),
    systems=("phos", "singularity"),
    functions=("resnet152-infer",),
    duration=20.0,
    rate=2.0,
)


@pytest.fixture(scope="module")
def serial_result():
    return fig_fleet.run(jobs=1, **FAST_KWARGS)


def test_parallel_matches_serial_bit_for_bit(serial_result, monkeypatch):
    # Pin the CPU count so the pool spawns on one-CPU runners too: the
    # comparison must be pool against serial, never serial against serial.
    monkeypatch.setattr(parallel_engine, "effective_cpu_count", lambda: 4)
    fanned = fig_fleet.run(jobs=4, **FAST_KWARGS)
    assert parallel.last_run_stats().mode == "pool"
    assert fanned.rows == serial_result.rows
    assert fanned.format() == serial_result.format()


def test_rows_cover_every_cell_plus_pooled(serial_result):
    rows = serial_result.rows
    per_seed = [r for r in rows if r["seed"] != "all"]
    pooled = [r for r in rows if r["seed"] == "all"]
    assert len(per_seed) == 4  # 2 seeds x 2 systems
    assert {r["system"] for r in pooled} == {"phos", "singularity"}
    for r in per_seed:
        assert r["completed"] > 0
        assert r["p99_ms"] is not None and r["p99_ms"] > 0


def test_pooled_tail_is_seed_order_invariant(serial_result):
    reversed_seeds = fig_fleet.run(jobs=1, **{**FAST_KWARGS,
                                              "seeds": (2, 1)})
    pooled_a = {r["system"]: r for r in serial_result.rows
                if r["seed"] == "all"}
    pooled_b = {r["system"]: r for r in reversed_seeds.rows
                if r["seed"] == "all"}
    for system in ("phos", "singularity"):
        for key in ("p50_ms", "p99_ms", "p999_ms", "completed", "requests"):
            assert pooled_a[system][key] == pooled_b[system][key]
