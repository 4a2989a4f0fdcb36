"""The serverless fleet: traces, snapshot pool, scheduler policies.

Scheduler tests inject synthetic :class:`FunctionProfile`s so every
policy (admission control, best-fit packing, migration-for-packing,
failure-driven restore) is exercised against hand-built traces without
paying the calibration probes.
"""

import math

import pytest

from repro.errors import InvalidValueError
from repro.fleet.calibrate import FunctionProfile
from repro.fleet.scheduler import FleetConfig, run_fleet
from repro.fleet.snapshots import SnapshotPool
from repro.fleet.traces import (
    DEFAULT_WEIGHTS,
    Trace,
    TraceConfig,
    TraceRequest,
    generate,
)

# --------------------------------------------------------------------------
# traces
# --------------------------------------------------------------------------


def test_trace_is_seed_deterministic():
    cfg = TraceConfig(kind="bursty", rate=3.0, duration=30.0, seed=9)
    assert generate(cfg) == generate(cfg)
    other = generate(TraceConfig(kind="bursty", rate=3.0, duration=30.0,
                                 seed=10))
    assert generate(cfg) != other


@pytest.mark.parametrize("kind", ["poisson", "bursty", "diurnal"])
def test_trace_shape(kind):
    cfg = TraceConfig(kind=kind, rate=4.0, duration=50.0, seed=2,
                      weights=DEFAULT_WEIGHTS)
    trace = generate(cfg)
    arrivals = [r.arrival for r in trace.requests]
    assert arrivals == sorted(arrivals)
    assert all(0.0 <= t < cfg.duration for t in arrivals)
    assert [r.index for r in trace.requests] == list(range(len(trace)))
    assert all(r.function in cfg.functions for r in trace.requests)
    # Long-run mean within a loose band of the configured rate.
    assert 0.5 * cfg.rate * cfg.duration < len(trace) \
        < 2.0 * cfg.rate * cfg.duration


def test_trace_validation():
    with pytest.raises(InvalidValueError):
        TraceConfig(kind="lumpy")
    with pytest.raises(InvalidValueError):
        TraceConfig(rate=0.0)
    with pytest.raises(InvalidValueError):
        TraceConfig(rate=float("nan"))
    with pytest.raises(InvalidValueError):
        TraceConfig(duration=-5.0)
    with pytest.raises(InvalidValueError):
        TraceConfig(burst_factor=1.0)
    with pytest.raises(InvalidValueError):
        TraceConfig(peak_ratio=3.0)
    with pytest.raises(InvalidValueError):
        TraceConfig(functions=())
    with pytest.raises(InvalidValueError):
        TraceConfig(functions=("a", "b"), weights=(1.0,))
    with pytest.raises(InvalidValueError):
        TraceConfig(functions=("a",), weights=(float("nan"),))


def test_trace_custom_catalog_defaults_to_uniform_weights():
    # Regression: a custom catalog used to trip the length check
    # against the default three-entry weight vector.
    cfg = TraceConfig(functions=("a", "b", "c", "d"), seed=3)
    trace = generate(cfg)
    assert {r.function for r in trace.requests} <= {"a", "b", "c", "d"}


# --------------------------------------------------------------------------
# snapshot pool
# --------------------------------------------------------------------------


def test_pool_validation():
    with pytest.raises(InvalidValueError):
        SnapshotPool(0)
    with pytest.raises(InvalidValueError):
        SnapshotPool(True)
    with pytest.raises(InvalidValueError):
        SnapshotPool(2.0)
    with pytest.raises(InvalidValueError):
        SnapshotPool(2, context_slots=-1)
    with pytest.raises(InvalidValueError):
        SnapshotPool(2, context_refill_s=float("nan"))


def test_pool_lru_eviction():
    pool = SnapshotPool(2)
    pool.insert("a")
    pool.insert("b")
    assert pool.lookup("a")  # refreshes a: order is now b, a
    pool.insert("c")  # evicts b
    assert pool.warm_functions() == ["a", "c"]
    assert not pool.lookup("b")
    assert pool.evictions == 1
    assert (pool.hits, pool.misses) == (1, 1)


def test_pool_clear_drops_images_and_restores_contexts():
    pool = SnapshotPool(4, context_slots=2)
    pool.insert("a")
    assert pool.take_context() and pool.take_context()
    assert not pool.take_context()
    pool.clear()
    assert pool.warm_functions() == []
    assert pool.contexts_free == 2
    assert (pool.context_hits, pool.context_misses) == (2, 1)


def test_pool_context_refill_clamps_at_slots():
    pool = SnapshotPool(1, context_slots=1)
    pool.refill_context()
    assert pool.contexts_free == 1
    assert pool.take_context()
    pool.refill_context()
    assert pool.contexts_free == 1


# --------------------------------------------------------------------------
# fleet config validation
# --------------------------------------------------------------------------


def test_fleet_config_validation():
    with pytest.raises(InvalidValueError):
        FleetConfig(system="criu")
    with pytest.raises(InvalidValueError):
        FleetConfig(n_machines=0)
    with pytest.raises(InvalidValueError):
        FleetConfig(n_gpus=0)
    with pytest.raises(InvalidValueError):
        FleetConfig(pool_capacity=0)
    with pytest.raises(InvalidValueError):
        FleetConfig(queue_cap=-1)
    with pytest.raises(InvalidValueError):
        FleetConfig(requests_per_call=0)
    with pytest.raises(InvalidValueError):
        FleetConfig(failures_per_hour=float("nan"))
    with pytest.raises(InvalidValueError):
        FleetConfig(failures_per_hour=-1.0)
    with pytest.raises(InvalidValueError):
        FleetConfig(recovery_s=0.0)
    with pytest.raises(InvalidValueError):
        FleetConfig(max_retries=-1)
    for latency in (0.0, -1e-6, float("nan")):
        with pytest.raises(InvalidValueError):
            FleetConfig(control_latency_s=latency)


# --------------------------------------------------------------------------
# scheduler (synthetic profiles)
# --------------------------------------------------------------------------


def prof(function, n_gpus=1, start=0.05, nopool=None, exec_s=0.5,
         image=0, supported=True, downtime=0.2, system="phos"):
    nan = float("nan")
    if not supported:
        return FunctionProfile(system=system, function=function,
                               n_gpus=n_gpus, supported=False, start_s=nan,
                               nopool_start_s=nan, exec_s=nan, image_bytes=0)
    return FunctionProfile(
        system=system, function=function, n_gpus=n_gpus, supported=True,
        start_s=start, nopool_start_s=nopool if nopool is not None else start,
        exec_s=exec_s, image_bytes=image, migration_downtime_s=downtime,
    )


def make_trace(arrivals, duration=None):
    """A hand-built trace from ``[(arrival, function), ...]``."""
    functions = tuple(dict.fromkeys(f for _, f in arrivals))
    cfg = TraceConfig(
        kind="poisson", rate=1.0, functions=functions,
        duration=duration or max(t for t, _ in arrivals) + 60.0,
    )
    requests = tuple(TraceRequest(index=i, arrival=t, function=f)
                     for i, (t, f) in enumerate(arrivals))
    return Trace(config=cfg, requests=requests)


RECORD_FIELDS = ("index", "function", "arrival", "outcome", "machine",
                 "start", "end", "cold_start_s", "restore_s", "warm",
                 "pooled_ctx", "retries", "migrations")


def signature(report):
    """Records as comparable tuples (NaN normalized to None)."""
    def norm(v):
        if isinstance(v, float) and math.isnan(v):
            return None
        return v

    return [tuple(norm(getattr(r, f)) for f in RECORD_FIELDS)
            for r in report.records]


def serve(trace, profiles, **cfg):
    return run_fleet(trace, FleetConfig(**cfg), profiles=profiles)


def test_fleet_serves_and_warms_the_pool():
    profiles = {"f": prof("f", image=256 << 20)}
    trace = make_trace([(0.0, "f"), (5.0, "f"), (10.0, "f")])
    report = serve(trace, profiles, n_machines=1, n_gpus=2)
    assert report.completed == 3
    first, second, third = report.records
    assert not first.warm and second.warm and third.warm
    # A warm serve skips the image fetch.
    assert second.cold_start_s < first.cold_start_s
    assert second.restore_s < first.restore_s
    assert report.pool_hit_rate() == pytest.approx(2 / 3)
    assert report.goodput_rps() > 0
    tail = report.tail()
    assert tail["p50"] <= tail["p99"] <= tail["p999"]


def test_fleet_run_is_deterministic():
    profiles = {"f": prof("f"), "g": prof("g", exec_s=1.5)}
    trace = make_trace([(0.0, "f"), (0.1, "g"), (0.2, "f"), (1.0, "g")])
    cfg = FleetConfig(n_machines=2, n_gpus=1)
    a = run_fleet(trace, cfg, profiles=profiles)
    b = run_fleet(trace, cfg, profiles=profiles)
    assert signature(a) == signature(b)
    assert a.summary() == b.summary()


def test_admission_control_rejects_at_queue_cap():
    # One 1-GPU machine, 10 s service: of six simultaneous arrivals one
    # dispatches, two queue, three bounce off the cap.
    profiles = {"f": prof("f", exec_s=10.0)}
    trace = make_trace([(0.0, "f")] * 6)
    report = serve(trace, profiles, n_machines=1, n_gpus=1,
                   queue_cap=2)
    assert report.completed == 3
    assert report.rejected == 3
    outcomes = [r.outcome for r in report.records]
    assert outcomes.count("rejected") == 3
    assert report.max_queue_depth() == 2
    assert report.mean_queue_depth() > 0
    # Rejected rows carry NaN latencies but never poison the tail.
    assert len(report.cold_start_samples()) == 3


def test_unsupported_functions_are_refused_up_front():
    profiles = {"ok": prof("ok"), "big": prof("big", supported=False)}
    trace = make_trace([(0.0, "ok"), (0.1, "big"), (0.2, "ok")])
    report = serve(trace, profiles, n_machines=1, n_gpus=1,
                   system="cuda-checkpoint")
    assert report.completed == 2
    assert report.unsupported == 1
    assert report.records[1].outcome == "unsupported"
    # NaN-checked: the unsupported row is excluded, not folded in.
    assert len(report.cold_start_samples()) == 2
    assert report.summary()["p99_ms"] is not None


def test_best_fit_packs_small_jobs_onto_fullest_machine():
    # node0 gets the 3-GPU job; the following 1-GPU jobs best-fit into
    # node0's single remaining GPU before touching node1.
    profiles = {"w3": prof("w3", n_gpus=3, exec_s=20.0),
                "w1": prof("w1", n_gpus=1, exec_s=20.0)}
    trace = make_trace([(0.0, "w3"), (0.1, "w1"), (0.2, "w1")])
    report = serve(trace, profiles, n_machines=2, n_gpus=4)
    by_fn = {}
    for r in report.records:
        by_fn.setdefault(r.function, []).append(r.machine)
    assert by_fn["w3"] == ["node0"]
    assert by_fn["w1"] == ["node0", "node1"]


def test_migration_unblocks_a_stranded_head():
    # Fragmentation: s5 + s1short fill node0, s1long lands on node1,
    # and the 6-GPU head fits nowhere.  Once s1short frees a GPU the
    # gateway migrates s1long into it and places big6 on node1.
    profiles = {
        "s5": prof("s5", n_gpus=5, exec_s=30.0),
        "s1short": prof("s1short", n_gpus=1, exec_s=0.5),
        "s1long": prof("s1long", n_gpus=1, exec_s=30.0, downtime=0.2),
        "big6": prof("big6", n_gpus=6, exec_s=1.0),
    }
    arrivals = [(0.0, "s5"), (0.0, "s1short"), (0.0, "s1long"),
                (0.0, "big6")]
    report = serve(make_trace(arrivals), profiles,
                   n_machines=2, n_gpus=6)
    assert report.migrations == 1
    victim = report.records[2]
    assert victim.function == "s1long"
    assert victim.migrations == 1
    assert victim.machine == "node0"  # moved off node1
    big6 = report.records[3]
    assert big6.outcome == "ok"
    assert big6.machine == "node1"
    assert big6.end < 5.0
    # Migration pays the victim the calibrated downtime.
    assert victim.end > 30.0 + profiles["s1long"].migration_downtime_s

    # Without migration the head waits for s5's 30 s slot instead.
    blocked = serve(make_trace(arrivals), profiles,
                    n_machines=2, n_gpus=6, migration=False)
    assert blocked.migrations == 0
    assert blocked.records[3].end > 25.0


def test_baselines_never_migrate():
    profiles = {
        "s5": prof("s5", n_gpus=5, exec_s=30.0, system="singularity"),
        "s1short": prof("s1short", n_gpus=1, exec_s=0.5,
                        system="singularity"),
        "s1long": prof("s1long", n_gpus=1, exec_s=30.0,
                       system="singularity"),
        "big6": prof("big6", n_gpus=6, exec_s=1.0, system="singularity"),
    }
    arrivals = [(0.0, "s5"), (0.0, "s1short"), (0.0, "s1long"),
                (0.0, "big6")]
    report = serve(make_trace(arrivals), profiles,
                   n_machines=2, n_gpus=6, system="singularity",
                   migration=True)
    assert report.migrations == 0
    assert report.records[3].end > 25.0


def test_machine_failures_requeue_and_retry():
    profiles = {"f": prof("f", exec_s=2.0)}
    trace = generate(TraceConfig(kind="poisson", rate=2.0, duration=30.0,
                                 seed=4, functions=("f",)))
    report = serve(trace, profiles, n_machines=2, n_gpus=2,
                   failures_per_hour=3600.0, recovery_s=1.0,
                   failure_seed=7, max_retries=2)
    assert report.machine_failures > 0
    assert report.retries > 0
    # Conservation: every request has exactly one final outcome.
    total = (report.completed + report.rejected + report.unsupported
             + report.failed)
    assert total == len(trace)
    # A requeued victim restores cold on the surviving machine: its
    # cold start is a fresh fetch+restore, never a stale partial time.
    retried_ok = [r for r in report.records
                  if r.outcome == "ok" and r.retries > 0]
    assert retried_ok, "expected at least one successful retry"
    for r in retried_ok:
        assert r.end > r.start


def test_retry_budget_exhaustion_fails_the_request():
    # One machine that is down more often than up: some request burns
    # its whole retry budget and fails for good.
    profiles = {"f": prof("f", exec_s=5.0)}
    trace = generate(TraceConfig(kind="poisson", rate=1.0, duration=30.0,
                                 seed=6, functions=("f",)))
    report = serve(trace, profiles, n_machines=1, n_gpus=1,
                   failures_per_hour=7200.0, recovery_s=2.0,
                   failure_seed=3, max_retries=0)
    assert report.failed > 0
    failed = [r for r in report.records if r.outcome == "failed"]
    assert all(r.retries > 0 for r in failed)
    assert report.completed + report.rejected + report.failed == len(trace)


def test_context_pool_miss_pays_the_creation_barrier():
    # One context slot, slow background refill (nopool - start = 9.9 s):
    # the second invocation misses the context pool and pays nopool.
    profiles = {"f": prof("f", start=0.1, nopool=10.0, exec_s=0.2)}
    trace = make_trace([(0.0, "f"), (0.0, "f")])
    report = serve(trace, profiles, n_machines=1, n_gpus=1,
                   contexts_per_gpu=1)
    assert (report.context_hits, report.context_misses) == (1, 1)
    first, second = report.records
    assert first.pooled_ctx and not second.pooled_ctx
    assert second.restore_s > first.restore_s + 9.0


def test_run_fleet_rejects_bad_inputs():
    trace = make_trace([(0.0, "f"), (1.0, "g")])
    with pytest.raises(InvalidValueError) as err:
        run_fleet(trace, FleetConfig(), profiles={"f": prof("f")})
    assert "no profile" in str(err.value)
    profiles = {"f": prof("f"), "g": prof("g", n_gpus=16)}
    with pytest.raises(InvalidValueError) as err:
        run_fleet(trace, FleetConfig(n_gpus=8), profiles=profiles)
    assert "never be placed" in str(err.value)
