"""One batch of one workload, in a fresh process.

Started by ``run.py``; prints one JSON object on its last stdout line::

    python3 perfbench/worker.py --workload NAME --seed N \
        --mode {setup,timed,counted,profiled,observed} --spawned-at T

``--spawned-at`` is the parent's ``time.perf_counter()`` just before it
started this process (a system-wide monotonic clock on Linux), so
``setup_s`` covers interpreter start, imports, loading references and
building inputs.  Modes:

* ``setup``: set-up only, no batch; another ``setup_s`` sample.
* ``timed``: the batch as a user runs it; gives the end-to-end metrics.
* ``counted``: also counts scheduler events around ``Engine.run``.
* ``profiled``: runs the batch under cProfile; per-layer self time and
  call counts.
* ``observed``: runs the batch with an obs observer on every engine; the
  program's own counters.

In ``setup`` and ``timed`` mode a :class:`hostspeed.HostSpeed` samples
host speed from just after argument parsing on; ``scaled_setup_s`` and
``scaled_wall_s`` are the CPU time of set-up (the process's CPU time up
to the timed region) and of the batch, at the reference speed.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import sys
import time
import traceback

import layers
from hostspeed import HostSpeed
from workloads import WORKLOADS

#: Calls counted from the profile, as ``metric -> (function, callers)``.
#: With callers given, only calls made by those functions count.
PROFILE_COUNTS = {
    "sim.fluid.flows": ("repro.sim.fluid:_Flow.__init__", ()),
    "sim.fluid.reschedules": ("repro.sim.fluid:FluidLink._reschedule", ()),
    "sim.domains.messages": ("repro.sim.domains:ChannelMessage.__init__", ()),
    "api.mix_folds": ("repro.api.runtime:_mix_fold", ()),
    # Every kernel launch and library call asks the runtime for a plan
    # exactly once; launch_kernel is a generator, so its own call count
    # would count every resumption instead.
    "api.kernel_launches": ("repro.api.runtime:CudaRuntime._frontend",
                            ("repro.api.runtime:CudaRuntime.launch_kernel",
                             "repro.api.runtime:CudaRuntime.lib_compute")),
}


def run_batch(workload, state) -> list:
    """Issue every op in order; ``(op_id, raw result, error)`` per op."""
    results = []
    for op_id, op in workload.ops(state):
        try:
            results.append((op_id, op(), None))
        except Exception:  # an op that raises counts as failed
            results.append((op_id, None, traceback.format_exc()))
    return results


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "timed", "counted", "profiled",
                             "observed"))
    ap.add_argument("--spawned-at", type=float, required=True)
    args = ap.parse_args(argv)

    speed = None
    if args.mode in ("setup", "timed"):
        speed = HostSpeed()
        speed.start()
    try:
        return run(args, speed)
    finally:
        if speed is not None:
            speed.stop()


def run(args, speed) -> int:
    from repro import parallel

    parallel.set_default_jobs(1)
    workload = WORKLOADS[args.workload]
    state = workload.setup(args.seed)
    if args.mode == "setup":
        t0, c0 = time.perf_counter(), time.process_time()
        speed.stop()
        print(json.dumps({
            "setup_s": t0 - args.spawned_at,
            "scaled_setup_s": speed.scaled(args.spawned_at, t0, c0)}))
        return 0

    out: dict = {}
    counter = profiler = observer = None
    if args.mode == "counted":
        from repro.perf.plans import reset_plan_cache_stats

        reset_plan_cache_stats()
        counter = layers.EventCounter()
        counter.install()
    elif args.mode == "observed":
        observer = layers.EngineObservers()
        observer.install()
    elif args.mode == "profiled":
        profiler = cProfile.Profile()

    t0, c0 = time.perf_counter(), time.process_time()
    if profiler is not None:
        profiler.enable()
    results = run_batch(workload, state)
    if profiler is not None:
        profiler.disable()
    t1, c1 = time.perf_counter(), time.process_time()
    if speed is not None:
        speed.stop()
        out["scaled_setup_s"] = speed.scaled(args.spawned_at, t0, c0)
        out["scaled_wall_s"] = speed.scaled(t0, t1, c1 - c0)
    if counter is not None:
        counter.uninstall()
    if observer is not None:
        observer.uninstall()

    out["setup_s"] = t0 - args.spawned_at
    out["wall_s"] = t1 - t0
    out["cpu_s"] = c1 - c0
    failed = []
    for op_id, raw, error in results:
        if error is None:
            try:
                output = workload.output(state, op_id, raw)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"op {op_id} raised:\n{error}", file=sys.stderr)
            failed.append(op_id)
        elif not workload.check(state, op_id, output):
            print(f"op {op_id}: output differs from the reference: "
                  f"{json.dumps(output)}", file=sys.stderr)
            failed.append(op_id)
    out["attempted"] = len(results)
    out["failed"] = failed

    if counter is not None:
        from repro.perf.plans import plan_cache_stats

        plans = plan_cache_stats()
        requests = workload.fleet_requests(state)
        out["counts"] = {
            "sim.engine.events_executed": counter.executed,
            "sim.engine.events_scheduled": counter.scheduled,
            "sim.engine.events_per_s": counter.executed / out["wall_s"],
            "perf.plan_hit_ratio": ratio(plans["hit"],
                                         plans["hit"] + plans["miss"]),
            "perf.plan_fallbacks": plans["fallback"],
            "fleet.requests": requests,
            "fleet.requests_per_s": requests / out["wall_s"],
        }
    if profiler is not None:
        stats = pstats.Stats(profiler)
        self_s, outside = layers.self_times(stats)
        counts = {name: layers.call_counts(stats, fn, callers)
                  for name, (fn, callers) in PROFILE_COUNTS.items()}
        counts["sim.fluid.reschedules_per_flow"] = ratio(
            counts["sim.fluid.reschedules"], counts["sim.fluid.flows"])
        out["self_s"] = self_s
        out["outside_modules"] = outside
        out["counts"] = counts
    if observer is not None:
        c = observer.counter_totals()
        dma_coalesced = sum(v for k, v in c.items()
                            if k.startswith("dma/")
                            and k.endswith("/chunks-coalesced"))
        out["counts"] = {
            "core.frontend_calls": c.get("frontend/calls", 0),
            "core.validator_launches": c.get("validator/launches", 0),
            "core.context_pool_hit_ratio": ratio(
                c.get("context-pool/hits", 0),
                c.get("context-pool/hits", 0)
                + c.get("context-pool/misses", 0)),
            "core.demand_fetches": c.get("restore/demand-fetch", 0),
            "cpu.pages_copied": c.get("criu/pages-copied", 0),
            "cpu.lazy_faults": c.get("criu/lazy-faults", 0),
            "gpu.dma_chunks_coalesced": dma_coalesced,
            "storage.hash_hit_ratio": ratio(
                c.get("storage/hash-hit", 0),
                c.get("storage/hash-hit", 0) + c.get("storage/hash-miss", 0)),
            "storage.rehash_bytes": c.get("storage/hash-rehash-bytes", 0),
            "storage.chunks_written": c.get("storage/chunks-written", 0),
            "storage.chunks_reused": c.get("storage/chunks-reused", 0),
            "storage.drain_bytes": c.get("storage/drain-bytes", 0),
            "fleet.pool_hit_ratio": ratio(
                c.get("fleet/pool-hits", 0),
                c.get("fleet/pool-hits", 0) + c.get("fleet/pool-misses", 0)),
        }

    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
