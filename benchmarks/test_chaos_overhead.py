"""Chaos hook overhead on fig16: an armed-but-idle plan costs <= 2%.

A direct wall-clock A/B of fig16 cannot resolve a 2% bound on a busy
machine (CPU frequency drift alone swings it by about 5%), so the
overhead is decomposed into two stable measurements: the hook hit
count of a fig16 run (a pure function of the virtual clock, exactly
reproducible) and the per-hit cost of each hook state (nanosecond-scale
microbenchmarks, min over batches).  Their product over the fig16 CPU
time is the overhead ratio — once for the disabled guard
(``chaos._injector is not None``) every instrumented site pays, and
once for an armed injector whose plan never matches, an upper bound on
running with chaos on but not yet tripped.  See docs/robustness.md.
"""

import gc
import time

from repro import chaos
from repro.experiments import fig16_cow_breakdown

#: Largest fig16 CPU-time share the armed-but-idle hooks may cost.
TOLERANCE = 0.02


def _fig16_cpu_s(repeats: int = 3) -> float:
    def timed() -> float:
        gc.collect()  # park collector debt outside the timed region
        gc.disable()
        try:
            t0 = time.process_time()
            fig16_cow_breakdown.run()
            return time.process_time() - t0
        finally:
            gc.enable()

    timed()  # warm the import/plan caches
    return min(timed() for _ in range(repeats))


def _hook_hits() -> tuple[int, int]:
    """(phase entries, site visits) of one fig16 run.

    Every spec matches everywhere but its occurrence is unreachable, so
    the injector counts each visit without ever tripping.
    """
    counting = tuple(chaos.FaultSpec(kind=kind, occurrence=2**31)
                     for kind in chaos.KINDS)
    injector = chaos.install(chaos.FaultPlan(faults=counting))
    try:
        fig16_cow_breakdown.run()
    finally:
        chaos.uninstall()
    assert not injector.injected
    hits = {s.kind: injector._visits.get(id(s), 0) for s in counting}
    return (hits["crash-checkpointer"],  # one per _phase entry
            hits["dma-error"] + hits["context-error"])


def _per_hit_s(fn, batch: int = 100_000) -> float:
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn()
        best = min(best, time.perf_counter() - t0)
    return best / batch


def test_chaos_hooks_cost_under_two_percent_of_fig16():
    cpu_s = _fig16_cpu_s()
    phase_hits, site_hits = _hook_hits()
    assert phase_hits > 0 and site_hits > 0

    never = chaos.FaultPlan(faults=tuple(
        chaos.FaultSpec(kind=kind, protocol="__never-matches__")
        for kind in chaos.KINDS
    ))
    armed = chaos.install(never)
    try:
        cost_phase = _per_hit_s(
            lambda: armed.enter_phase("cow", "transfer", None))
        cost_site = _per_hit_s(lambda: armed.trip("dma-error"))
    finally:
        chaos.uninstall()

    def disabled_guard() -> None:
        if chaos._injector is not None:  # what every call site pays
            raise AssertionError("chaos should be uninstalled")

    cost_disabled = _per_hit_s(disabled_guard)

    disabled = (phase_hits + site_hits) * cost_disabled / cpu_s
    armed_idle = (phase_hits * cost_phase + site_hits * cost_site) / cpu_s
    print(f"\nfig16 {cpu_s:.2f}s CPU, {phase_hits} phase + {site_hits} site "
          f"hits; disabled {disabled:.4%}, armed idle {armed_idle:.4%}")
    assert armed_idle <= TOLERANCE
