"""Wall-clock guards on the simulator's fast paths.

Each gate is a ratio measured within one process, so runner speed
cancels out:

* compiled kernel plans beat forced interpretation by >2x (plain and
  instrumented-twin launches alike);
* DMA chunk coalescing reaches the same virtual end time as the
  per-chunk release loop with >5x fewer scheduler events;
* the calendar queue keeps up with the single-heap reference scheduler
  in ``tests/reference_heap.py`` (>0.85x its speed).

End-to-end wall time is the repo benchmark's job (``perfbench/``).
"""

import gc
import statistics
import time

from repro import units
from repro.gpu.dma import (
    APP_PRIORITY,
    CHECKPOINT_PRIORITY,
    Direction,
    DmaEngineSet,
    transfer,
)
from repro.gpu.instrument import instrument_program
from repro.gpu.interpreter import ValidationState, run_kernel
from repro.gpu.memory import DeviceMemory
from repro.gpu.program import build_saxpy
from repro.gpu.ranges import RangeSet
from repro.perf.plans import plan_cache_stats, reset_plan_cache_stats
from repro.sim.engine import Engine

from tests.reference_heap import HeapEngine


def test_plan_fast_path_beats_interpreter():
    n_threads, repeats = 64, 30
    mem = DeviceMemory(capacity=64 * units.MIB,
                       default_data_size=8 * n_threads)
    x, y, z = (mem.alloc(8 * n_threads) for _ in range(3))
    prog = build_saxpy()
    twin = instrument_program(prog)
    args = [3, x.addr, y.addr, z.addr, n_threads]
    write_rs = RangeSet([(z.addr, z.addr + 8 * n_threads)])
    read_rs = RangeSet([(x.addr, x.addr + 8 * n_threads),
                        (y.addr, y.addr + 8 * n_threads)])

    def instrs_per_s(program, validation_factory, force):
        steps = 0
        t0 = time.perf_counter()
        for _ in range(repeats):
            run = run_kernel(program, args, n_threads, mem,
                             validation=validation_factory(),
                             force_interpret=force)
            steps += run.steps
        return steps / (time.perf_counter() - t0)

    def none():
        return None

    def vs():
        return ValidationState(read_ranges=read_rs, write_ranges=write_rs)

    reset_plan_cache_stats()
    speedup_plain = (instrs_per_s(prog, none, force=False)
                     / instrs_per_s(prog, none, force=True))
    speedup_twin = (instrs_per_s(twin, vs, force=False)
                    / instrs_per_s(twin, vs, force=True))
    assert speedup_plain > 2.0
    assert speedup_twin > 2.0
    assert plan_cache_stats()["hit"] > 0


def _legacy_transfer(engine, engines, direction, nbytes, bandwidth, priority,
                     chunk_bytes):
    """The historical per-chunk acquire/timeout/release loop: the
    reference the event-coalescing comparison is made against."""
    res = engines.for_direction(direction)
    moved = 0
    while moved < nbytes:
        step = min(chunk_bytes, nbytes - moved)
        req = yield res.acquire(priority=priority)
        try:
            yield engine.timeout(units.transfer_time(step, bandwidth))
        finally:
            res.release(req)
        moved += step
    return moved


def _dma_scenario(use_legacy_loop: bool, engine_cls=Engine):
    """One contended bulk copy; returns (virtual end, events executed)."""
    eng = engine_cls()
    dma = DmaEngineSet(eng, "bench-gpu", 1)

    def bulk():
        if use_legacy_loop:
            yield from _legacy_transfer(eng, dma, Direction.D2H,
                                        1024 * units.MIB, 16e9,
                                        CHECKPOINT_PRIORITY, 4 * units.MIB)
        else:
            yield from transfer(eng, dma, Direction.D2H, 1024 * units.MIB,
                                bandwidth=16e9, priority=CHECKPOINT_PRIORITY,
                                chunk_bytes=4 * units.MIB)

    def app(delay, nbytes):
        yield eng.timeout(delay)
        yield from transfer(eng, dma, Direction.H2D, nbytes,
                            bandwidth=16e9, priority=APP_PRIORITY)

    eng.spawn(bulk())
    for delay, nbytes in ((0.084, 8 * units.MIB), (0.19, 32 * units.MIB)):
        eng.spawn(app(delay, nbytes))
    eng.run()
    return eng.now, eng.events_executed


def test_dma_coalescing_saves_events_with_identical_virtual_time():
    end_fast, events_fast = _dma_scenario(use_legacy_loop=False)
    end_legacy, events_legacy = _dma_scenario(use_legacy_loop=True)
    assert end_fast == end_legacy
    assert events_legacy / events_fast > 5.0


def test_calendar_queue_keeps_up_with_legacy_heap():
    """The calendar queue and the single-heap reference run the same
    event-heavy workload in interleaved pairs (alternating which goes
    first, GC off); the gate is the median of the per-pair
    heap/calendar time ratios, which cancels both runner speed and
    drift over the run.  >15% behind the reference scheduler fails."""
    assert (_dma_scenario(True, HeapEngine)
            == _dma_scenario(True, Engine))

    def seconds(engine_cls):
        t0 = time.perf_counter()
        _dma_scenario(True, engine_cls)
        return time.perf_counter() - t0

    ratios = []
    gc.collect()
    gc.disable()
    try:
        for i in range(60):
            if i % 2:
                heap_s = seconds(HeapEngine)
                calendar_s = seconds(Engine)
            else:
                calendar_s = seconds(Engine)
                heap_s = seconds(HeapEngine)
            ratios.append(heap_s / calendar_s)
    finally:
        gc.enable()
    assert statistics.median(ratios) > 0.85
