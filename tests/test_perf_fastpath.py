"""Differential tests for the ``repro.perf`` fast path.

The fast path's contract is *observational equivalence*: a launch served
by a compiled plan must be indistinguishable — bytes, steps, recorded
access ranges, violations — from the same launch interpreted
instruction-by-instruction, and the coalesced DMA transfer must hit the
exact virtual-time stamps of the per-chunk release loop.  These tests
enforce the contract differentially: every scenario runs on both paths
and the results are compared field by field.
"""

import random

import pytest

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
from repro.gpu.program import (
    build_copy,
    build_fill,
    build_gather,
    build_inplace_add,
    build_partial_fill,
    build_reduce_sum,
    build_saxpy,
    build_scale,
    build_scatter,
    build_struct_kernel,
)
from repro.gpu.ranges import RangeSet
from repro.sim.engine import Engine
from repro.units import MIB

N_WORDS = 32


def _fresh_world(rng):
    mem = DeviceMemory(capacity=16 * MIB, default_data_size=8 * N_WORDS)
    bufs = [mem.alloc(8 * N_WORDS, tag=f"b{i}") for i in range(4)]
    for buf in bufs:
        for i in range(N_WORDS):
            buf.store_word(buf.addr + 8 * i, rng.randrange(0, 2**40))
    # idx-style contents for gather/scatter: in-range word indices.
    for i in range(N_WORDS):
        bufs[1].store_word(bufs[1].addr + 8 * i, rng.randrange(0, N_WORDS))
    return mem, bufs


def _scenario(rng):
    """One random launch: (program, args builder, n_threads)."""
    n = rng.choice([1, 2, 3, 7, 8, 16, N_WORDS])
    n_threads = rng.choice([n, n + rng.randrange(0, 4)])
    kind = rng.choice([
        "copy", "scale", "saxpy", "fill", "inplace", "reduce",
        "gather", "scatter", "partial", "struct",
    ])
    if kind == "copy":
        return build_copy(), (lambda b: [b[0].addr, b[2].addr, n]), n_threads
    if kind == "scale":
        return (build_scale(factor=rng.randrange(1, 9)),
                (lambda b: [b[0].addr, b[2].addr, n]), n_threads)
    if kind == "saxpy":
        a = rng.randrange(0, 5)
        return (build_saxpy(),
                (lambda b: [a, b[0].addr, b[2].addr, b[3].addr, n]),
                n_threads)
    if kind == "fill":
        v = rng.randrange(0, 999)
        return build_fill(), (lambda b: [b[2].addr, n, v]), n_threads
    if kind == "inplace":
        return build_inplace_add(), (lambda b: [b[2].addr, n]), n_threads
    if kind == "reduce":
        return (build_reduce_sum(),
                (lambda b: [b[0].addr, b[3].addr, n]), n_threads)
    if kind == "gather":
        return (build_gather(),
                (lambda b: [b[0].addr, b[1].addr, b[2].addr, n]), n_threads)
    if kind == "scatter":
        return (build_scatter(),
                (lambda b: [b[0].addr, b[1].addr, b[2].addr, n]), n_threads)
    v = rng.randrange(0, 99)
    if kind == "partial":
        return (build_partial_fill(),
                (lambda b: [b[2].addr, n, v]), n_threads)
    return (build_struct_kernel(),
            (lambda b: [b[3].addr, n, v]), n_threads)


def _run_one(program, make_args, n_threads, seed, force, validation_ranges):
    rng = random.Random(seed)
    mem, bufs = _fresh_world(rng)
    args = make_args(bufs)
    prog = program
    validation = None
    if validation_ranges is not None:
        prog = instrument_program(program)
        lo = min(b.addr for b in bufs)
        hi = max(b.end for b in bufs)
        if validation_ranges == "full":
            rs = RangeSet([(lo, hi)])
        else:  # "partial": a hole over part of the write target
            rs = RangeSet([(lo, hi - 8 * (N_WORDS // 2))])
        validation = ValidationState(read_ranges=rs, write_ranges=rs)
    run = run_kernel(prog, args, n_threads, mem,
                     validation=validation, force_interpret=force)
    words = [
        tuple(b.load_word(b.addr + 8 * i) for i in range(N_WORDS))
        for b in bufs
    ]
    return {
        "words": words,
        "steps": run.steps,
        "written": run.written_addrs(),
        "read": run.read_addrs(),
        "write_ranges": list(run.write_ranges()),
        "read_ranges": list(run.read_ranges()),
        "violations": [] if validation is None else [
            (v.kernel, v.addr, v.kind, v.tid) for v in validation.violations
        ],
    }


@pytest.mark.parametrize("validation_ranges", [None, "full", "partial"])
def test_differential_fuzz_interpreter_vs_plan(validation_ranges):
    """Random kernels: the plan path must match the interpreter exactly."""
    for seed in range(60):
        rng = random.Random(10_000 + seed)
        program, make_args, n_threads = _scenario(rng)
        slow = _run_one(program, make_args, n_threads, seed,
                        force=True, validation_ranges=validation_ranges)
        fast = _run_one(program, make_args, n_threads, seed,
                        force=False, validation_ranges=validation_ranges)
        assert fast == slow, (
            f"fast path diverged on seed={seed} kernel={program.name} "
            f"validation={validation_ranges}"
        )


# --- DMA coalescing determinism ----------------------------------------------


def _legacy_transfer(engine, engines, direction, nbytes, bandwidth,
                     priority, chunk_bytes):
    """The pre-coalescing per-chunk acquire/timeout/release loop."""
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


def _dma_run(use_legacy, injections, n_engines=1):
    eng = Engine()
    dma = DmaEngineSet(eng, "g0", n_engines)
    stamps = []

    def bulk():
        if use_legacy:
            n = yield from _legacy_transfer(
                eng, dma, Direction.D2H, 256 * units.MIB, 16e9,
                CHECKPOINT_PRIORITY, 4 * units.MIB)
        else:
            n = yield from transfer(
                eng, dma, Direction.D2H, 256 * units.MIB, bandwidth=16e9,
                priority=CHECKPOINT_PRIORITY, chunk_bytes=4 * units.MIB)
        stamps.append(("bulk", eng.now, n))

    def app(i, delay, nbytes):
        yield eng.timeout(delay)
        n = yield from transfer(eng, dma, Direction.H2D, nbytes,
                                bandwidth=16e9, priority=APP_PRIORITY)
        stamps.append((f"app{i}", eng.now, n))

    eng.spawn(bulk())
    for i, (delay, nbytes) in enumerate(injections):
        eng.spawn(app(i, delay, nbytes))
    eng.run()
    return stamps, eng.events_scheduled


def test_dma_coalescing_preserves_exact_completion_stamps():
    """Coalesced vs per-chunk: bit-identical stamps under app traffic."""
    for seed in range(20):
        rng = random.Random(777 + seed)
        injections = [
            (rng.uniform(0.0, 0.02), rng.choice([1, 4, 8, 32]) * units.MIB)
            for _ in range(rng.randrange(0, 5))
        ]
        fast, fast_events = _dma_run(False, injections)
        slow, slow_events = _dma_run(True, injections)
        assert fast == slow, f"stamps diverged for seed={seed}: {injections}"
        assert fast_events <= slow_events


def test_dma_coalescing_uncontended_event_count():
    """An uncontended 64-chunk bulk copy needs O(1) events, not O(chunks)."""
    fast, fast_events = _dma_run(False, injections=[])
    slow, slow_events = _dma_run(True, injections=[])
    assert fast == slow
    assert slow_events > 100          # per-chunk loop: ~3 events per chunk
    assert fast_events < 10           # coalesced: one run, one timeout


def test_watch_waiters_fires_only_when_queueing():
    from repro.sim.resources import PriorityResource

    eng = Engine()
    res = PriorityResource(eng, capacity=1)
    watch = res.watch_waiters()
    first = res.acquire()         # granted immediately: no waiter
    assert first.triggered and not watch.triggered
    second = res.acquire()        # queues behind first: watcher fires
    assert not second.triggered and watch.triggered
    assert watch.value is second
    # One-shot: a new watcher is needed for the next arrival.
    watch2 = res.watch_waiters()
    res.unwatch_waiters(watch2)
    res.acquire()
    assert not watch2.triggered


def test_timeout_until_fires_at_absolute_time():
    eng = Engine()
    seen = []

    def proc():
        yield eng.timeout(1.5)
        yield eng.timeout_until(4.25)
        seen.append(eng.now)

    eng.run(eng.spawn(proc()))
    assert seen == [4.25]
