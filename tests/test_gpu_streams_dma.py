"""Unit tests for streams, DMA engine arbitration, and the device."""

import pytest

from repro import units
from repro.errors import SimulationError
from repro.gpu.dma import APP_PRIORITY, CHECKPOINT_PRIORITY, Direction, transfer
from repro.gpu.device import Gpu
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


@pytest.fixture
def gpu(eng):
    return Gpu(eng, index=0)


def timed_body(eng, log, name, duration):
    def body():
        yield eng.timeout(duration)
        log.append((name, eng.now))
        return name

    return body


def test_stream_runs_ops_in_order(eng, gpu):
    s = gpu.create_stream()
    log = []
    s.submit("a", timed_body(eng, log, "a", 2.0))
    s.submit("b", timed_body(eng, log, "b", 1.0))
    eng.run()
    assert log == [("a", 2.0), ("b", 3.0)]


def test_streams_run_concurrently(eng, gpu):
    s1, s2 = gpu.create_stream(), gpu.create_stream()
    log = []
    s1.submit("a", timed_body(eng, log, "a", 2.0))
    s2.submit("b", timed_body(eng, log, "b", 2.0))
    eng.run()
    assert dict(log) == {"a": 2.0, "b": 2.0}


def test_stream_synchronize_waits_for_prior_ops(eng, gpu):
    s = gpu.create_stream()
    log = []

    def proc(eng):
        s.submit("a", timed_body(eng, log, "a", 3.0))
        yield s.synchronize()
        return eng.now

    assert eng.run_process(proc(eng)) == 3.0


def test_synchronize_on_empty_stream_fires_immediately(eng, gpu):
    s = gpu.create_stream()

    def proc(eng):
        yield s.synchronize()
        return eng.now

    assert eng.run_process(proc(eng)) == 0.0


def test_op_done_carries_result(eng, gpu):
    s = gpu.create_stream()
    log = []

    def proc(eng):
        op = s.submit("a", timed_body(eng, log, "a", 1.0))
        got = yield op.done
        return got

    assert eng.run_process(proc(eng)) == "a"


def test_op_failure_propagates_to_waiters(eng, gpu):
    s = gpu.create_stream()

    def bad_body():
        yield eng.timeout(1.0)
        raise RuntimeError("kernel fault")

    def proc(eng):
        op = s.submit("bad", bad_body)
        try:
            yield op.done
        except RuntimeError as err:
            return str(err)

    assert eng.run_process(proc(eng)) == "kernel fault"


def test_op_failure_does_not_kill_stream(eng, gpu):
    s = gpu.create_stream()
    log = []

    def bad_body():
        yield eng.timeout(1.0)
        raise RuntimeError("boom")

    s.submit("bad", bad_body)
    s.submit("good", timed_body(eng, log, "good", 1.0))
    eng.run()
    assert log == [("good", 2.0)]


def test_pre_exec_runs_before_body(eng, gpu):
    s = gpu.create_stream()
    log = []

    def pre():
        yield eng.timeout(5.0)
        log.append(("pre", eng.now))

    s.submit("k", timed_body(eng, log, "k", 1.0), pre_exec=pre)
    eng.run()
    assert log == [("pre", 5.0), ("k", 6.0)]


def test_device_synchronize_drains_all_streams(eng, gpu):
    s1, s2 = gpu.create_stream(), gpu.create_stream()
    log = []
    s1.submit("a", timed_body(eng, log, "a", 2.0))
    s2.submit("b", timed_body(eng, log, "b", 4.0))

    def proc(eng):
        yield from gpu.synchronize()
        return eng.now

    assert eng.run_process(proc(eng)) == 4.0
    assert gpu.pending_ops == 0


# --- DMA ---------------------------------------------------------------------


def test_transfer_time_matches_bandwidth(eng, gpu):
    nbytes = 100 * units.MB

    def proc(eng):
        moved = yield from transfer(
            eng, gpu.dma, Direction.D2H, nbytes, bandwidth=units.GB
        )
        return (moved, eng.now)

    moved, t = eng.run_process(proc(eng))
    assert moved == nbytes
    assert t == pytest.approx(0.1)


def test_zero_byte_transfer_is_instant(eng, gpu):
    def proc(eng):
        moved = yield from transfer(eng, gpu.dma, Direction.H2D, 0, bandwidth=units.GB)
        return (moved, eng.now)

    assert eng.run_process(proc(eng)) == (0, 0.0)


def test_transfer_rejects_pool_on_another_engine(gpu):
    other = Engine()

    def proc():
        yield from transfer(other, gpu.dma, Direction.H2D, 1, bandwidth=units.GB)

    with pytest.raises(SimulationError):
        other.run_process(proc())


def test_directions_share_the_engine_pool(eng, gpu):
    """§5: the transfer engines are shared, so opposite-direction
    transfers serialize on the single default engine."""
    done = {}

    def mover(eng, name, direction):
        yield from transfer(eng, gpu.dma, direction, units.GB, bandwidth=units.GB)
        done[name] = eng.now

    eng.spawn(mover(eng, "down", Direction.D2H))
    eng.spawn(mover(eng, "up", Direction.H2D))
    eng.run()
    assert sorted(done.values()) == [1.0, 2.0]


def test_same_direction_serializes(eng, gpu):
    done = {}

    def mover(eng, name):
        yield from transfer(eng, gpu.dma, Direction.D2H, units.GB, bandwidth=units.GB)
        done[name] = eng.now

    eng.spawn(mover(eng, "one"))
    eng.spawn(mover(eng, "two"))
    eng.run()
    assert sorted(done.values()) == [1.0, 2.0]


def test_unchunked_bulk_blocks_app_transfer(eng, gpu):
    """Without chunking, an app transfer waits behind the whole bulk copy."""
    done = {}

    def bulk(eng):
        yield from transfer(
            eng, gpu.dma, Direction.D2H, 10 * units.GB,
            bandwidth=units.GB, priority=CHECKPOINT_PRIORITY,
        )
        done["bulk"] = eng.now

    def app(eng):
        yield eng.timeout(1.0)  # arrives mid-bulk
        yield from transfer(
            eng, gpu.dma, Direction.D2H, units.GB,
            bandwidth=units.GB, priority=APP_PRIORITY,
        )
        done["app"] = eng.now

    eng.spawn(bulk(eng))
    eng.spawn(app(eng))
    eng.run()
    assert done["app"] == pytest.approx(11.0)  # waited for all 10 GB


def test_chunked_bulk_lets_app_preempt(eng, gpu):
    """With 4 MB chunks, the app transfer preempts at a chunk boundary."""
    done = {}

    def bulk(eng):
        yield from transfer(
            eng, gpu.dma, Direction.D2H, 10 * units.GB,
            bandwidth=units.GB, priority=CHECKPOINT_PRIORITY,
            chunk_bytes=units.CHECKPOINT_CHUNK,
        )
        done["bulk"] = eng.now

    def app(eng):
        yield eng.timeout(1.0)
        yield from transfer(
            eng, gpu.dma, Direction.D2H, units.GB,
            bandwidth=units.GB, priority=APP_PRIORITY,
        )
        done["app"] = eng.now

    eng.spawn(bulk(eng))
    eng.spawn(app(eng))
    eng.run()
    # The app waits at most one chunk (~4 ms at 1 GB/s) then transfers 1 s.
    assert done["app"] == pytest.approx(2.0, abs=0.05)
    # Bulk finishes after its 10 s of work plus the 1 s preemption.
    assert done["bulk"] == pytest.approx(11.0, abs=0.05)


def test_app_transfer_pending_ignores_checkpoint_traffic(eng, gpu):
    """Regression: a queued checkpoint-priority transfer used to flip
    app_transfer_pending to True (it checked queue_len unfiltered), so
    the prioritized copier yielded the engine to its own queued chunks."""
    snapshots = []

    def holder(eng):
        req = yield gpu.dma.d2h.acquire(priority=CHECKPOINT_PRIORITY)
        yield eng.timeout(2.0)
        gpu.dma.d2h.release(req)

    def queued_bulk(eng):
        yield eng.timeout(0.5)
        yield from transfer(
            eng, gpu.dma, Direction.D2H, units.GB, bandwidth=units.GB,
            priority=CHECKPOINT_PRIORITY,
        )

    def observer(eng):
        yield eng.timeout(1.0)  # bulk transfer now queued behind holder
        snapshots.append(gpu.dma.app_transfer_pending(Direction.D2H))

    eng.spawn(holder(eng))
    eng.spawn(queued_bulk(eng))
    eng.spawn(observer(eng))
    eng.run()
    assert snapshots == [False]


def test_app_transfer_pending_sees_running_app_transfer(eng, gpu):
    """An *ongoing* app transfer counts too ("ongoing or pending")."""
    snapshots = []

    def app(eng):
        yield from transfer(
            eng, gpu.dma, Direction.D2H, units.GB, bandwidth=units.GB,
            priority=APP_PRIORITY,
        )

    def observer(eng):
        yield eng.timeout(0.5)  # mid-transfer: app holds the engine
        snapshots.append(gpu.dma.app_transfer_pending(Direction.D2H))

    eng.spawn(app(eng))
    eng.spawn(observer(eng))
    eng.run()
    assert snapshots == [True]


def test_transfer_reports_bytes_when_observed(eng, gpu):
    """With an observer installed, transfers count bytes per priority."""
    from repro import obs

    with obs.observed(eng) as observer:
        def proc(eng):
            yield from transfer(
                eng, gpu.dma, Direction.D2H, 8 * units.MB,
                bandwidth=units.GB, priority=CHECKPOINT_PRIORITY,
                chunk_bytes=4 * units.MB,
            )

        eng.run_process(proc(eng))
        counter = observer.metrics.get(
            f"dma/{gpu.dma.pool.name}/bytes",
            priority=CHECKPOINT_PRIORITY, cls="bulk", direction="d2h",
        )
        assert counter is not None and counter.value == 8 * units.MB


def test_app_transfer_pending_reflects_queue(eng, gpu):
    snapshots = []

    def holder(eng):
        req = yield gpu.dma.d2h.acquire(priority=CHECKPOINT_PRIORITY)
        yield eng.timeout(2.0)
        gpu.dma.d2h.release(req)

    def app(eng):
        yield eng.timeout(0.5)
        yield from transfer(
            eng, gpu.dma, Direction.D2H, units.GB, bandwidth=units.GB,
            priority=APP_PRIORITY,
        )

    def observer(eng):
        yield eng.timeout(0.0)
        snapshots.append(gpu.dma.app_transfer_pending(Direction.D2H))
        yield eng.timeout(1.0)
        snapshots.append(gpu.dma.app_transfer_pending(Direction.D2H))

    eng.spawn(holder(eng))
    eng.spawn(app(eng))
    eng.spawn(observer(eng))
    eng.run()
    assert snapshots == [False, True]
