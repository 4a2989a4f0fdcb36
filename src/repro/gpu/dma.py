"""DMA transfers over the host<->device PCIe link.

Each GPU has one DMA engine per direction (configurable via its spec):
a *limited* resource, per §5 of the paper, which is why unthrottled
checkpoint traffic starves application transfers.  Transfers acquire the
engine for their duration; the engine is a
:class:`~repro.sim.resources.PriorityResource`, so application traffic
(priority :data:`APP_PRIORITY`) always beats checkpoint traffic
(:data:`CHECKPOINT_PRIORITY`) *when the engine is re-arbitrated* — which
only happens at transfer boundaries.  The prioritized-transfer
optimization (§5) therefore copies checkpoints in 4 MB chunks, releasing
the engine after each chunk so pending application transfers preempt the
bulk load; the ablation (Fig. 16b) simply holds the engine for the whole
buffer.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro import chaos, obs, units
from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.resources import PriorityResource, acquired

#: Application PCIe traffic: highest priority (lowest number).
APP_PRIORITY = 0
#: Bulk checkpoint/restore traffic: yields to application traffic.
CHECKPOINT_PRIORITY = 10


def priority_class(priority: int) -> str:
    """Human label for a DMA priority level (for metric labels)."""
    return "app" if priority == APP_PRIORITY else "bulk"


class Direction(enum.Enum):
    """Transfer direction relative to the GPU."""

    H2D = "h2d"
    D2H = "d2h"


class DmaEngineSet:
    """The DMA transfer engines of one GPU.

    The engines form one *shared* pool used by both directions — §5
    observes that "GPUs have a limited number of PCIe transfer engines
    shared between PHOS and applications", and Fig. 16(b)'s starvation
    happens precisely because a bulk checkpoint D2H load occupies the
    engine an application H2D batch load needs.
    """

    def __init__(self, engine: Engine, gpu_name: str, n_engines: int) -> None:
        self.pool = PriorityResource(
            engine, capacity=n_engines, name=f"{gpu_name}-dma"
        )
        # Kept as aliases: both directions draw from the shared pool.
        self.h2d = self.pool
        self.d2h = self.pool

    def for_direction(self, direction: Direction) -> PriorityResource:
        return self.pool

    def app_transfer_pending(self, direction: Direction) -> bool:
        """True when application-priority traffic is waiting or running.

        The checkpoint copier polls this between chunks ("we check
        whether there is ongoing or pending application transfer").
        Only *application-priority* requests count: a queue full of
        other checkpoint chunks must not make the copier yield to
        itself and stall the bulk load forever.
        """
        res = self.pool
        return any(
            req.priority == APP_PRIORITY for req in res.iter_waiting()
        ) or any(
            req.priority == APP_PRIORITY for req in res.iter_users()
        )


def transfer(
    engine: Engine,
    engines: DmaEngineSet,
    direction: Direction,
    nbytes: int,
    bandwidth: float,
    priority: int = APP_PRIORITY,
    chunk_bytes: Optional[int] = None,
):
    """A generator process that performs one DMA transfer.

    With ``chunk_bytes`` set, the transfer is preemptible at every
    chunk boundary (the §5 prioritized bulk copy); otherwise the
    engine is held for the whole transfer.  Returns the number of
    bytes moved.

    The chunked path coalesces scheduler events: while no other
    request is queued, release/re-acquire at a boundary cannot change
    any outcome, so the engine is held across consecutive chunks under
    a single timeout and split at the exact chunk boundary at or after
    the first waiter's arrival (signalled by
    :meth:`~repro.sim.resources.Resource.watch_waiters`).  Virtual-time
    behaviour — completion stamps and preemption points — is
    bit-identical to the per-chunk loop; only the event count drops.
    """
    if nbytes <= 0:
        return 0
    if engines.pool.engine is not engine:
        raise SimulationError(f"DMA pool {engines.pool.name!r} is on another engine")
    # Fault injection targets bulk (checkpoint/restore) traffic only:
    # the chaos fault model is "the C/R data path failed", not "the
    # application's own PCIe batch load failed".
    if chaos._injector is not None and priority != APP_PRIORITY:
        chaos._injector.trip("dma-error")
    res = engines.for_direction(direction)
    moved_counter = obs.counter(
        f"dma/{res.name}/bytes",
        priority=priority,
        cls=priority_class(priority),
        direction=direction.value,
    )
    if chunk_bytes is None:
        req = yield from acquired(res, priority=priority)
        try:
            yield engine.timeout(units.transfer_time(nbytes, bandwidth))
        finally:
            res.release(req)
        moved_counter.inc(nbytes)
        return nbytes
    coalesced_counter = obs.counter(
        f"dma/{res.name}/chunks-coalesced",
        priority=priority,
        cls=priority_class(priority),
        direction=direction.value,
    )
    moved = 0
    while moved < nbytes:
        req = yield from acquired(res, priority=priority)
        try:
            if res.queue_len > 0:
                # Contended: exactly the historical per-chunk step —
                # one chunk, then release so the waiter is served.
                step = min(chunk_bytes, nbytes - moved)
                yield engine.timeout(units.transfer_time(step, bandwidth))
                moved += step
                moved_counter.inc(step)
                continue
            # Uncontended: releasing and re-acquiring at a chunk
            # boundary with an empty queue is a virtual-time no-op, so
            # hold the engine and schedule ONE timeout for the whole
            # remaining run.  Boundary timestamps are precomputed with
            # the same float accumulation the per-chunk loop performs
            # (now + t1 + t2 + ...), so every boundary — including the
            # completion time — is bit-identical to the slow path.
            boundaries = []
            t = engine.now
            m = moved
            while m < nbytes:
                step = min(chunk_bytes, nbytes - m)
                t = t + units.transfer_time(step, bandwidth)
                m += step
                boundaries.append((t, m))
            watch = res.watch_waiters()
            try:
                index, _ = yield engine.any_of(
                    [engine.timeout_until(boundaries[-1][0]), watch]
                )
            finally:
                res.unwatch_waiters(watch)
            if index == 0:
                # Ran to completion with no waiter ever queueing.
                covered = len(boundaries)
                split_at, split_moved = boundaries[-1]
            else:
                # A waiter queued mid-run.  The per-chunk loop would
                # have released at the next chunk boundary — hold
                # until exactly that timestamp, then split.
                arrived = engine.now
                pos = 0
                while boundaries[pos][0] < arrived:
                    pos += 1
                split_at, split_moved = boundaries[pos]
                covered = pos + 1
                if split_at > engine.now:
                    yield engine.timeout_until(split_at)
            if covered > 1:
                coalesced_counter.inc(covered - 1)
            moved_counter.inc(split_moved - moved)
            moved = split_moved
        finally:
            res.release(req)
    return moved
