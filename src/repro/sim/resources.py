"""Contended resources for the discrete-event engine.

:class:`Resource` models a pool of identical slots (e.g. a GPU's DMA
engines) with FIFO queueing.  :class:`PriorityResource` adds a priority
to each request — lower numbers acquire first — which is how the
prioritized application PCIe transfer (§5 of the paper) preempts bulk
checkpoint traffic at chunk boundaries.  :class:`Store` is an unbounded
FIFO mailbox used for IPC between the PHOS frontend and daemon.

Cancellation: releasing a request that was never granted withdraws it
from the wait queue.  The FIFO resource removes it eagerly; the
priority resource honours a *lazy-deletion* contract instead (the heap
entry stays behind, marked released, and ``_pop_next`` skips it), so a
cancel is O(queue) only in the membership check and never disturbs the
heap invariant.  Either way, releasing a request the resource has
never seen raises :class:`~repro.errors.SimulationError`.

When a :mod:`repro.obs` observer is installed, every resource reports
queue depth (time-weighted), per-priority slot occupancy, and
grant-wait latency — the instruments behind the Fig. 16(b) DMA
starvation breakdown.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Iterator, Optional

from repro import obs
from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import Event


class Request(Event):
    """A pending acquisition.  Fires with the request itself as value."""

    __slots__ = ("resource", "priority", "released", "requested_at")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        # Event.__init__ inlined: requests are minted once per acquire
        # on the DMA hot path and the extra call shows up in profiles.
        engine = resource.engine
        self.engine = engine
        self._name = ""
        self._fired = False
        self._ok = None
        self._value = None
        self._callbacks = None
        self.resource = resource
        self.priority = priority
        self.released = False
        #: When the request was submitted (for grant-wait latency).
        self.requested_at = engine._now

    @property
    def name(self) -> str:
        # Lazily formatted: requests are minted on every acquire and the
        # label is only read for error messages and span names.
        return f"req({self.resource.name})"


class Resource:
    """A FIFO resource with ``capacity`` identical slots.

    Usage from a process::

        req = yield resource.acquire()
        try:
            yield engine.timeout(work)
        finally:
            resource.release(req)
    """

    def __init__(self, engine: Engine, capacity: int = 1,
                 name: str = "resource") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self._users: list[Request] = []
        self._waiters: deque[Request] = deque()
        #: One-shot events armed by holders that want to be woken the
        #: moment another request has to queue (see ``watch_waiters``).
        self._watchers: list[Event] = []
        #: Priorities ever granted here (so occupancy gauges report a
        #: zero when a class drains, not a stale last value).
        self._prio_seen: set[int] = set()

    # -- introspection -------------------------------------------------------
    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return len(self._users)

    @property
    def queue_len(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    @property
    def busy(self) -> bool:
        """True when all slots are held."""
        return len(self._users) >= self.capacity

    def iter_users(self) -> Iterator[Request]:
        """The requests currently holding a slot (snapshot)."""
        return iter(tuple(self._users))

    def iter_waiting(self) -> Iterator[Request]:
        """The requests waiting for a slot, in service order (snapshot)."""
        return iter(tuple(self._waiters))

    # -- acquire / release -----------------------------------------------------
    def acquire(self, priority: int = 0) -> Request:
        """Request a slot.  The returned event fires when granted."""
        req = Request(self, priority=priority)
        if len(self._users) < self.capacity and self._queue_empty():
            # Uncontended fast path: a free slot and nobody queued means
            # enqueue-then-grant would pop this request straight back
            # out.  Identical semantics (grant-wait 0, fired before the
            # caller can yield), without touching the wait queue.
            self._users.append(req)
            ob = obs.active()
            if ob is not None:
                ob.metrics.histogram(
                    f"resource/{self.name}/grant-wait", priority=req.priority
                ).observe(0.0)
                self._note(ob)
            req.succeed(req)
            return req
        self._enqueue(req)
        self._grant()
        self._note()
        if not req.triggered and self._watchers:
            # The request had to queue: wake every armed watcher.  A
            # holder coalescing work across re-arbitration points uses
            # this as its signal to stop coalescing and yield the slot
            # at the next boundary.
            watchers, self._watchers = self._watchers, []
            for ev in watchers:
                ev.succeed(req)
        return req

    # -- waiter watching ----------------------------------------------------
    def watch_waiters(self) -> Event:
        """Arm a one-shot event that fires when a request has to queue.

        The event succeeds (with the queued :class:`Request` as value)
        the next time an ``acquire`` is not granted immediately.  Used
        by the coalesced DMA bulk copy: while no watcher has fired, a
        release/re-acquire cycle at a chunk boundary is a virtual-time
        no-op, so the holder may skip it entirely.
        """
        ev = Event(self.engine, name=f"waiter-watch({self.name})")
        self._watchers.append(ev)
        return ev

    def unwatch_waiters(self, ev: Event) -> None:
        """Disarm a watcher from :meth:`watch_waiters` (no-op if fired)."""
        try:
            self._watchers.remove(ev)
        except ValueError:
            pass

    def release(self, req: Request) -> None:
        """Return a granted slot to the pool, or cancel a waiting request."""
        if req.released:
            raise SimulationError(f"double release on {self.name}")
        if req in self._users:
            self._users.remove(req)
        elif self._cancel_waiting(req):
            pass  # withdrawn before being granted
        else:
            raise SimulationError(f"release of unknown request on {self.name}")
        req.released = True
        if not self._queue_empty():
            self._grant()
        self._note()

    # -- queue policy (overridden by PriorityResource) ---------------------------
    def _queue_empty(self) -> bool:
        """True when no waiter could possibly be granted before a new one."""
        return not self._waiters

    def _enqueue(self, req: Request) -> None:
        self._waiters.append(req)

    def _pop_next(self) -> Optional[Request]:
        return self._waiters.popleft() if self._waiters else None

    def _cancel_waiting(self, req: Request) -> bool:
        """Withdraw a not-yet-granted request; False when unknown."""
        if req in self._waiters:
            self._waiters.remove(req)
            return True
        return False

    def _grant(self) -> None:
        ob = None
        ob_fetched = False
        while len(self._users) < self.capacity:
            req = self._pop_next()
            if req is None:
                return
            self._users.append(req)
            if not ob_fetched:
                ob = obs.active()
                ob_fetched = True
            if ob is not None:
                ob.metrics.histogram(
                    f"resource/{self.name}/grant-wait", priority=req.priority
                ).observe(self.engine.now - req.requested_at)
            req.succeed(req)

    # -- observability -----------------------------------------------------------
    def _note(self, ob=None) -> None:
        """Sample occupancy and queueing (no-op without an observer)."""
        if ob is None:
            ob = obs.active()
            if ob is None:
                return
        metrics = ob.metrics
        metrics.gauge(f"resource/{self.name}/capacity").set(self.capacity)
        metrics.gauge(f"resource/{self.name}/in-use").set(self.in_use)
        metrics.histogram(f"resource/{self.name}/queue-depth").update(
            self.queue_len)
        counts: dict[int, int] = {}
        for req in self._users:
            counts[req.priority] = counts.get(req.priority, 0) + 1
        self._prio_seen.update(counts)
        for priority in self._prio_seen:
            metrics.gauge(
                f"resource/{self.name}/in-use", priority=priority
            ).set(counts.get(priority, 0))


class PriorityResource(Resource):
    """A resource whose waiters are served lowest-priority-number first.

    Ties are broken FIFO, so equal-priority traffic behaves exactly like
    the base :class:`Resource`.  Cancelled waiters are lazily deleted:
    they stay in the heap, marked released, and are skipped on pop.
    """

    def __init__(self, engine: Engine, capacity: int = 1,
                 name: str = "presource") -> None:
        super().__init__(engine, capacity=capacity, name=name)
        self._heap: list[tuple[int, int, Request]] = []
        self._counter = itertools.count()

    def _queue_empty(self) -> bool:
        # Lazy deletion keeps released entries in the heap; any entry at
        # all disables the fast path (the slow path skips them anyway).
        return not self._heap

    def _enqueue(self, req: Request) -> None:
        heapq.heappush(self._heap, (req.priority, next(self._counter), req))

    def _pop_next(self) -> Optional[Request]:
        while self._heap:
            _, _, req = heapq.heappop(self._heap)
            if not req.released:
                return req
        return None

    def _cancel_waiting(self, req: Request) -> bool:
        # Lazy deletion: the caller marks ``req.released``; the entry
        # stays in the heap and ``_pop_next`` skips it.
        return any(entry[2] is req for entry in self._heap)

    @property
    def queue_len(self) -> int:
        return sum(1 for _, _, req in self._heap if not req.released)

    def iter_waiting(self) -> Iterator[Request]:
        return iter(tuple(
            req for _, _, req in sorted(self._heap, key=lambda e: e[:2])
            if not req.released
        ))


def acquired(resource: Resource, priority: int = 0):
    """Interrupt-safe acquire: ``req = yield from acquired(res, ...)``.

    The naked pattern ``req = yield res.acquire()`` leaks a slot when the
    waiting process is interrupted: the exception is thrown at the yield,
    the assignment never happens, and the queued (or just-granted)
    request is orphaned — permanently holding or eventually claiming a
    slot for a dead process.  This helper owns the request across the
    wait and cancels/returns it if anything is thrown in, relying on the
    release contract above (releasing a waiter withdraws it; releasing a
    granted request returns the slot).  Exactly one yield, so virtual
    timestamps are unchanged.
    """
    req = resource.acquire(priority=priority)
    try:
        yield req
    except BaseException:
        if not req.released:
            resource.release(req)
        raise
    return req


class Store:
    """An unbounded FIFO mailbox of items.

    ``put`` never blocks; ``get`` returns an event that fires with the
    next item (immediately if one is queued).
    """

    def __init__(self, engine: Engine, name: str = "store") -> None:
        self.engine = engine
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def put(self, item: Any) -> None:
        """Deposit an item, waking the oldest waiting getter if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """An event that fires with the next available item."""
        ev = Event(self.engine, name=f"get({self.name})")
        if self._items:
            ev.succeed(self._items.popleft())
        else:
            self._getters.append(ev)
        return ev

    def __len__(self) -> int:
        return len(self._items)
