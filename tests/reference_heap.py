"""The historical single-heap scheduler, kept as a test-side reference.

Before the calendar queue, the engine pushed every record onto one
heapq ordered by ``(when, seq)`` and popped one record per dispatch.
:class:`HeapEngine` puts exactly that queue under the public
:class:`~repro.sim.engine.Engine` API, so the scheduler property suite
can compare firing order against it and the engine events/s gate in
``benchmarks/test_perf_wallclock.py`` can time the same workload on both.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Optional

from repro.errors import DeadlockError, SimulationError
from repro.sim.engine import Engine
from repro.sim.events import K_CALL1, K_FIRE, K_RESUME, K_STEP, Event


class HeapEngine(Engine):
    """An :class:`Engine` whose queue is one ``(when, seq, record)`` heap."""

    def __init__(self) -> None:
        super().__init__()
        self._heap: list[tuple] = []
        self._seq = itertools.count()

    @property
    def events_pending(self) -> int:
        return len(self._heap)

    def _push(self, when: float, kind: int, target, payload) -> None:
        if when < self._now or when != when:  # second clause: NaN guard
            raise SimulationError(f"cannot schedule in the past ({when} < {self._now})")
        self._n_scheduled += 1
        heapq.heappush(self._heap, (when, next(self._seq), kind, target, payload))

    def _push_callbacks(self, event: Event, cbs: list) -> None:
        now = self._now
        for cb in cbs:
            kind = K_RESUME if isinstance(cb, Event) else K_CALL1
            self._push(now, kind, cb, event)

    def _drain(self, deadline: Optional[float],
               stop_event: Optional[Event]) -> Any:
        heap = self._heap
        while heap:
            if deadline is not None and heap[0][0] > deadline:
                self._now = deadline
                return None
            when, _, kind, target, payload = heapq.heappop(heap)
            self._now = when
            self._n_executed += 1
            if kind == K_RESUME:
                target._resume(payload)
            elif kind == K_FIRE:
                target._fire(True, payload)
            elif kind == K_CALL1:
                target(payload)
            elif kind == K_STEP:
                target._step(None, payload)
            else:
                target()
            if stop_event is not None and stop_event._fired:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
        if stop_event is not None and not stop_event._fired:
            raise DeadlockError(
                f"event queue drained at t={self._now:g} but "
                f"{stop_event.name!r} never fired"
            )
        if deadline is not None:
            self._now = deadline
        return None
