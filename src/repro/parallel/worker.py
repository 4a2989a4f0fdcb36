"""Pool-worker side of the parallel experiment engine.

Each worker is a **spawned** interpreter: nothing leaks in from the
parent except the pickled ``(runner, cell)`` pairs.  :func:`init_worker`
runs once per worker process and

* marks the process as a worker (:data:`IN_WORKER`) so a runner that
  itself calls :func:`repro.parallel.run_cells` degrades to serial
  instead of nesting pools;
* enables the warm :class:`~repro.gpu.isa.Program` cache
  (:func:`repro.apps.base.enable_program_cache`): consecutive cells on
  the same worker rebuild identical kernel binaries, so sharing the
  ``Program`` objects lets the compiled-plan cache of PR 2 stay warm
  across cells.  This is purely a wall-clock effect — plans re-prove
  their bind-time preconditions against the actual device memory on
  every launch, so results stay bit-identical.

:func:`invoke_batch` runs a contiguous *chunk* of cells sequentially
and returns one compact :class:`BatchOutcome` — the runner and the
executor round-trip are paid once per chunk instead of once per cell.
A cell that raises stops the chunk (mirroring the serial fail-fast)
and ships a pickle-safe rendition of the exception plus its index, so
the parent can attribute the failure to the exact declared cell.
:func:`invoke` is the single-cell form, kept for direct callers.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Optional


#: True inside pool workers; :func:`repro.parallel.run_cells` reads it
#: to refuse nested pools.
IN_WORKER = False


def init_worker() -> None:
    global IN_WORKER
    IN_WORKER = True
    from repro.apps import base

    base.enable_program_cache()


@dataclass
class CellOutcome:
    """One executed cell: its result plus worker-side accounting."""

    result: object
    wall_s: float
    warm_hits: int
    pid: int


def invoke(runner, cell) -> CellOutcome:
    """Run one cell in this worker; called via ``pool.submit``."""
    from repro.apps import base

    hits0 = base.program_cache_hits()
    t0 = time.perf_counter()
    result = runner(cell)
    wall = time.perf_counter() - t0
    return CellOutcome(result=result, wall_s=wall,
                       warm_hits=base.program_cache_hits() - hits0,
                       pid=os.getpid())


@dataclass
class BatchOutcome:
    """One executed chunk of cells, in submission (= declared) order.

    Exactly one of two shapes comes back: all cells ran
    (``error is None``, one result and wall time per cell) or the chunk
    stopped at ``error_index`` (partial ``wall_s``, empty ``results`` —
    partial results are dropped rather than shipped, the merge cannot
    use them).
    """

    results: list = field(default_factory=list)
    #: Per-cell wall seconds for the cells that actually ran.
    wall_s: list = field(default_factory=list)
    warm_hits: int = 0
    pid: int = 0
    #: Pickled size of ``results`` — the payload actually crossing the
    #: process boundary, surfaced in PoolRunStats.result_bytes.
    result_bytes: int = 0
    error_index: Optional[int] = None
    error: Optional[BaseException] = None


def _pickle_safe(exc: BaseException) -> BaseException:
    """The exception itself if it pickles, else a faithful stand-in.

    A worker exception must survive the trip back through the executor;
    an unpicklable one would kill the *future*, turning a clean per-cell
    failure into an unattributable pool error.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def invoke_batch(runner, cells) -> BatchOutcome:
    """Run a chunk of cells sequentially; called via ``pool.submit``."""
    from repro.apps import base

    hits0 = base.program_cache_hits()
    out = BatchOutcome(pid=os.getpid())
    for i, cell in enumerate(cells):
        t0 = time.perf_counter()
        try:
            result = runner(cell)
        except Exception as exc:
            out.wall_s.append(time.perf_counter() - t0)
            out.error_index = i
            out.error = _pickle_safe(exc)
            out.results = []
            break
        out.wall_s.append(time.perf_counter() - t0)
        out.results.append(result)
    if out.error is None:
        try:
            out.result_bytes = len(
                pickle.dumps(out.results, pickle.HIGHEST_PROTOCOL))
        except Exception:
            out.result_bytes = -1  # unpicklable: the future will say so
    out.warm_hits = base.program_cache_hits() - hits0
    return out
