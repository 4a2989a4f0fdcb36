"""The parallel experiment engine: cells, the pool, and the merge.

Execution model
---------------

A *cell* is one ``(exp_id, cell_key, config)`` tuple naming an isolated
measurement: the runner builds a fresh world (engine + machine + PHOS +
app), measures, and returns plain picklable rows.  Cells share no
state, so :func:`run_cells` may execute them in any order on any
worker; determinism comes entirely from the **merge**, which returns
results indexed by the declared cell order, never by completion order.

Determinism contract
--------------------

``run_cells(runner, cells, jobs=N)`` produces the exact same list of
results for every ``N`` (including the in-process serial fallback)
provided the runner is a *pure function of its cell*: it must build
its own world and derive nothing from process-global mutable state.
The figure goldens under ``tests/goldens/`` pin this bit-for-bit at
``--jobs 1`` and ``--jobs 4``.

Workers are **spawn**-started (the portable, state-clean choice): each
worker is a fresh interpreter that imports the runner by qualified
name.  The worker initializer enables the per-worker warm
:class:`~repro.gpu.isa.Program` cache (see
:func:`repro.apps.base.enable_program_cache`) so consecutive cells on
one worker reuse compiled kernel plans — a wall-clock optimization
that is result-invariant because plans re-prove their preconditions
against the actual memory at every bind.

Batched dispatch
----------------

Cells are shipped to workers in contiguous *chunks* (about four per
worker), so the runner and the per-task executor round-trip are paid
once per chunk instead of once per cell.  Workers run their chunk
sequentially and return one compact :class:`~repro.parallel.worker.
BatchOutcome` — per-cell results and wall times plus a payload-size
measurement (``result_bytes``) that keeps result compactness visible
in the bench.  The merge consumes batches **as they complete**
(overlapping merge work with still-running chunks) and writes results
into declared-order slots, so the determinism contract is untouched.

Fallback path
-------------

The pool has ``min(jobs, effective CPUs, cells)`` workers.  Cells run
serially, in declared order, in this process whenever any of these
hold (the reason is recorded in :attr:`PoolRunStats.fallback_reason`):

* ``serial_only=True`` was passed (``"serial-only"``; the harness does
  this when ``--obs`` is active, because observers live in-process);
* this process *is* a pool worker (``"nested"``; no nested pools);
* resolved ``jobs <= 1`` or there is at most one cell (``"jobs"``);
* the process may run on one CPU only (``"cpus"``): a pool there
  cannot beat serial on the compute-bound cells this engine exists
  for, it only adds spawn and dispatch cost;
* the runner or a cell fails to pickle (``"pickle"``), or the pool
  cannot be created (``"pool: ..."``).

Every fallback except ``"jobs"`` bumps the ``parallel/fallback`` obs
counter with a ``reason`` label.

Failure surfacing
-----------------

A cell that raises — or a worker that dies mid-cell — surfaces as a
:class:`CellError` naming the experiment and the cell key.  The merge
never hangs: a dead worker breaks its pool, which fails the pending
futures immediately.
"""

from __future__ import annotations

import atexit
import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro import obs
from repro.errors import InvalidValueError, ReproError
from repro.parallel import worker

#: Target chunks per worker: small enough to amortize dispatch, large
#: enough that stragglers still rebalance across the pool.
CHUNKS_PER_WORKER = 4

#: Process-wide default set by ``phos ... --jobs`` (None → 1, serial).
_default_jobs: Optional[int] = None


def effective_cpu_count() -> int:
    """CPUs this process may actually run on (affinity-aware).

    ``os.cpu_count()`` reports the machine; cgroup/affinity-limited
    containers often get far fewer.  The pool is sized by this number —
    a 4-worker pool on a 1-CPU allowance runs compute-bound cells
    sequentially anyway.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class Cell:
    """One independent measurement: ``(exp_id, cell_key, config)``.

    ``key`` labels the cell in merge order, error messages, and stats;
    ``config`` carries the runner's picklable keyword payload.
    """

    exp_id: str
    key: tuple
    config: dict = field(default_factory=dict)

    def describe(self) -> str:
        return f"{self.exp_id}[{', '.join(str(k) for k in self.key)}]"


class CellError(ReproError):
    """A cell failed (runner exception or worker death); names the cell."""

    def __init__(self, cell: Cell, cause: BaseException) -> None:
        self.cell = cell
        super().__init__(
            f"cell {cell.describe()} failed: {cause.__class__.__name__}: {cause}"
        )


@dataclass
class PoolRunStats:
    """What one :func:`run_cells` call did (wall clock, not virtual)."""

    label: str
    mode: str                      # "pool" | "serial"
    jobs: int
    n_cells: int
    wall_s: float = 0.0
    #: Per-cell wall seconds, in declared cell order.
    cell_wall_s: list = field(default_factory=list)
    #: sum(cell_wall_s) / (wall_s * jobs) — busy fraction of the pool.
    utilization: float = 0.0
    #: Warm ``Program``-cache hits summed over workers (0 when serial).
    warm_cache_hits: int = 0
    #: Distinct worker PIDs that ran at least one cell.
    workers_used: int = 0
    fallback_reason: str = ""
    #: ``os.cpu_count()`` — the machine's CPUs, for the record.
    cpu_count: int = 0
    #: Affinity-aware CPU allowance (see :func:`effective_cpu_count`).
    #: ``workers_used`` above a smaller ``effective_cpus`` explains a
    #: sub-linear speedup without any further digging.
    effective_cpus: int = 0
    #: Contiguous chunks the cells were shipped in (0 when serial).
    n_chunks: int = 0
    #: Total pickled result-payload bytes returned by workers (0 when
    #: serial) — keeps "figures pickle huge results" regressions visible.
    result_bytes: int = 0


_last_stats: Optional[PoolRunStats] = None


def last_run_stats() -> Optional[PoolRunStats]:
    """Stats of the most recent :func:`run_cells` call, if any."""
    return _last_stats


def set_default_jobs(jobs: Optional[int]) -> None:
    """Install a process-wide default worker count (the CLI's ``--jobs``)."""
    global _default_jobs
    _default_jobs = jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit arg > ``--jobs`` default > 1.

    Raises :class:`~repro.errors.InvalidValueError` for a count below 1
    rather than quietly running serial.
    """
    if jobs is None:
        jobs = 1 if _default_jobs is None else _default_jobs
    if jobs < 1:
        raise InvalidValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


# --------------------------------------------------------------------------
# the shared pool
# --------------------------------------------------------------------------

#: One persistent executor per worker count.  Reuse across run_cells
#: calls keeps workers — and their warm Program/plan caches — alive for
#: a whole ``phos bench`` / bench-harness session.
_pools: dict[int, ProcessPoolExecutor] = {}


def _get_pool(max_workers: int) -> ProcessPoolExecutor:
    import multiprocessing

    pool = _pools.get(max_workers)
    if pool is None:
        pool = ProcessPoolExecutor(
            max_workers=max_workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=worker.init_worker,
        )
        _pools[max_workers] = pool
        obs.counter("parallel/pool/spawned").inc()
    return pool


def shutdown_pool() -> None:
    """Tear down every cached executor (tests, atexit)."""
    global _pools
    pools, _pools = _pools, {}
    for pool in pools.values():
        pool.shutdown(wait=False, cancel_futures=True)


atexit.register(shutdown_pool)


def _drop_pool(pool: ProcessPoolExecutor) -> None:
    """Forget a broken executor so the next call starts a fresh one."""
    for key, cached in list(_pools.items()):
        if cached is pool:
            del _pools[key]
    pool.shutdown(wait=False, cancel_futures=True)


# --------------------------------------------------------------------------
# execution
# --------------------------------------------------------------------------

def _picklable(runner, cells) -> bool:
    try:
        pickle.dumps(runner)
        pickle.dumps(cells)
        return True
    except Exception:
        return False


def _run_serial(runner, cells: Sequence[Cell], stats: PoolRunStats) -> list:
    results = []
    for cell in cells:
        t0 = time.perf_counter()
        try:
            results.append(runner(cell))
        except Exception as exc:
            raise CellError(cell, exc) from exc
        stats.cell_wall_s.append(time.perf_counter() - t0)
    return results


def run_cells(runner: Callable[[Cell], object], cells: Sequence[Cell],
              jobs: Optional[int] = None, label: str = "",
              serial_only: bool = False) -> list:
    """Execute ``runner(cell)`` for every cell; results in declared order.

    ``runner`` must be a module-level callable (workers import it by
    qualified name) and a pure function of its cell.  Returns one
    result per cell, ordered like ``cells`` regardless of completion
    order.  Raises :class:`CellError` for the first failing cell in
    declared order.
    """
    global _last_stats
    cells = list(cells)
    n = resolve_jobs(jobs)
    label = label or (cells[0].exp_id if cells else "empty")
    cpus = effective_cpu_count()
    stats = PoolRunStats(label=label, mode="serial", jobs=1, n_cells=len(cells),
                         cpu_count=os.cpu_count() or 1, effective_cpus=cpus)
    _last_stats = stats
    max_workers = min(n, cpus, len(cells))

    reason = ""
    if serial_only:
        reason = "serial-only"
    elif worker.IN_WORKER:
        reason = "nested"
    elif n <= 1 or len(cells) <= 1:
        reason = "jobs"
    elif max_workers <= 1:
        reason = "cpus"
    elif not _picklable(runner, cells):
        reason = "pickle"

    t0 = time.perf_counter()
    if reason:
        if reason != "jobs":
            obs.counter("parallel/fallback", reason=reason).inc()
        stats.fallback_reason = reason
        try:
            results = _run_serial(runner, cells, stats)
        finally:
            stats.wall_s = time.perf_counter() - t0
            stats.utilization = 1.0 if stats.wall_s else 0.0
            stats.workers_used = 1
            _record_obs(stats)
        return results

    try:
        pool = _get_pool(max_workers)
    except OSError as exc:  # pragma: no cover - resource exhaustion
        obs.counter("parallel/fallback", reason="pool").inc()
        stats.fallback_reason = f"pool: {exc}"
        results = _run_serial(runner, cells, stats)
        stats.wall_s = time.perf_counter() - t0
        stats.utilization = 1.0 if stats.wall_s else 0.0
        stats.workers_used = 1
        _record_obs(stats)
        return results

    stats.mode = "pool"
    stats.jobs = max_workers
    # Contiguous chunks, ~CHUNKS_PER_WORKER per worker: the runner and
    # the executor round-trip are shipped once per chunk, not per cell.
    chunk_size = max(1, math.ceil(len(cells) / (max_workers * CHUNKS_PER_WORKER)))
    chunks = [(start, cells[start:start + chunk_size])
              for start in range(0, len(cells), chunk_size)]
    stats.n_chunks = len(chunks)
    results: list = [None] * len(cells)
    cell_wall: dict[int, float] = {}
    pids = set()
    broken = False
    #: Earliest-declared failure seen so far: (cell index, cell, cause).
    first_error: Optional[tuple] = None
    try:
        fut_to_chunk = {}
        try:
            for start, chunk_cells in chunks:
                fut = pool.submit(worker.invoke_batch, runner, chunk_cells)
                fut_to_chunk[fut] = (start, chunk_cells)
        except BrokenProcessPool as exc:
            broken = True
            raise CellError(chunk_cells[0], exc) from exc
        # Merge overlaps execution: each batch is folded into its
        # declared-order slots the moment it completes, while other
        # chunks are still running.
        for fut in as_completed(fut_to_chunk):
            start, chunk_cells = fut_to_chunk[fut]
            try:
                batch = fut.result()
            except BrokenProcessPool as exc:
                broken = True
                if first_error is None or start < first_error[0]:
                    first_error = (start, chunk_cells[0], exc)
                continue  # drain: remaining futures fail fast now
            except Exception as exc:
                if first_error is None or start < first_error[0]:
                    first_error = (start, chunk_cells[0], exc)
                continue
            pids.add(batch.pid)
            stats.warm_cache_hits += batch.warm_hits
            stats.result_bytes += batch.result_bytes
            for off, wall in enumerate(batch.wall_s):
                cell_wall[start + off] = wall
            if batch.error is not None:
                idx = start + batch.error_index
                if first_error is None or idx < first_error[0]:
                    first_error = (idx, chunk_cells[batch.error_index],
                                   batch.error)
                continue
            for off, res in enumerate(batch.results):
                results[start + off] = res
        if first_error is not None:
            _, cell, cause = first_error
            raise CellError(cell, cause) from cause
    finally:
        if broken:
            _drop_pool(pool)
        stats.cell_wall_s = [cell_wall[i] for i in sorted(cell_wall)]
        stats.wall_s = time.perf_counter() - t0
        stats.workers_used = len(pids)
        busy = sum(stats.cell_wall_s)
        if stats.wall_s > 0:
            stats.utilization = busy / (stats.wall_s * max_workers)
        _record_obs(stats)
    return results


def _record_obs(stats: PoolRunStats) -> None:
    """Mirror the run's stats into obs counters when an observer is on."""
    if not obs.enabled():
        return
    obs.counter("parallel/cells", mode=stats.mode, exp=stats.label) \
        .inc(len(stats.cell_wall_s))
    obs.counter("parallel/cell_wall_s", exp=stats.label) \
        .inc(sum(stats.cell_wall_s))
    if stats.warm_cache_hits:
        obs.counter("parallel/warm_program_hits", exp=stats.label) \
            .inc(stats.warm_cache_hits)
    if stats.mode == "pool":
        obs.gauge("parallel/utilization", exp=stats.label) \
            .set(stats.utilization)
