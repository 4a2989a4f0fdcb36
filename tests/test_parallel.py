"""The parallel experiment engine: determinism, merge order, failures.

Two layers of coverage:

* **Engine unit tests** — declared-order merge under out-of-order
  completion, failed cells surfacing as :class:`CellError` with their
  cell key (runner exceptions *and* dead workers, which must break the
  pool instead of hanging the merge), the CPU-count/pickling/
  nested-worker fallbacks, job resolution precedence, and the warm
  ``Program`` cache.
* **Figure golden bit-identity** — the four goldened figures must
  format identically at ``--jobs 1`` (in-process serial) and
  ``--jobs 4`` (spawned pool).

Tests that assert pool behaviour pin ``effective_cpu_count`` to 4 so
the pool also spawns on runners with one usable CPU.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro import parallel
from repro.errors import InvalidValueError
from repro.parallel import Cell, CellError
from repro.parallel import engine as parallel_engine

GOLDENS = Path(__file__).parent / "goldens"


# -- module-level runners (pool workers import these by name) ---------------------

def echo_cell(cell: Cell) -> tuple:
    return ("ran", cell.key, cell.config.get("value"))


def sleepy_cell(cell: Cell) -> tuple:
    # Later-declared cells sleep less, so pool completion order is the
    # reverse of declared order — the merge must undo that.
    time.sleep(cell.config["sleep_s"])
    return cell.key


def boom_cell(cell: Cell):
    if cell.config.get("boom"):
        raise ValueError(f"injected failure in {cell.key}")
    return cell.key


def die_cell(cell: Cell):
    if cell.config.get("die"):
        os._exit(3)  # simulate a segfaulting worker, not an exception
    return cell.key


def image_id_cell(cell: Cell) -> tuple:
    # Hold the worker long enough that both pool workers mint ids
    # concurrently (each spawned worker restarts the module counter).
    from repro.storage.image import CheckpointImage

    time.sleep(cell.config.get("sleep_s", 0.0))
    return os.getpid(), [CheckpointImage(name=f"{cell.key}-{i}").id
                         for i in range(4)]


def nested_cell(cell: Cell) -> str:
    parallel.run_cells(echo_cell, [Cell("inner", (i,)) for i in range(2)],
                       jobs=4)
    return parallel.last_run_stats().fallback_reason


@pytest.fixture(scope="module", autouse=True)
def _pool_cleanup():
    # One shared pool serves the whole module (workers and their warm
    # caches are reused across tests, like a real bench session).
    yield
    parallel.shutdown_pool()


@pytest.fixture
def cpus4(monkeypatch):
    """Let the pool size itself as on a 4-CPU box."""
    monkeypatch.setattr(parallel_engine, "effective_cpu_count", lambda: 4)


# -- job resolution ---------------------------------------------------------------

def test_resolve_jobs_precedence():
    assert parallel.resolve_jobs() == 1
    parallel.set_default_jobs(2)
    try:
        assert parallel.resolve_jobs() == 2     # CLI default beats 1
        assert parallel.resolve_jobs(5) == 5    # explicit beats both
    finally:
        parallel.set_default_jobs(None)


@pytest.mark.parametrize("jobs", [0, -3])
def test_run_cells_rejects_jobs_below_one(jobs):
    with pytest.raises(InvalidValueError):
        parallel.run_cells(echo_cell, [Cell("t", (0,))], jobs=jobs)


# -- merge order ------------------------------------------------------------------

def test_serial_results_keep_declared_order():
    cells = [Cell("t", (i,), {"value": i * 10}) for i in range(5)]
    results = parallel.run_cells(echo_cell, cells, jobs=1)
    assert results == [("ran", (i,), i * 10) for i in range(5)]
    stats = parallel.last_run_stats()
    assert stats.mode == "serial"
    assert len(stats.cell_wall_s) == 5


def test_pool_merge_is_declared_order_not_completion_order(cpus4):
    n = 4
    cells = [Cell("t", (i,), {"sleep_s": (n - i) * 0.15}) for i in range(n)]
    results = parallel.run_cells(sleepy_cell, cells, jobs=n)
    assert results == [(i,) for i in range(n)]
    stats = parallel.last_run_stats()
    assert stats.mode == "pool"
    assert stats.n_cells == n
    assert stats.workers_used >= 2


# -- failure surfacing ------------------------------------------------------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_cell_raises_with_its_key(cpus4, jobs):
    cells = [Cell("exp", ("ok",)),
             Cell("exp", ("bad", "cell"), {"boom": True}),
             Cell("exp", ("later",))]
    with pytest.raises(CellError) as err:
        parallel.run_cells(boom_cell, cells, jobs=jobs)
    assert "exp[bad, cell]" in str(err.value)
    assert err.value.cell.key == ("bad", "cell")


def test_dead_worker_surfaces_instead_of_hanging(cpus4):
    cells = [Cell("exp", ("victim",), {"die": True}),
             Cell("exp", ("bystander",))]
    with pytest.raises(CellError) as err:
        parallel.run_cells(die_cell, cells, jobs=2)
    assert "exp[" in str(err.value)
    # The broken pool was dropped: the next run gets a fresh one and works.
    results = parallel.run_cells(echo_cell, [Cell("exp", ("again",))] * 2,
                                 jobs=2)
    assert results == [("ran", ("again",), None)] * 2


def test_image_ids_unique_across_pool_workers(cpus4):
    """PR-6 regression: `CheckpointImage.id` came from a process-global
    counter, so images minted in different pool workers collided when
    merged into one catalog/world.  Ids are now pid-qualified."""
    cells = [Cell("img", (i,), {"sleep_s": 0.3}) for i in range(2)]
    results = parallel.run_cells(image_id_cell, cells, jobs=2)
    stats = parallel.last_run_stats()
    assert stats.mode == "pool"
    assert stats.workers_used >= 2
    (pid_a, ids_a), (pid_b, ids_b) = results
    assert pid_a != pid_b  # two distinct workers really minted these
    merged = ids_a + ids_b
    assert len(set(merged)) == len(merged)


# -- fallbacks --------------------------------------------------------------------

def test_one_cpu_runs_serial(monkeypatch):
    monkeypatch.setattr(parallel_engine, "effective_cpu_count", lambda: 1)
    cells = [Cell("t", (i,)) for i in range(3)]
    results = parallel.run_cells(echo_cell, cells, jobs=4)
    assert [r[1] for r in results] == [(0,), (1,), (2,)]
    stats = parallel.last_run_stats()
    assert stats.mode == "serial"
    assert stats.fallback_reason == "cpus"


def test_pool_size_is_min_of_jobs_cpus_and_cells(monkeypatch):
    cells = [Cell("t", (i,)) for i in range(4)]
    monkeypatch.setattr(parallel_engine, "effective_cpu_count", lambda: 2)
    parallel.run_cells(echo_cell, cells, jobs=4)
    assert parallel.last_run_stats().jobs == 2   # bounded by CPUs
    monkeypatch.setattr(parallel_engine, "effective_cpu_count", lambda: 4)
    parallel.run_cells(echo_cell, cells[:2], jobs=4)
    assert parallel.last_run_stats().jobs == 2   # bounded by cells
    assert parallel.last_run_stats().mode == "pool"


def test_unpicklable_runner_falls_back_to_serial(cpus4):
    captured = []

    def local_runner(cell):  # closures don't pickle
        captured.append(cell.key)
        return cell.key

    cells = [Cell("t", (i,)) for i in range(3)]
    results = parallel.run_cells(local_runner, cells, jobs=4)
    assert results == [(0,), (1,), (2,)]
    assert captured == [(0,), (1,), (2,)]
    assert parallel.last_run_stats().fallback_reason == "pickle"


def test_worker_processes_never_nest_pools(cpus4):
    results = parallel.run_cells(nested_cell,
                                 [Cell("outer", (i,)) for i in range(2)],
                                 jobs=2)
    assert parallel.last_run_stats().mode == "pool"
    assert results == ["nested", "nested"]


def test_serial_only_flag_pins_observed_runs():
    results = parallel.run_cells(echo_cell, [Cell("t", (i,)) for i in range(2)],
                                 jobs=4, serial_only=True)
    assert len(results) == 2
    assert parallel.last_run_stats().fallback_reason == "serial-only"


# -- batched dispatch -------------------------------------------------------------

def test_pool_batches_cells_into_chunks(cpus4):
    n = 16
    cells = [Cell("t", (i,), {"value": i}) for i in range(n)]
    results = parallel.run_cells(echo_cell, cells, jobs=2)
    assert results == [("ran", (i,), i) for i in range(n)]
    stats = parallel.last_run_stats()
    assert stats.mode == "pool"
    # 16 cells / (2 workers * 4 chunks-per-worker) = 2 cells per chunk.
    assert stats.n_chunks == 8
    assert len(stats.cell_wall_s) == n
    assert stats.result_bytes > 0


def test_batched_failure_names_exact_cell(cpus4):
    # The failing cell sits mid-chunk; the error must name it, not the
    # chunk head, and must be the earliest-declared failure.
    cells = ([Cell("exp", ("ok", i)) for i in range(5)]
             + [Cell("exp", ("bad", "cell"), {"boom": True})]
             + [Cell("exp", ("later", i)) for i in range(5)])
    with pytest.raises(CellError) as err:
        parallel.run_cells(boom_cell, cells, jobs=2)
    assert "exp[bad, cell]" in str(err.value)
    assert err.value.cell.key == ("bad", "cell")


def test_stats_report_real_and_effective_cpus():
    parallel.run_cells(echo_cell, [Cell("t", (i,)) for i in range(2)], jobs=1)
    stats = parallel.last_run_stats()
    assert stats.cpu_count == os.cpu_count()
    assert stats.effective_cpus == parallel_engine.effective_cpu_count()
    assert 1 <= stats.effective_cpus <= stats.cpu_count


# -- warm Program cache -----------------------------------------------------------

def test_program_cache_reuses_identical_binaries(monkeypatch):
    from repro.apps import base

    monkeypatch.setattr(base, "_program_cache", {})
    monkeypatch.setattr(base, "_program_cache_hits", 0)
    from repro.gpu.program import build_copy

    first = base._build_program(build_copy, "k0")
    again = base._build_program(build_copy, "k0")
    other = base._build_program(build_copy, "k1")
    assert again is first
    assert other is not first
    assert base.program_cache_hits() == 1


def test_program_cache_off_by_default(monkeypatch):
    from repro.apps import base

    monkeypatch.setattr(base, "_program_cache", None)
    from repro.gpu.program import build_copy

    assert base._build_program(build_copy, "k0") \
        is not base._build_program(build_copy, "k0")


# -- figure golden bit-identity ---------------------------------------------------

def _golden(name: str) -> str:
    return (GOLDENS / f"{name}.txt").read_text().rstrip("\n")


def _assert_mode(jobs: int) -> None:
    assert parallel.last_run_stats().mode == ("pool" if jobs > 1 else "serial")


@pytest.mark.parametrize("jobs", [1, 4])
def test_fig11_reduced_bit_identical_across_jobs(cpus4, jobs):
    from repro.experiments.fig11_stall import run

    got = run(checkpoint_apps=("resnet152-train",),
              restore_apps=("resnet152-infer",), jobs=jobs).format()
    _assert_mode(jobs)
    assert got.rstrip("\n") == _golden("fig11_reduced")


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("fig,module", [
    ("fig16", "repro.experiments.fig16_cow_breakdown"),
    ("fig17", "repro.experiments.fig17_recopy_breakdown"),
    ("fig18", "repro.experiments.fig18_restore_breakdown"),
])
def test_breakdown_figures_bit_identical_across_jobs(cpus4, fig, module,
                                                     jobs):
    import importlib

    got = importlib.import_module(module).run(jobs=jobs).format()
    _assert_mode(jobs)
    assert got.rstrip("\n") == _golden(fig)
