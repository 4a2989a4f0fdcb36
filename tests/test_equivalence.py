"""The fast paths change speed, not results.

Two fast paths in the program have a slower reference path next to
them:

* compiled kernel plans (:func:`repro.perf.plans.try_fast_run`), whose
  reference is the per-thread interpreter in
  :func:`repro.gpu.interpreter.run_kernel`;
* the chunk-hash cache (:meth:`repro.storage.hashcache.BufferHashCache.
  valid_entry`), whose reference is a full rehash at every seal.

No option selects a reference path.  This file takes them by stubbing
the fast path out — each alone and both together — and checks that the
program's outputs stay exactly those of the default program: the four
figure goldens, the v1 image fixture, an incremental protocol chain's
image bytes, the small fleet report and the chaos matrix output.  Each
stub counts its calls, so every test also shows that its stub took
effect: no plan-cache hit, and no cached chunk hash served.

Everything runs serially in this process: a stub does not cross a
spawn, and pool workers run the same code as this process.
"""

from __future__ import annotations

import importlib
import io
import itertools
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.core.cli import main as cli_main
from repro.experiments import fig_fleet
from repro.fleet import calibrate
from repro.gpu import memory
from repro.perf import plans
from repro.storage import image
from repro.storage.hashcache import BufferHashCache
from repro.storage.serial import load_image, save_image

from tests.test_fleet_determinism import FAST_KWARGS
from tests.test_property_hashcache import _protocol_chain
from tests.test_storage_serial import make_golden_image

GOLDENS = Path(__file__).parent / "goldens"

MODES = ("interpreter", "full-rehash", "both")


class Stubs:
    """The reference paths of one mode, with call counts."""

    def __init__(self, monkeypatch, mode: str) -> None:
        self.interpret = mode in ("interpreter", "both")
        self.rehash = mode in ("full-rehash", "both")
        self.declined = 0     # launches the plan stub turned away
        self.missed = 0       # cache lookups the hash stub turned away
        if self.interpret:
            monkeypatch.setattr(plans, "try_fast_run", self._decline)
        if self.rehash:
            monkeypatch.setattr(BufferHashCache, "valid_entry", self._miss)
        plans.reset_plan_cache_stats()

    def _decline(self, *args, **kwargs):
        self.declined += 1
        return None

    def _miss(self, buffer_id, **layout):
        # Installed on the class but bound to this Stubs object, so the
        # cache never arrives as an argument.
        self.missed += 1
        return None

    def assert_took_effect(self, seals_deltas: bool) -> None:
        """The stubbed fast paths ran nowhere (and were reached)."""
        if self.interpret:
            assert self.declined > 0
            assert plans.plan_cache_stats()["hit"] == 0
        if self.rehash and seals_deltas:
            assert self.missed > 0


@pytest.fixture(params=MODES)
def stubs(request, monkeypatch):
    return Stubs(monkeypatch, request.param)


def _fresh_ids(monkeypatch) -> None:
    """Restart the id counters that end up inside image files."""
    monkeypatch.setattr(image, "_image_seq", itertools.count(1))
    monkeypatch.setattr(memory, "_buffer_ids", itertools.count(1))


def _chain_bytes(monkeypatch, tmp_path) -> list[bytes]:
    _fresh_ids(monkeypatch)
    _, _, images = _protocol_chain()
    out = []
    for img in images:
        path = tmp_path / f"{img.name}.phos"
        save_image(img, path)
        out.append(path.read_bytes())
    return out


def _fleet_report(monkeypatch) -> str:
    # Fresh probe caches: profiles measured earlier in this process
    # would hide the stubbed probes.
    monkeypatch.setattr(calibrate, "_profiles", {})
    monkeypatch.setattr(calibrate, "_migration_downtime", {})
    return fig_fleet.run(jobs=1, **FAST_KWARGS).format()


def _chaos_output() -> list[str]:
    outputs = []
    for seed in ("1", "2"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli_main(["chaos", "--quiet", "--seed", seed]) == 0
        outputs.append(buf.getvalue())
    return outputs


@pytest.fixture(scope="module")
def default_outputs(tmp_path_factory):
    """The default program's outputs that have no committed golden."""
    with pytest.MonkeyPatch.context() as mp:
        return {
            "chain": _chain_bytes(mp, tmp_path_factory.mktemp("chain")),
            "fleet": _fleet_report(mp),
            "chaos": _chaos_output(),
        }


# -- the default program reaches both fast paths ------------------------------------

def test_default_program_takes_both_fast_paths(monkeypatch, tmp_path):
    hits = []
    valid_entry = BufferHashCache.valid_entry

    def counting(cache, buffer_id, **layout):
        entry = valid_entry(cache, buffer_id, **layout)
        hits.append(entry is not None)
        return entry

    monkeypatch.setattr(BufferHashCache, "valid_entry", counting)
    plans.reset_plan_cache_stats()
    _chain_bytes(monkeypatch, tmp_path)
    assert plans.plan_cache_stats()["hit"] > 0
    assert any(hits)


# -- outputs under each reference path ---------------------------------------------

def test_incremental_chain_bytes(stubs, default_outputs, monkeypatch,
                                 tmp_path):
    assert _chain_bytes(monkeypatch, tmp_path) == default_outputs["chain"]
    stubs.assert_took_effect(seals_deltas=True)


def test_image_v1_round_trip(stubs, monkeypatch, tmp_path):
    golden = (GOLDENS / "image_v1.phos").read_bytes()
    _fresh_ids(monkeypatch)
    fresh = tmp_path / "fresh.phos"
    save_image(make_golden_image(), fresh)
    assert fresh.read_bytes() == golden
    again = tmp_path / "again.phos"
    save_image(load_image(fresh), again)
    assert again.read_bytes() == golden
    stubs.assert_took_effect(seals_deltas=False)


def test_fleet_report(stubs, default_outputs, monkeypatch):
    assert _fleet_report(monkeypatch) == default_outputs["fleet"]
    stubs.assert_took_effect(seals_deltas=False)


def test_chaos_matrix_output(stubs, default_outputs):
    assert _chaos_output() == default_outputs["chaos"]
    stubs.assert_took_effect(seals_deltas=True)


# -- the figure goldens, with both reference paths at once -------------------------
#
# The four figures seal no delta image, so they never reach the hash
# cache: one pass with both stubs covers them, and keeps the slow
# interpreter pass to one per figure.

def _golden(name: str) -> str:
    return (GOLDENS / f"{name}.txt").read_text().rstrip("\n")


@pytest.mark.parametrize("fig,module,kwargs", [
    ("fig11_reduced", "repro.experiments.fig11_stall",
     dict(checkpoint_apps=("resnet152-train",),
          restore_apps=("resnet152-infer",))),
    ("fig16", "repro.experiments.fig16_cow_breakdown", {}),
    ("fig17", "repro.experiments.fig17_recopy_breakdown", {}),
    ("fig18", "repro.experiments.fig18_restore_breakdown", {}),
])
def test_figure_golden(fig, module, kwargs, monkeypatch):
    stubs = Stubs(monkeypatch, "both")
    got = importlib.import_module(module).run(jobs=1, **kwargs).format()
    assert got.rstrip("\n") == _golden(fig)
    stubs.assert_took_effect(seals_deltas=False)
