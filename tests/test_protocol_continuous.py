"""Integration tests: the ``continuous`` streaming checkpoint protocol."""

import pytest

from repro.api.runtime import GpuProcess
from repro.cluster import Machine
from repro.core.daemon import Phos
from repro.core.protocols import registry
from repro.core.protocols.base import ProtocolConfig
from repro.core.protocols.continuous import ContinuousCheckpoint
from repro.core.sdk import PhosSdk
from repro.errors import CheckpointError, ReproError
from repro.gpu.context import GpuContext
from repro.sim import Engine
from repro.storage.media import tier_stack

from tests.toyapp import ToyApp, image_gpu_state, snapshot_process


def make_world(buf_size=1 << 20):
    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0],
                        cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    app = ToyApp(process, buf_size=buf_size)
    return eng, machine, phos, process, app


def test_registered_and_streaming():
    assert "continuous" in registry.names("checkpoint")
    cls = registry.get("continuous", "checkpoint")
    assert cls is ContinuousCheckpoint
    assert getattr(cls, "streaming", False) is True


def test_stream_commits_a_restorable_chain():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        last, stream = yield phos.checkpoint(process, mode="continuous",
                                             name="s", rounds=3)
        expected, _cpu = snapshot_process(process)
        return last, stream, expected

    last, stream, expected = eng.run_process(driver(eng))
    eng.run()
    assert stream.complete and stream.rounds_committed == 3
    catalog = machine.dram.images
    for i, image in enumerate(stream.images):
        assert catalog.is_committed(image)
        if i:
            assert image.parent_id == stream.images[i - 1].id
    assert stream.images[0].parent_id is None  # round 0 is the chain root
    assert image_gpu_state(last) == expected


def test_stream_replicates_to_lower_tiers():
    eng, machine, phos, process, app = make_world()
    tiers = tier_stack(eng, machine.dram)

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        return (yield phos.checkpoint(process, mode="continuous",
                                      rounds=2, drain_tiers=tiers))

    last, stream = eng.run_process(driver(eng))
    eng.run()
    assert stream.drain_stats.images_drained == 2
    for tier in tiers[1:]:
        for image in stream.images:
            replica = tier.images.lookup(image.id)
            assert replica is not None and replica.committed
            assert replica is not image  # per-tier object
        assert not tier.images.staged_images()


def test_interval_paces_rounds():
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        t0 = eng.now
        _, stream = yield phos.checkpoint(process, mode="continuous",
                                          rounds=3, interval=0.5)
        return eng.now - t0, stream

    elapsed, stream = eng.run_process(driver(eng))
    eng.run()
    assert stream.rounds_committed == 3
    assert elapsed >= 2 * 0.5  # two inter-round gaps


def test_deltas_are_dirty_scaled():
    """Rounds after the root store only what changed between rounds."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        return (yield phos.checkpoint(process, mode="continuous",
                                      rounds=3))

    last, stream = eng.run_process(driver(eng))
    eng.run()
    root, *deltas = stream.images
    for delta in deltas:
        assert delta.stored_bytes() <= root.stored_bytes()
        # Logical state is complete even when little is stored.
        assert delta.gpu_bytes() == root.gpu_bytes()


def test_drain_tiers_must_start_at_the_medium():
    eng, machine, phos, process, app = make_world()
    other = tier_stack(eng, machine.dram)[1:]  # does not start at dram

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        try:
            yield phos.checkpoint(process, mode="continuous",
                                  drain_tiers=other)
        except ReproError as err:
            return str(err)
        return None

    msg = eng.run_process(driver(eng))
    eng.run()
    assert msg is not None and "drain_tiers[0]" in msg


def test_parent_must_be_committed_on_every_drain_tier():
    """A parent that lives only on the DRAM tier cannot anchor a stream:
    the lower tiers could never commit its deltas.  The stream refuses
    before round 0 and commits nothing."""
    eng, machine, phos, process, app = make_world()

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        root, _ = yield phos.checkpoint(process, mode="incremental",
                                        name="root")
        yield from app.run(1, start=1)
        try:
            yield phos.checkpoint(process, mode="continuous", rounds=2,
                                  parent=root)
        except CheckpointError as err:
            return root, str(err)
        return root, None

    root, msg = eng.run_process(driver(eng))
    eng.run()
    assert msg is not None
    assert repr(root.id) in msg and "dram-ssd" in msg
    assert machine.dram.images.committed_images() == [root]
    assert not machine.dram.images.staged_images()


def test_stream_chains_on_a_drained_stream_tip():
    """With shared drain tiers, a second stream may continue the chain
    of a first one: its tip is committed on every tier."""
    eng, machine, phos, process, app = make_world()
    tiers = tier_stack(eng, machine.dram)

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        tip, first = yield phos.checkpoint(process, mode="continuous",
                                           name="a", rounds=2,
                                           drain_tiers=tiers)
        yield from app.run(1, start=1)
        _, second = yield phos.checkpoint(process, mode="continuous",
                                          name="b", rounds=2, parent=tip,
                                          drain_tiers=tiers)
        return tip, first, second

    tip, first, second = eng.run_process(driver(eng))
    eng.run()
    assert first.complete and second.complete
    assert second.rounds_committed == 2
    assert second.images[0].parent_id == tip.id
    for tier in tiers:
        for image in second.images:
            assert tier.images.lookup(image.id) is not None


def test_reachable_from_the_sdk():
    eng, machine, phos, process, app = make_world()
    sdk = PhosSdk(phos, process)
    assert "continuous" in sdk.protocols()

    def driver(eng):
        yield from app.setup()
        yield from app.run(1)
        assert sdk.checkpoint(mode="continuous", rounds=2)
        yield from sdk.wait_inflight()
        return sdk.last_image

    last = eng.run_process(driver(eng))
    eng.run()
    assert last is not None and machine.dram.images.is_committed(last)


def test_unsupported_tunable_rejected():
    with pytest.raises(ReproError, match="does not support"):
        ContinuousCheckpoint(ProtocolConfig(precopy_rounds=2))
