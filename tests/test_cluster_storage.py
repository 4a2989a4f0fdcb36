"""Unit tests for the cluster topology and checkpoint media."""

import pytest

from repro import units
from repro.cluster import Cluster, Machine, RdmaLink
from repro.errors import CheckpointError, InvalidValueError
from repro.sim import Engine
from repro.storage.image import CheckpointImage, GpuBufferRecord
from repro.storage.media import DramMedia, RemoteDramMedia, SsdMedia


@pytest.fixture
def eng():
    return Engine()


# --- machines and cluster -------------------------------------------------------


def test_machine_has_gpus_and_dram(eng):
    m = Machine(eng, n_gpus=4)
    assert len(m.gpus) == 4
    assert m.gpu(3).index == 3
    assert m.dram.name.endswith("dram")


def test_machine_gpu_index_validated(eng):
    m = Machine(eng, n_gpus=2)
    with pytest.raises(InvalidValueError):
        m.gpu(5)
    with pytest.raises(InvalidValueError):
        Machine(eng, n_gpus=0)


def test_testbed_matches_paper(eng):
    cluster = Cluster.testbed(eng)
    assert len(cluster.machines) == 2
    assert all(len(m.gpus) == 8 for m in cluster.machines)
    link = cluster.link(cluster.machines[0], cluster.machines[1])
    assert link.bandwidth == units.RDMA_100GBPS


def test_rdma_link_timing(eng):
    a, b = Machine(eng, "a", 1), Machine(eng, "b", 1)
    link = RdmaLink(eng, a, b)

    def driver(eng):
        yield from link.flow(a, b, units.RDMA_100GBPS)  # 1 second of data
        return eng.now

    assert eng.run_process(driver(eng)) == pytest.approx(1.0, rel=0.01)


def test_rdma_directions_independent(eng):
    a, b = Machine(eng, "a", 1), Machine(eng, "b", 1)
    link = RdmaLink(eng, a, b, bandwidth=100.0)
    done = {}

    def mover(eng, name, src, dst):
        yield from link.flow(src, dst, 100.0)
        done[name] = eng.now

    eng.spawn(mover(eng, "ab", a, b))
    eng.spawn(mover(eng, "ba", b, a))
    eng.run()
    # Each direction drains at full bandwidth (1 s) plus one propagation
    # latency — shared-media interference would show up as ~2 s.
    expected = pytest.approx(1.0 + link.latency)
    assert done == {"ab": expected, "ba": expected}


def test_unknown_link_rejected(eng):
    a, b, c = (Machine(eng, n, 1) for n in "abc")
    cluster = Cluster(eng, [a, b])
    with pytest.raises(InvalidValueError):
        cluster.link(a, c)


def test_cluster_duplicate_machine_names_rejected():
    eng = Engine()
    with pytest.raises(InvalidValueError) as err:
        Cluster(eng, [Machine(eng, "n0", 1), Machine(eng, "n0", 1)])
    assert "n0" in str(err.value)


def test_rdma_self_link_rejected():
    eng = Engine()
    m = Machine(eng, "n0", 1)
    with pytest.raises(InvalidValueError):
        RdmaLink(eng, m, m)
    with pytest.raises(InvalidValueError):
        RdmaLink(eng, m, Machine(eng, "n0", 1))  # same name, distinct object


@pytest.mark.parametrize("latency", [0.0, -5e-6, float("nan")])
def test_rdma_link_latency_validated(latency):
    eng = Engine()
    a, b = Machine(eng, "a", 1), Machine(eng, "b", 1)
    with pytest.raises(InvalidValueError):
        RdmaLink(eng, a, b, latency=latency)


def test_rdma_bandwidth_validated():
    eng = Engine()
    a, b = Machine(eng, "a", 1), Machine(eng, "b", 1)
    with pytest.raises(InvalidValueError):
        RdmaLink(eng, a, b, bandwidth=0.0)


# --- media ----------------------------------------------------------------------


def test_dram_faster_than_ssd(eng):
    dram, ssd = DramMedia(eng), SsdMedia(eng)

    def timed(medium):
        e = Engine()
        m = type(medium)(e)

        def driver(e):
            t0 = e.now
            yield from m.write_flow(10 * units.GB)
            return e.now - t0

        return e.run_process(driver(e))

    assert timed(dram) < timed(ssd)


def test_remote_dram_is_rdma_bound(eng):
    medium = RemoteDramMedia(eng)

    def driver(eng):
        t0 = eng.now
        yield from medium.read_flow(units.RDMA_100GBPS)
        return eng.now - t0

    assert eng.run_process(driver(eng)) == pytest.approx(1.0, rel=0.01)


def test_media_rate_cap_applies(eng):
    medium = DramMedia(eng)

    def driver(eng):
        t0 = eng.now
        yield from medium.write_flow(100.0 * units.GB, rate_cap=10 * units.GB)
        return eng.now - t0

    assert eng.run_process(driver(eng)) == pytest.approx(10.0, rel=0.01)


# --- checkpoint image ---------------------------------------------------------------


def test_image_finalize_lifecycle():
    image = CheckpointImage(name="x")
    image.add_cpu_page(0, b"\x01" * 16)
    image.add_gpu_buffer(0, GpuBufferRecord(1, 0x1000, 4096, b"\x02" * 64))
    with pytest.raises(CheckpointError):
        image.require_finalized()
    image.finalize(12.5)
    assert image.checkpoint_time == 12.5
    image.require_finalized()
    with pytest.raises(CheckpointError):
        image.finalize(13.0)
    with pytest.raises(CheckpointError):
        image.add_cpu_page(1, b"\x00" * 16)
    with pytest.raises(CheckpointError):
        image.add_gpu_buffer(0, GpuBufferRecord(2, 0x2000, 4096, b""))


def test_image_size_accounting():
    image = CheckpointImage()
    image.cpu_page_size = 4096
    image.add_cpu_page(0, b"x" * 16)
    image.add_cpu_page(1, b"y" * 16)
    image.add_gpu_buffer(0, GpuBufferRecord(1, 0x1000, 1000, b""))
    image.add_gpu_buffer(1, GpuBufferRecord(2, 0x1000, 2000, b""))
    assert image.cpu_bytes() == 2 * 4096
    assert image.gpu_bytes() == 3000
    assert image.gpu_bytes(0) == 1000
    assert image.total_bytes() == 3000 + 8192
    assert image.buffer_count(0) == 1


def test_image_recopy_overwrites_record():
    image = CheckpointImage()
    image.add_gpu_buffer(0, GpuBufferRecord(1, 0x1000, 100, b"old"))
    image.add_gpu_buffer(0, GpuBufferRecord(1, 0x1000, 100, b"new"))
    assert image.gpu_buffers[0][1].data == b"new"
    assert image.buffer_count(0) == 1
