"""Differential property suite: the hash cache never changes bytes.

The incremental hash cache is a pure performance device — with it, a
seal rehashes only chunks overlapping tracked writes; without it
(``BufferHashCache.valid_entry`` stubbed to always miss), every chunk
is rehashed.  These tests
replay identical randomized scenarios (dirty patterns × chunk sizes,
including free/realloc-at-the-same-address and mid-chunk partial
writes) down both paths and require the sealed delta images to be
identical in every stored byte, hash, and aggregate counter — and the
materialized state to match the live ground truth either way.
"""

import random

import pytest

from repro.storage.delta import (
    DeltaImage,
    chunk_hashes,
    materialize,
    seal_delta,
)
from repro.storage.hashcache import BufferHashCache
from repro.storage.image import GpuBufferRecord

from tests.toyapp import ToyApp, image_gpu_state


def _always_miss(monkeypatch):
    """Make every cache lookup miss, so each seal rehashes everything."""
    monkeypatch.setattr(BufferHashCache, "valid_entry",
                        lambda self, buffer_id, **layout: None)


def _canon(image: DeltaImage):
    """Every stored byte/hash/aggregate of a sealed delta, id-free.

    Image ids differ between replays (they are process-global
    counters), so identity is asserted on content keyed by address.
    """
    gpu = {}
    for g, table in image.delta_gpu.items():
        for rec in table.values():
            gpu[(g, rec.addr)] = (
                rec.size, rec.data_len, rec.tag, tuple(rec.hashes),
                tuple(sorted((i, bytes(c)) for i, c in rec.chunks.items())),
            )
    return (
        gpu,
        tuple(sorted(image.cpu_pages.items())),
        image.chunk_bytes,
        image.stored_chunk_bytes,
        image.stored_page_bytes,
        image.chunks_written,
        image.chunks_reused,
        image.reused_buffers,
    )


def _play(seed: int, chunk_bytes: int, rounds: int = 3):
    """One randomized chain of seals; returns each round's canon form.

    Consults the cache exactly like the protocol does, so running it
    with and without :func:`_always_miss` is the differential
    experiment.
    """
    rng = random.Random(seed)
    cache = BufferHashCache()
    ids = iter(range(1, 1_000_000))
    cb = chunk_bytes

    live = {}
    addr = 0x10_000
    for i in range(rng.randint(3, 6)):
        data_len = rng.choice([
            0, 1, cb // 2, cb, 2 * cb - 1, 3 * cb, 4 * cb + 7,
        ])
        live[next(ids)] = {
            "addr": addr, "size": max(cb, data_len) * 4,
            "data": bytearray(rng.randbytes(data_len)), "tag": f"b{i}",
        }
        addr += 1 << 20

    def capture(image, buf_ids):
        for bid in sorted(buf_ids):
            buf = live[bid]
            image.add_gpu_buffer(0, GpuBufferRecord(
                buffer_id=bid, addr=buf["addr"], size=buf["size"],
                data=bytes(buf["data"]), tag=buf["tag"],
            ))

    root = DeltaImage(name="root", chunk_bytes=cb)
    capture(root, live)
    seal_delta(root, None, cache=cache)
    root.finalize(0.0)
    parent = root
    canons = [_canon(root)]

    for r in range(1, rounds + 1):
        parent_ids = set(live)
        written, freed = set(), set()
        for bid in list(live):
            buf, roll = live[bid], rng.random()
            data_len = len(buf["data"])
            if roll < 0.25 and data_len:
                # Mid-chunk partial write: a sub-chunk, unaligned span.
                start = rng.randrange(data_len)
                end = min(data_len,
                          start + rng.randint(1, max(1, cb // 3)))
                buf["data"][start:end] = rng.randbytes(end - start)
                cache.note_write(bid, start, end)
                written.add(bid)
            elif roll < 0.40 and data_len:
                # Prefix rewrite spanning whole chunks.
                end = rng.randint(1, data_len)
                buf["data"][:end] = rng.randbytes(end)
                cache.note_write(bid, 0, end)
                written.add(bid)
            elif roll < 0.50 and data_len:
                # Silent write: tracked as dirty, bytes unchanged —
                # the over-approximation the cache must tolerate.
                start = rng.randrange(data_len)
                cache.note_write(bid, start, start + 1)
                written.add(bid)
            elif roll < 0.60:
                # Free + realloc at the SAME address: new identity,
                # fresh bytes — any address-keyed cache would go stale.
                cache.forget(bid)
                freed.add(bid)
                nid = next(ids)
                live[nid] = {
                    "addr": buf["addr"], "size": buf["size"],
                    "data": bytearray(rng.randbytes(data_len)),
                    "tag": buf["tag"],
                }
                del live[bid]
            # else: untouched — becomes a pure parent reference.

        child = DeltaImage(
            name=f"round-{r}", parent_id=parent.id,
            parent_name=parent.name, parent_ref=parent, chunk_bytes=cb,
        )
        captured = written | (set(live) - parent_ids)
        capture(child, captured)
        reused = {0: (parent_ids - written - freed)}
        parent_full = materialize(parent)
        seal_delta(child, parent_full, reused=reused, freed={0: freed},
                   cache=cache)
        child.finalize(float(r))

        # Ground truth: the chain must materialize to the live state.
        full = materialize(child)
        got = {rec.addr: bytes(rec.data)
               for rec in full.gpu_buffers.get(0, {}).values()}
        want = {buf["addr"]: bytes(buf["data"]) for buf in live.values()}
        assert got == want, f"round {r} materialized state diverged"

        canons.append(_canon(child))
        parent = child
    return canons


@pytest.mark.parametrize("chunk_bytes", [64, 256, 1024])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 6])
def test_cache_on_off_byte_identical(seed, chunk_bytes, monkeypatch):
    with_cache = _play(seed, chunk_bytes)
    _always_miss(monkeypatch)
    without_cache = _play(seed, chunk_bytes)
    assert with_cache == without_cache


def test_mid_chunk_partial_write_stores_only_touched_chunk():
    cb = 256
    cache = BufferHashCache()
    data = bytearray(bytes(range(256)) * 4)  # 4 chunks
    root = DeltaImage(name="root", chunk_bytes=cb)
    root.add_gpu_buffer(0, GpuBufferRecord(1, 0x1000, 4096, bytes(data)))
    seal_delta(root, None, cache=cache)
    root.finalize(0.0)

    # Flip 3 bytes in the middle of chunk 2; track the exact span.
    data[2 * cb + 100 : 2 * cb + 103] = b"xyz"
    cache.note_write(1, 2 * cb + 100, 2 * cb + 103)
    child = DeltaImage(name="child", parent_id=root.id, parent_ref=root,
                       chunk_bytes=cb)
    child.add_gpu_buffer(0, GpuBufferRecord(1, 0x1000, 4096, bytes(data)))
    seal_delta(child, materialize(root), cache=cache)

    rec = child.delta_gpu[0][1]
    assert set(rec.chunks) == {2}
    assert rec.hashes == chunk_hashes(bytes(data), cb)
    assert child.stored_chunk_bytes == cb


def test_realloc_at_same_address_is_a_new_buffer():
    """A freed-and-reallocated buffer shares no chunks with the old id,
    even at the same address with partially identical bytes."""
    cb = 256
    cache = BufferHashCache()
    old = bytes(range(256)) * 2
    root = DeltaImage(name="root", chunk_bytes=cb)
    root.add_gpu_buffer(0, GpuBufferRecord(7, 0x2000, 4096, old))
    seal_delta(root, None, cache=cache)
    root.finalize(0.0)

    cache.forget(7)
    new = old[:cb] + bytes(cb)  # first chunk identical to the parent's
    child = DeltaImage(name="child", parent_id=root.id, parent_ref=root,
                       chunk_bytes=cb)
    child.add_gpu_buffer(0, GpuBufferRecord(8, 0x2000, 4096, new))
    seal_delta(child, materialize(root), freed={0: {7}}, cache=cache)

    rec = child.delta_gpu[0][8]
    # Different buffer id: every chunk is local, no parent reuse.
    assert set(rec.chunks) == {0, 1}
    assert 7 not in child.delta_gpu[0]


def _protocol_chain():
    """A full incremental protocol chain (root + two deltas)."""
    from repro.api.runtime import GpuProcess
    from repro.cluster import Machine
    from repro.core.daemon import Phos
    from repro.gpu.context import GpuContext
    from repro.sim import Engine

    eng = Engine()
    machine = Machine(eng, n_gpus=1)
    phos = Phos(eng, machine, use_context_pool=False)
    process = GpuProcess(eng, machine, name="app", gpu_indices=[0],
                         cpu_pages=8)
    process.runtime.adopt_context(0, GpuContext(gpu_index=0))
    phos.attach(process)
    app = ToyApp(process, buf_size=1 << 20)

    def driver(eng):
        yield from app.setup()
        yield from app.run(2)
        root, _ = yield phos.checkpoint(process, mode="incremental",
                                        name="root")
        yield from app.run(2, start=2)
        d1, _ = yield phos.checkpoint(process, mode="incremental",
                                      name="d1", parent=root)
        yield from app.run(2, start=4)
        d2, _ = yield phos.checkpoint(process, mode="incremental",
                                      name="d2", parent=d1)
        return root, d1, d2

    images = eng.run_process(driver(eng))
    eng.run()
    return [_canon(img) for img in images], eng.now, images


def test_protocol_chain_cache_on_off_identical(monkeypatch):
    """End-to-end: same images AND same virtual time either way."""
    canon_on, t_on, images_on = _protocol_chain()
    _always_miss(monkeypatch)
    canon_off, t_off, _ = _protocol_chain()
    assert canon_on == canon_off
    assert t_on == t_off
    # The chain also materializes to a plain full image.
    full = image_gpu_state(images_on[-1])
    assert full  # non-empty, hashes verified inside materialize
