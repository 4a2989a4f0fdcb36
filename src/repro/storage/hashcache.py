"""Incremental chunk-hash cache for the delta checkpoint data plane.

Sealing a :class:`~repro.storage.delta.DeltaImage` needs the parent's
chunk hashes for every live buffer.  Recomputing them on every
checkpoint makes the *host-side* sealing cost O(state), which defeats
the point of incremental checkpoints (§A.1: frequency is the lever, so
per-checkpoint cost must scale with dirty bytes).

:class:`BufferHashCache` keeps, per buffer, the chunk-hash table of the
image that last sealed it plus a :class:`~repro.gpu.ranges.RangeSet` of
byte offsets written *since* that seal, fed by the frontend's
speculation/validation write tracking (the same dirty source the
recopy pass uses).  At the next seal:

* an entry whose ``image_id`` matches the new delta's parent and whose
  layout (addr/size/payload length/chunk size) is unchanged serves the
  parent hashes directly, and only chunks overlapping ``pending`` are
  rehashed;
* anything else — layout change, chunk-size change, interleaved
  checkpoint by another chain, free + realloc (buffer ids are globally
  unique, so a new buffer at the same address is a new entry) — is a
  miss and falls back to a full rehash.  A miss is never wrong, only
  slower.

The pending ranges also drive *transfer* sizing: a delta checkpoint
ships only the chunk-aligned dirty spans of each captured buffer after
an on-device hash scan (see ``copy_gpu_buffers``), which is what moves
the wall-clock cost to O(dirty).

Every cache hit goes through :meth:`BufferHashCache.valid_entry`.  The
differential suite in ``tests/test_property_hashcache.py`` and
``tests/test_equivalence.py`` stub it to always miss (every seal
rehashes everything, bookkeeping continues) and assert that images and
virtual timings stay byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.gpu.ranges import RangeSet

@dataclass
class HashCacheEntry:
    """Chunk hashes of one buffer as of image ``image_id``, plus the
    byte ranges written since that image sealed."""

    buffer_id: int
    image_id: str
    addr: int
    size: int
    data_len: int
    chunk_bytes: int
    hashes: list[bytes]
    pending: RangeSet = field(default_factory=RangeSet)


class BufferHashCache:
    """Per-process (per-frontend) chunk-hash cache with dirty tracking."""

    def __init__(self) -> None:
        self.entries: dict[int, HashCacheEntry] = {}

    # -- dirty feed (frontend write tracking) --------------------------------
    def note_write(self, buffer_id: int, start: int, end: int) -> None:
        """Record that ``[start, end)`` (buffer-relative bytes) was written.

        No-op for buffers without an entry: a buffer never sealed has no
        hashes to invalidate, and its first seal hashes everything.
        """
        if end <= start:
            return
        entry = self.entries.get(buffer_id)
        if entry is not None:
            entry.pending.add(start, end)

    def forget(self, buffer_id: int) -> None:
        """Drop a buffer's entry (it was freed)."""
        self.entries.pop(buffer_id, None)

    # -- seal-side API -------------------------------------------------------
    def valid_entry(self, buffer_id: int, *, parent_id: str, addr: int,
                    size: int, data_len: int,
                    chunk_bytes: int) -> Optional[HashCacheEntry]:
        """The entry for ``buffer_id`` iff it matches the named parent
        image and the buffer's layout is unchanged; else None (miss)."""
        entry = self.entries.get(buffer_id)
        if entry is None:
            return None
        if (entry.image_id != parent_id or entry.addr != addr
                or entry.size != size or entry.data_len != data_len
                or entry.chunk_bytes != chunk_bytes):
            return None
        return entry

    def promote(self, buffer_id: int, *, image_id: str, addr: int, size: int,
                data_len: int, chunk_bytes: int,
                hashes: list[bytes]) -> None:
        """(Re)bind a buffer's entry to a freshly sealed image.

        Called with the process quiesced, so clearing ``pending`` races
        with nothing: the hashes describe the buffer's bytes exactly as
        of the sealing image.
        """
        self.entries[buffer_id] = HashCacheEntry(
            buffer_id=buffer_id, image_id=image_id, addr=addr, size=size,
            data_len=data_len, chunk_bytes=chunk_bytes, hashes=hashes,
        )

    # -- transfer-side API ---------------------------------------------------
    def dirty_extent(self, buffer_id: int, *, parent_id: str, addr: int,
                     size: int, data_len: int) -> Optional[RangeSet]:
        """Pending dirty ranges vs ``parent_id``, or None when unknown.

        None means the transfer path must ship the full buffer (no
        entry, wrong epoch, or layout change).  Chunk-size mismatch is
        irrelevant here — pending ranges are plain byte offsets.
        """
        entry = self.entries.get(buffer_id)
        if entry is None:
            return None
        if (entry.image_id != parent_id or entry.addr != addr
                or entry.size != size or entry.data_len != data_len):
            return None
        return entry.pending
