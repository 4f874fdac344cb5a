"""An LRU buffer pool over the simulated disk, plus a decoded-block cache.

Database engines never read blocks straight off the disk for every
access; a buffer pool absorbs re-reads.  The pool is deliberately simple
— block-id keyed, LRU eviction, hit/miss counters — because the paper's
response-time experiments assume cold reads (every block access costs
``t1``); the pool exists so the query engine is honest about when a block
access is a *repeat* access, and so examples can show the warm-cache
behaviour of a compressed relation (more tuples per cached block means a
higher tuple hit rate for the same pool size).

For a *compressed* relation a repeat access still pays the decode cost
``t2`` even when the raw payload is resident.  :class:`DecodedBlockCache`
layers a second LRU on top of the pool, keyed by the same disk block id
but holding the **decoded block**, so repeated point and range lookups
skip RLE decoding entirely.  For a vectorised AVQ table that is the
block's read-only phi-ordinal array (8 bytes per tuple); for heap
tables and very wide schemas it is the tuple list.  The layering keeps invalidation honest: a
block rewritten on disk (Section 4.2 mutation, block split, compaction)
is invalidated through :meth:`BufferPool.invalidate`, and the pool
cascades the drop to every attached decoded cache — a stale payload and
a stale decode are the same bug.

Both caches are **latched**: one shared reentrant lock per pool (adopted
by every attached decoded cache) serializes LRU reordering, eviction,
and stats updates, so the concurrent serving layer's reader threads
(:mod:`repro.server`) can share a pool without corrupting eviction
state or double-counting stats.  The latch is deliberately coarse — a
single lock covering pool and caches — because the alternative (a lock
per layer) deadlocks on the invalidation cascade: a decoded-cache get
takes cache-then-pool while an invalidate takes pool-then-cache.
Single-threaded callers pay one uncontended RLock acquire per access.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from repro.errors import StorageError
from repro.obs import runtime as _obs
from repro.obs.snapshot import snapshot_dataclass
from repro.storage.block import DecodedBlock
from repro.storage.disk import SimulatedDisk

if TYPE_CHECKING:  # circular at type level only
    from repro.storage.integrity import QuarantineSet

__all__ = ["BufferPool", "BufferStats", "DecodedBlockCache"]

#: Type of the payload -> decoded block decoder a decoded cache runs on
#: a miss (``AVQFile.decode_payload`` for a table's cache).
Decoder = Callable[[bytes], DecodedBlock]

#: Type of the integrity check a pool runs on every payload it admits:
#: ``(block_id, payload)``, raising
#: :class:`~repro.errors.CorruptionError` on damage.
Verifier = Callable[[int, bytes], None]


@dataclass
class BufferStats:
    """Hit/miss counters for a buffer pool and its decoded-block cache.

    ``hits``/``misses`` count raw-payload accesses through
    :meth:`BufferPool.get`; the ``decoded_*`` counters count tuple-level
    accesses through :meth:`DecodedBlockCache.get`.  Eviction counters
    are *lifetime* tallies of cache churn: :meth:`reset` zeroes the
    hit/miss window but deliberately leaves them standing, so a caller
    that resets between measurement phases still sees how much eviction
    pressure the whole run generated.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    decoded_hits: int = 0
    decoded_misses: int = 0
    decoded_evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total raw-payload get() calls served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served without disk I/O (0.0 when fresh)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    @property
    def decoded_accesses(self) -> int:
        """Total decoded-block get() calls served."""
        return self.decoded_hits + self.decoded_misses

    @property
    def decoded_hit_rate(self) -> float:
        """Fraction of accesses served without decoding (0.0 when fresh)."""
        if self.decoded_accesses == 0:
            return 0.0
        return self.decoded_hits / self.decoded_accesses

    def as_dict(self) -> Dict[str, Union[int, float]]:
        """All counters plus derived rates, under stable keys.

        The derived ``hit_rate``/``decoded_hit_rate`` are included so a
        snapshot taken right after :meth:`reset` reads 0.0 — never a
        division error — and exporters need no recomputation.
        """
        out = snapshot_dataclass(self)
        out["hit_rate"] = self.hit_rate
        out["decoded_hit_rate"] = self.decoded_hit_rate
        return out

    def reset(self) -> None:
        """Zero the hit/miss window; eviction counts survive.

        Evictions measure lifetime cache pressure, not a per-phase rate —
        zeroing them with the window would silently understate churn in
        any experiment that resets between warm-up and measurement.
        """
        self.hits = 0
        self.misses = 0
        self.decoded_hits = 0
        self.decoded_misses = 0


class BufferPool:
    """Fixed-capacity LRU cache of raw block payloads."""

    def __init__(self, disk: SimulatedDisk, capacity: int):
        if capacity < 1:
            raise StorageError(f"buffer pool capacity must be >= 1, got {capacity}")
        self._disk = disk
        self._capacity = capacity
        self._frames: "OrderedDict[int, bytes]" = OrderedDict()
        self._decoded_caches: List["DecodedBlockCache"] = []
        self._verifier: Optional[Verifier] = None
        self._quarantine: Optional["QuarantineSet"] = None
        #: One latch for the pool *and* every attached decoded cache —
        #: see the module docstring for why it must be shared.  The
        #: serving layer's shared-structure inventory (docs/SERVING.md)
        #: lists this latch alongside the R010 module-level registry.
        self._latch = threading.RLock()
        self.stats = BufferStats()

    @property
    def capacity(self) -> int:
        """Maximum blocks held."""
        return self._capacity

    @property
    def resident(self) -> int:
        """Blocks currently cached."""
        return len(self._frames)

    @property
    def latch(self) -> "threading.RLock":
        """The shared pool/decoded-cache lock (reentrant).

        Exposed so callers that need a multi-step atomic view (the
        hammer tests, the serving layer's stats snapshots) can hold it
        across several reads.
        """
        return self._latch

    def get(self, block_id: int) -> bytes:
        """Return a block's payload, reading from disk only on a miss.

        A quarantined block is refused outright — even on a cache hit,
        because a block quarantined *after* being cached may hold the
        pre-corruption payload, and serving it would mask the fault the
        quarantine exists to surface.  Freshly read payloads run through
        the attached verifier before being cached, so a corrupt payload
        is never admitted to a frame.
        """
        with self._latch:
            self.check_quarantine(block_id)
            reg = _obs.REGISTRY
            cached = self._frames.get(block_id)
            if cached is not None:
                self._frames.move_to_end(block_id)
                self.stats.hits += 1
                if reg is not None:
                    reg.inc("buffer.hits")
                return cached
            payload = self._disk.read_block(block_id)
            if self._verifier is not None:
                self._verifier(block_id, payload)
            self.stats.misses += 1
            if reg is not None:
                reg.inc("buffer.misses")
            self._frames[block_id] = payload
            if len(self._frames) > self._capacity:
                self._frames.popitem(last=False)
                self.stats.evictions += 1
                if reg is not None:
                    reg.inc("buffer.evictions")
            return payload

    def attach_verifier(self, verifier: Verifier) -> None:
        """Run ``verifier(block_id, payload)`` on every payload admitted.

        :class:`~repro.db.table.Table` attaches the storage file's
        checksum check here, so a rotted payload raises
        :class:`~repro.errors.CorruptionError` at the pool boundary
        instead of decoding into garbage downstream.
        """
        self._verifier = verifier

    def attach_quarantine(self, quarantine: "QuarantineSet") -> None:
        """Refuse quarantined block ids on every :meth:`get`.

        Attaching also has no retroactive effect on resident frames —
        the integrity layer invalidates a block when it quarantines it.
        """
        self._quarantine = quarantine

    def check_quarantine(self, block_id: int) -> None:
        """Raise :class:`~repro.errors.QuarantinedBlockError` if barred.

        A no-op when no quarantine set is attached.  The decoded-block
        cache calls this on its own hits, which never touch the pool.
        """
        if self._quarantine is not None:
            self._quarantine.check(block_id)

    def attach_decoded_cache(self, cache: "DecodedBlockCache") -> None:
        """Register a decoded cache for invalidation cascade.

        Called by :class:`DecodedBlockCache` itself; after attachment,
        :meth:`invalidate` and :meth:`clear` also drop the corresponding
        decoded entries — a rewritten payload makes the decode stale too.
        """
        with self._latch:
            if cache not in self._decoded_caches:
                self._decoded_caches.append(cache)

    def invalidate(self, block_id: int) -> None:
        """Drop a block from the pool (after it was rewritten on disk).

        Cascades to every attached decoded cache: the decoded tuples of a
        rewritten block are exactly as stale as its payload.
        """
        with self._latch:
            self._frames.pop(block_id, None)
            for cache in self._decoded_caches:
                cache.drop(block_id)

    def clear(self) -> None:
        """Empty the pool and attached decoded caches (counters are kept;
        use ``stats.reset()``)."""
        with self._latch:
            self._frames.clear()
            for cache in self._decoded_caches:
                cache.drop_all()


class DecodedBlockCache:
    """Fixed-capacity LRU cache of *decoded* blocks over a buffer pool.

    Keyed by disk block id, like the pool underneath.  A hit returns the
    cached decoded block with no I/O and no decode; a miss fetches the
    payload through the pool (which may itself hit or miss) and decodes
    it once.  Counters live on the shared ``pool.stats`` so one object
    tells the whole caching story.

    The cache registers itself with the pool, so the pool's
    ``invalidate``/``clear`` — the calls every Section 4.2 mutation path
    already makes — keep it consistent for free.

    Callers must treat returned blocks as immutable: the same object is
    handed to every hit (``AVQFile.decode_payload`` marks its ordinal
    arrays read-only).
    """

    def __init__(
        self, pool: BufferPool, capacity: int, decoder: Decoder
    ) -> None:
        if capacity < 1:
            raise StorageError(
                f"decoded cache capacity must be >= 1, got {capacity}"
            )
        self._pool = pool
        self._capacity = capacity
        self._decoder = decoder
        self._frames: "OrderedDict[int, DecodedBlock]" = OrderedDict()
        # Adopt the pool's latch rather than owning one: a get here takes
        # cache-then-pool while an invalidate takes pool-then-cache, so
        # two locks would deadlock (see module docstring).
        self._latch = pool.latch
        pool.attach_decoded_cache(self)

    @property
    def pool(self) -> BufferPool:
        """The raw-payload pool underneath."""
        return self._pool

    @property
    def capacity(self) -> int:
        """Maximum decoded blocks held."""
        return self._capacity

    @property
    def resident(self) -> int:
        """Decoded blocks currently cached."""
        return len(self._frames)

    @property
    def stats(self) -> BufferStats:
        """The shared counters (same object as ``pool.stats``)."""
        return self._pool.stats

    def get(self, block_id: int) -> DecodedBlock:
        """Return a block's decoded form, decoding only on a miss."""
        with self._latch:
            self._pool.check_quarantine(block_id)
            reg = _obs.REGISTRY
            cached = self._frames.get(block_id)
            if cached is not None:
                self._frames.move_to_end(block_id)
                self.stats.decoded_hits += 1
                if reg is not None:
                    reg.inc("cache.decoded_hits")
                return cached
            block = self._decoder(self._pool.get(block_id))
            self.stats.decoded_misses += 1
            if reg is not None:
                reg.inc("cache.decoded_misses")
            self._frames[block_id] = block
            if len(self._frames) > self._capacity:
                self._frames.popitem(last=False)
                self.stats.decoded_evictions += 1
                if reg is not None:
                    reg.inc("cache.decoded_evictions")
            return block

    def peek(self, block_id: int) -> Optional[DecodedBlock]:
        """The cached decode of a block, or ``None`` — never decodes.

        Point probes use this to exploit a warm cache without forcing a
        full block decode on a cold one (the early-exit difference-stream
        probe is cheaper than decoding when the block is cold).
        """
        with self._latch:
            self._pool.check_quarantine(block_id)
            cached = self._frames.get(block_id)
            if cached is not None:
                self._frames.move_to_end(block_id)
                self.stats.decoded_hits += 1
                reg = _obs.REGISTRY
                if reg is not None:
                    reg.inc("cache.decoded_hits")
            return cached

    def drop(self, block_id: int) -> None:
        """Forget one block's decode (no-op if absent)."""
        with self._latch:
            self._frames.pop(block_id, None)

    def drop_all(self) -> None:
        """Forget every decode (counters are kept; use ``stats.reset()``)."""
        with self._latch:
            self._frames.clear()
