"""Frozen read-only views of a table — the reader half of MVCC.

A :class:`TableSnapshot` is what :meth:`repro.db.table.Table.read_snapshot`
hands out: the block directory committed at one csn, pinned in the
table's :class:`~repro.storage.mvcc.BlockVersionStore` so the payloads
it references outlive any concurrent writer.  Every read resolves
through the store (stashed pre-image first, current payload as the
fallback), so a snapshot never observes half of a mutation — the
property the serving layer's reader threads rely on (docs/SERVING.md).

Snapshots deliberately do **not** reuse the table's live indices; those
track the *current* state.  Instead they plan from their own frozen
directory: a leading-attribute predicate bisects the ascending
first/last ordinals to the contiguous run of blocks it can touch (the
same pruning the primary index gives a live select), and a point probe
finds its one covering block the same way.  The plan then runs through
the table's one block executor (:meth:`Table.select`'s), so snapshot
selects get the same cancel hook, degraded-read policy and
:class:`~repro.obs.profile.QueryProfile`.

Every payload a snapshot decodes is first checked against the CRC32 in
the snapshot's *own* directory — not the live table's checksums, since
a stashed pre-image's block may since have been rewritten or split
away.  A mismatch, like a quarantined block id, is answered with
:class:`~repro.errors.QuarantinedBlockError` (the block is quarantined
for the live table too) or skipped under the ``"skip"`` policy.
Snapshot reads never repair: a repair rewrites a block, and only the
writer writes blocks.  Payload decodes bypass the decoded-block cache,
which answers "what does this block hold *now*".

A snapshot pins superseded block versions, so it must be closed;
``with table.read_snapshot() as snap: ...`` is the idiomatic form.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left, bisect_right
from typing import Callable, List, Optional, Sequence, Tuple

from repro.db.query import QueryResult, RangeQuery, SelectPlan
from repro.errors import CorruptionError, QueryError
from repro.storage.mvcc import BlockVersionStore, SnapshotHandle

__all__ = ["TableSnapshot"]


class TableSnapshot:
    """One pinned, consistent, read-only view of a table's committed state."""

    def __init__(
        self,
        table,  # repro.db.table.Table; untyped to break the import cycle
        store: BlockVersionStore,
        handle: SnapshotHandle,
    ) -> None:
        self._table = table
        self._store = store
        self._handle = handle
        self._closed = False
        self._crcs = {e[0]: e[4] for e in handle.directory}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def csn(self) -> int:
        """The commit sequence number this snapshot observes."""
        return self._handle.csn

    @property
    def num_blocks(self) -> int:
        """Blocks in the snapshot's directory."""
        return len(self._handle.directory)

    @property
    def num_tuples(self) -> int:
        """Tuples stored as of the snapshot (from the frozen directory)."""
        return sum(entry[3] for entry in self._handle.directory)

    @property
    def closed(self) -> bool:
        """Whether the snapshot has been released."""
        return self._closed

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------

    def select(
        self,
        query: RangeQuery,
        *,
        should_cancel: Optional[Callable[[], bool]] = None,
    ) -> QueryResult:
        """Execute a conjunctive range query against the frozen state.

        Results are ordinal tuples, exactly as :meth:`Table.select`
        returns them.  ``should_cancel`` is the cooperative cancellation
        hook the serving layer threads in (docs/SERVING.md): it is
        polled before every block read, and when it returns ``True``
        the select aborts with :class:`~repro.errors.QueryCancelled`
        instead of finishing work whose deadline has already fired.
        Cancellation is block-granular — a read that is *inside* a
        stalled disk access cannot be interrupted, but it stops at the
        next boundary.
        """
        self._require_open()
        return self._table._execute(
            self.plan(query),
            self._read_tuples,
            span="snapshot.select",
            should_cancel=should_cancel,
            csn=self.csn,
        )

    def plan(self, query: RangeQuery) -> SelectPlan:
        """Candidate blocks from the frozen directory.

        A predicate on the leading attribute keeps the contiguous run of
        entries whose ordinal range overlaps it ("snapshot-directory");
        anything else scans every entry ("snapshot-scan").
        """
        bound = [p.bind(self._table.schema) for p in query.predicates]
        directory = self._handle.directory
        leading = next((b for b in bound if b[0] == 0), None)
        if leading is None:
            return SelectPlan(
                bound, [e[0] for e in directory], "snapshot-scan"
            )
        w0 = self._table.schema.mapper.weights[0]
        start = bisect_left(self._handle.lasts, leading[1] * w0)
        stop = bisect_right(self._handle.firsts, (leading[2] + 1) * w0 - 1)
        return SelectPlan(
            bound,
            [e[0] for e in directory[start:stop]],
            "snapshot-directory",
        )

    def scan(self) -> List[Tuple[int, ...]]:
        """Every tuple as of the snapshot, in phi-cluster order."""
        return self.select(RangeQuery([])).tuples

    def contains(self, values: Sequence[int]) -> bool:
        """Point probe against the frozen state."""
        self._require_open()
        t = tuple(int(v) for v in values)
        mapper = self._table.schema.mapper
        mapper.validate(t)
        ordinal = mapper.phi(t)
        i = bisect_left(self._handle.lasts, ordinal)
        if i == len(self._handle.lasts) or self._handle.firsts[i] > ordinal:
            return False
        return t in self._read_tuples(self._handle.directory[i][0])

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the pin; superseded versions become collectable."""
        if self._closed:
            return
        self._closed = True
        self._store.release(self._handle)

    def __enter__(self) -> "TableSnapshot":
        self._require_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise QueryError("snapshot is closed")

    def _read_tuples(self, block_id: int) -> List[Tuple[int, ...]]:
        """One block as of the snapshot, CRC-checked before decoding."""
        table = self._table
        integrity = table.integrity
        integrity.quarantine.check(block_id)
        # The fallback reads the disk, not the buffer pool: the pool
        # verifies against the live checksums, which a concurrent writer
        # updates a moment after it rewrites the block.
        payload = self._store.read(
            block_id,
            self._handle.csn,
            lambda: table._disk().read_block(block_id),
        )
        expected = self._crcs.get(block_id)
        if expected is not None and zlib.crc32(payload) != expected:
            integrity.resolve(
                CorruptionError(
                    f"payload checksum mismatch on disk block {block_id} "
                    f"(snapshot csn {self.csn})",
                    block_id=block_id,
                    detected_by="crc32",
                ),
                repair=False,
            )
        return table.storage.decode_payload(payload)
