"""The top-level database facade.

A :class:`Database` owns a simulated disk, a catalog of tables, and the
convenience paths a user actually wants: create a compressed table
straight from raw application rows (Section 3.1 encoding included), query
it with application values, and read back decoded rows.

Durability is opt-in per table: construct the database with a
``wal_dir`` and pass ``durable=True`` at creation time, and the table
gets a write-ahead log at ``<wal_dir>/<name>.wal`` (see
docs/RECOVERY.md).  ``open_table`` brings a table back from its log
after a crash or a clean shutdown; ``close`` checkpoints every durable
table so the next open is a no-op replay.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.db.catalog import Catalog
from repro.db.query import QueryResult, RangeQuery
from repro.db.table import Table
from repro.errors import QueryError
from repro.relational.algebra import RangePredicate
from repro.relational.encoding import SchemaInferencer
from repro.relational.relation import Relation
from repro.storage.block import DEFAULT_BLOCK_SIZE
from repro.storage.disk import DiskModel, SimulatedDisk
from repro.storage.integrity import IntegrityReport, ScrubReport

__all__ = ["Database"]


class Database:
    """A catalog of AVQ-compressed (or baseline heap) tables on one disk."""

    def __init__(
        self,
        *,
        block_size: int = DEFAULT_BLOCK_SIZE,
        disk_model: Optional[DiskModel] = None,
        wal_dir: Optional[str] = None,
        wal_sync: bool = True,
        disk: Optional[SimulatedDisk] = None,
    ):
        if disk is not None:
            self._disk = disk
        else:
            self._disk = SimulatedDisk(block_size=block_size, model=disk_model)
        self._catalog = Catalog()
        self._wal_dir = wal_dir
        #: Whether durable tables fsync on commit (see docs/RECOVERY.md);
        #: ``False`` is the flush-only escape hatch for benchmarks.
        self._wal_sync = wal_sync

    def _wal_path(self, name: str) -> str:
        if self._wal_dir is None:
            raise QueryError(
                "durable tables need a wal_dir (Database(wal_dir=...))"
            )
        return os.path.join(self._wal_dir, name + ".wal")

    @property
    def disk(self) -> SimulatedDisk:
        """The shared simulated disk (for stats inspection)."""
        return self._disk

    @property
    def catalog(self) -> Catalog:
        """The system catalog."""
        return self._catalog

    # ------------------------------------------------------------------
    # Table creation
    # ------------------------------------------------------------------

    def create_table(
        self,
        name: str,
        rows: Sequence[Sequence],
        *,
        columns: Optional[Sequence[str]] = None,
        compressed: bool = True,
        secondary_on: Sequence[str] = (),
        inferencer: Optional[SchemaInferencer] = None,
        durable: bool = False,
        degraded_reads: str = "raise",
        tuple_index: bool = False,
    ) -> Table:
        """Create a table from raw application rows.

        Runs the full Section 3 pipeline: infer domains, encode attributes,
        sort by phi, pack into blocks, code each block, build indices.
        ``degraded_reads`` and ``tuple_index`` configure the table's
        online-integrity behaviour (docs/INTEGRITY.md).
        """
        inferencer = inferencer or SchemaInferencer()
        schema = inferencer.infer(rows, columns)
        relation = Relation.from_values(schema, rows)
        return self.create_table_from_relation(
            name,
            relation,
            compressed=compressed,
            secondary_on=secondary_on,
            durable=durable,
            degraded_reads=degraded_reads,
            tuple_index=tuple_index,
        )

    def create_table_from_relation(
        self,
        name: str,
        relation: Relation,
        *,
        compressed: bool = True,
        secondary_on: Sequence[str] = (),
        durable: bool = False,
        degraded_reads: str = "raise",
        tuple_index: bool = False,
    ) -> Table:
        """Create a table from an already-encoded relation."""
        table = Table.from_relation(
            name,
            relation,
            self._disk,
            compressed=compressed,
            secondary_on=secondary_on,
            durable_path=self._wal_path(name) if durable else None,
            wal_sync=self._wal_sync,
            degraded_reads=degraded_reads,
            tuple_index=tuple_index,
        )
        self._catalog.register(table)
        return table

    def open_table(
        self,
        name: str,
        *,
        secondary_on: Sequence[str] = (),
        degraded_reads: str = "raise",
        tuple_index: bool = False,
    ) -> Table:
        """Re-open a durable table from its write-ahead log.

        Runs recovery (docs/RECOVERY.md): after a clean shutdown this
        re-attaches the existing blocks without touching the disk; after
        a crash it rebuilds the table from the log's committed image.
        """
        table = Table.open(
            name,
            self._disk,
            self._wal_path(name),
            secondary_on=secondary_on,
            wal_sync=self._wal_sync,
            degraded_reads=degraded_reads,
            tuple_index=tuple_index,
        )
        self._catalog.register(table)
        return table

    def close(self) -> None:
        """Checkpoint and close every durable table's log."""
        for table in self._catalog:
            table.close()

    def table(self, name: str) -> Table:
        """Look a table up by name."""
        return self._catalog.get(name)

    def enable_mvcc(self, name: str) -> None:
        """Turn on snapshot-isolation reads for a table (idempotent)."""
        self.table(name).enable_mvcc()

    def read_snapshot(self, name: str):
        """A pinned consistent view of a table (docs/SERVING.md).

        Requires :meth:`enable_mvcc` first; close the returned
        :class:`~repro.db.snapshot.TableSnapshot` (context manager) when
        done so superseded block versions can be reclaimed.
        """
        return self.table(name).read_snapshot()

    def drop_table(self, name: str) -> None:
        """Remove a table from the catalog (blocks are not reclaimed)."""
        self._catalog.drop(name)

    # ------------------------------------------------------------------
    # Value-level convenience API
    # ------------------------------------------------------------------

    def select_values(
        self,
        name: str,
        attribute: str,
        lo,
        hi,
    ) -> Tuple[List[Tuple], QueryResult]:
        """``sigma_{lo <= attribute <= hi}`` with application values.

        Bounds are encoded through the attribute's domain; results are
        decoded back to application values.  Returns (decoded rows, the
        raw :class:`QueryResult` with its access statistics).
        """
        table = self.table(name)
        schema = table.schema
        domain = schema.attribute(attribute).domain
        encoded = domain.encode_range(lo, hi)
        if encoded is None:
            # A range that misses the domain selects nothing.
            return [], QueryResult(
                tuples=[], blocks_read=0, tuples_examined=0, access_path="empty"
            )
        lo_ord, hi_ord = encoded
        if lo_ord > hi_ord:
            raise QueryError(
                f"{lo!r}..{hi!r} is an inverted range under "
                f"{attribute!r}'s domain order"
            )
        result = table.select(
            RangeQuery([RangePredicate(attribute, lo_ord, hi_ord)])
        )
        decoded = [schema.decode_tuple(t) for t in result.tuples]
        return decoded, result

    def insert_values(self, name: str, row: Sequence) -> None:
        """Insert one application-value row into a compressed table."""
        table = self.table(name)
        table.insert(table.schema.encode_tuple(row))

    def delete_values(self, name: str, row: Sequence) -> bool:
        """Delete one application-value row; returns whether it existed."""
        table = self.table(name)
        return table.delete(table.schema.encode_tuple(row))

    # ------------------------------------------------------------------
    # Online integrity (docs/INTEGRITY.md)
    # ------------------------------------------------------------------

    def scrub_all(
        self,
        *,
        max_blocks: Optional[int] = None,
        backfill: bool = False,
    ) -> Dict[str, ScrubReport]:
        """Run one scrub increment on every compressed table.

        Returns a per-table report; heap baselines (no checksums, no
        mutations) are skipped.
        """
        out: Dict[str, ScrubReport] = {}
        for table in self._catalog:
            if table.integrity is None:
                continue
            out[table.name] = table.scrub(
                max_blocks=max_blocks, backfill=backfill
            )
        return out

    def fsck_all(
        self, *, repair: bool = False, backfill: bool = False
    ) -> Dict[str, IntegrityReport]:
        """Full integrity check (optionally with repair) on every table."""
        out: Dict[str, IntegrityReport] = {}
        for table in self._catalog:
            if table.integrity is None:
                continue
            out[table.name] = table.fsck(repair=repair, backfill=backfill)
        return out

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------

    def storage_report(self) -> List[dict]:
        """Per-table block usage — the Figure 5.7 numerator and denominator."""
        out = []
        for table in self._catalog:
            out.append(
                {
                    "table": table.name,
                    "compressed": table.compressed,
                    "tuples": table.num_tuples,
                    "blocks": table.num_blocks,
                    "block_size": self._disk.block_size,
                    "bytes": table.num_blocks * self._disk.block_size,
                }
            )
        return out
