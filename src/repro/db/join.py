"""Equi-joins over compressed tables.

"Standard database operations" (the paper's Section 4 promise) includes
joins.  Two classic algorithms are provided, both operating directly on
AVQ-coded storage — blocks decode on demand, never the whole relation
at once:

* :func:`index_nested_loop_join` — scan the outer table block by block;
  for each outer tuple, probe the inner table's secondary (or hash)
  index on the join attribute and read only matching blocks.  The right
  choice when the inner table is indexed and the outer side is small or
  filtered.
* :func:`block_nested_loop_join` — for each outer block, scan the inner
  table once, joining in memory.  No index needed; ``O(B_outer *
  B_inner)`` block reads, which the result's counters make visible.

Both read every block through the table's guarded read
(:meth:`Table._read_block_id`), like a select: quarantined blocks are
refused, and corruption is repaired under the ``"repair"`` policy or
raised as :class:`~repro.errors.QuarantinedBlockError` otherwise.  A
join has no way to report a partial answer, so ``"skip"`` raises too.
Inner blocks in ordinal-array form are matched with a column mask
(:mod:`repro.db.blockfilter`), building tuples only for partners.

Results are ordinal tuples ``outer + inner`` over a combined schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from repro.db.blockfilter import block_tuples, match_block, match_values
from repro.db.table import Table
from repro.errors import QueryError
from repro.relational.schema import Attribute, Schema

__all__ = ["JoinResult", "index_nested_loop_join", "block_nested_loop_join"]


@dataclass
class JoinResult:
    """Joined tuples plus access statistics."""

    schema: Schema
    tuples: List[Tuple[int, ...]]
    outer_blocks_read: int
    inner_blocks_read: int
    index_probes: int
    algorithm: str

    @property
    def cardinality(self) -> int:
        """Number of joined rows."""
        return len(self.tuples)


def _combined_schema(outer: Table, inner: Table) -> Schema:
    attrs = []
    for a in outer.schema.attributes:
        attrs.append(Attribute(f"{outer.name}.{a.name}", a.domain))
    for a in inner.schema.attributes:
        attrs.append(Attribute(f"{inner.name}.{a.name}", a.domain))
    return Schema(attrs)


def _check_join_compatible(
    outer: Table, outer_attr: str, inner: Table, inner_attr: str
) -> Tuple[int, int]:
    opos = outer.schema.position(outer_attr)
    ipos = inner.schema.position(inner_attr)
    osize = outer.schema.domain_sizes[opos]
    isize = inner.schema.domain_sizes[ipos]
    if osize != isize:
        raise QueryError(
            f"join attributes have different domain sizes: "
            f"{outer_attr}({osize}) vs {inner_attr}({isize}); ordinal "
            "equality would not mean value equality"
        )
    return opos, ipos


def _outer_groups(
    table: Table, position: int
) -> Iterator[Dict[int, List[Tuple[int, ...]]]]:
    """Each block's tuples grouped by join value, read block by block."""
    codec = table.storage.ordinal_codec
    for block_id in table.storage.block_ids:
        groups: Dict[int, List[Tuple[int, ...]]] = {}
        for t in block_tuples(table._read_block_id(block_id), codec):
            groups.setdefault(t[position], []).append(t)
        yield groups


def index_nested_loop_join(
    outer: Table,
    outer_attr: str,
    inner: Table,
    inner_attr: str,
) -> JoinResult:
    """Equi-join probing the inner table's index per outer tuple.

    The inner table must have a secondary or hash index on
    ``inner_attr``.  Each outer block probes once per distinct join
    value, so repeated values do not re-read inner blocks.
    """
    opos, ipos = _check_join_compatible(outer, outer_attr, inner, inner_attr)
    hash_idx = inner.hash_indices.get(inner_attr)
    sec_idx = inner.secondary_indices.get(inner_attr)
    if hash_idx is None and sec_idx is None:
        raise QueryError(
            f"index_nested_loop_join needs an index on "
            f"{inner.name}.{inner_attr}"
        )

    def probe(value: int) -> List[int]:
        if hash_idx is not None:
            return hash_idx.lookup(value)
        return sec_idx.range_lookup(value, value)

    schema = _combined_schema(outer, inner)
    out: List[Tuple[int, ...]] = []
    outer_blocks = 0
    inner_blocks = 0
    probes = 0

    codec = inner.storage.ordinal_codec
    # one probe per distinct join value of each outer block
    for by_value in _outer_groups(outer, opos):
        outer_blocks += 1
        for value, group in by_value.items():
            probes += 1
            for block_id in probe(value):
                inner_blocks += 1
                block = inner._read_block_id(block_id)
                for inner_tuple in match_block(
                    block, [(ipos, value, value)], codec
                ):
                    for outer_tuple in group:
                        out.append(outer_tuple + inner_tuple)
    return JoinResult(
        schema=schema,
        tuples=out,
        outer_blocks_read=outer_blocks,
        inner_blocks_read=inner_blocks,
        index_probes=probes,
        algorithm="index-nested-loop",
    )


def block_nested_loop_join(
    outer: Table,
    outer_attr: str,
    inner: Table,
    inner_attr: str,
) -> JoinResult:
    """Equi-join scanning the inner table once per outer block."""
    opos, ipos = _check_join_compatible(outer, outer_attr, inner, inner_attr)
    schema = _combined_schema(outer, inner)
    out: List[Tuple[int, ...]] = []
    outer_blocks = 0
    inner_blocks = 0

    codec = inner.storage.ordinal_codec
    for by_value in _outer_groups(outer, opos):
        outer_blocks += 1
        for block_id in inner.storage.block_ids:
            inner_blocks += 1
            block = inner._read_block_id(block_id)
            for inner_tuple in match_values(block, ipos, by_value, codec):
                for outer_tuple in by_value[inner_tuple[ipos]]:
                    out.append(outer_tuple + inner_tuple)
    return JoinResult(
        schema=schema,
        tuples=out,
        outer_blocks_read=outer_blocks,
        inner_blocks_read=inner_blocks,
        index_probes=0,
        algorithm="block-nested-loop",
    )
