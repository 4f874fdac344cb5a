"""Aggregate queries over compressed relations, with block pruning.

The authors' companion work (the cited "Physical Storage Model for
Efficient Statistical Query Processing") targets statistical databases,
where the common query is an *aggregate* over a range, not a tuple
fetch.  This module runs COUNT / SUM / MIN / MAX / AVG over an
AVQ-compressed table and exploits the compressed layout twice:

* the candidate block set comes from the table's own planner
  (:meth:`Table.plan`), and the blocks are read by its one block
  executor, so untouched blocks are never read — let alone decoded —
  and every read goes through the integrity guard;
* when the aggregate target *is* the clustering prefix and the
  predicate covers whole blocks, MIN/MAX/COUNT can be answered from the
  block directory (first/last ordinal, tuple count) without decoding
  the block at all — the compressed analogue of "answering from the
  index".

Results carry the same counters as :class:`~repro.db.query.QueryResult`
so the pruning is observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.errors import QuarantinedBlockError, QueryError
from repro.storage.avqfile import AVQFile

__all__ = ["AggregateResult", "aggregate"]

_SUPPORTED = ("count", "sum", "min", "max", "avg")


@dataclass
class AggregateResult:
    """One aggregate answer plus its access statistics."""

    function: str
    attribute: Optional[str]
    value: Optional[float]
    tuples_matched: int
    blocks_read: int
    blocks_answered_from_directory: int
    access_path: str


def aggregate(
    table: Table,
    function: str,
    attribute: Optional[str],
    query: RangeQuery,
) -> AggregateResult:
    """Compute ``function(attribute)`` over the tuples matching ``query``.

    ``COUNT`` accepts ``attribute=None``.  Aggregation runs over the
    stored ordinals; for :class:`~repro.relational.domain.IntegerRangeDomain`
    attributes the result is shifted back to application values (an
    ordinal is ``value - lo``), so SUM/AVG/MIN/MAX read naturally.  For
    other domain types the ordinal is returned as-is (an "average
    department" has no meaning anyway; MIN/MAX ordinals can be decoded
    through the domain by the caller).

    Block reads honour the table's degraded-read policy: under
    ``"repair"`` a corrupt block is repaired and the answer is exact;
    under ``"raise"`` the block is quarantined and
    :class:`~repro.errors.QuarantinedBlockError` propagates.  Under
    ``"skip"`` it is raised too, because an :class:`AggregateResult`
    has no way to report a partial answer.
    """
    function = function.lower()
    if function not in _SUPPORTED:
        raise QueryError(
            f"unsupported aggregate {function!r}; supported: {_SUPPORTED}"
        )
    if function != "count" and attribute is None:
        raise QueryError(f"{function} requires an attribute")

    schema = table.schema
    position = schema.position(attribute) if attribute is not None else None
    plan = table.plan(query)
    bound = plan.bound

    directory_hits = 0
    count = 0
    total = 0
    minimum: Optional[int] = None
    maximum: Optional[int] = None

    storage = table.storage
    full_block_prunable = (
        isinstance(storage, AVQFile)
        and function in ("count", "min", "max")
        and _whole_block_coverage_possible(table, bound, position, function)
    )
    id_to_position = (
        {bid: pos for pos, bid in enumerate(storage.block_ids)}
        if full_block_prunable
        else {}
    )

    pending = []
    for block_id in plan.block_ids:
        # id_to_position is empty unless directory answers are possible.
        answered = _try_directory_answer(
            table, id_to_position.get(block_id), bound, function
        )
        if answered is None:
            pending.append(block_id)
            continue
        block_count, block_min, block_max = answered
        count += block_count
        if block_min is not None:
            minimum = block_min if minimum is None else min(minimum, block_min)
        if block_max is not None:
            maximum = block_max if maximum is None else max(maximum, block_max)
        directory_hits += 1

    result = table._execute(plan._replace(block_ids=pending))
    if result.skipped_blocks:
        raise QuarantinedBlockError(
            f"aggregate over {table.name!r} cannot skip quarantined "
            f"blocks {result.skipped_blocks}",
            block_id=result.skipped_blocks[0],
            detected_by="quarantine",
        )
    for t in result.tuples:
        count += 1
        if position is not None:
            v = t[position]
            total += v
            minimum = v if minimum is None else min(minimum, v)
            maximum = v if maximum is None else max(maximum, v)

    shift = 0
    if position is not None:
        from repro.relational.domain import IntegerRangeDomain

        domain = schema.attribute(attribute).domain
        if isinstance(domain, IntegerRangeDomain):
            shift = domain.lo

    value: Optional[float]
    if function == "count":
        value = float(count)
    elif count == 0:
        value = None
    elif function == "sum":
        value = float(total + count * shift)
    elif function == "min":
        value = None if minimum is None else float(minimum + shift)
    elif function == "max":
        value = None if maximum is None else float(maximum + shift)
    else:  # avg
        value = total / count + shift

    return AggregateResult(
        function=function,
        attribute=attribute,
        value=value,
        tuples_matched=count,
        blocks_read=result.blocks_read,
        blocks_answered_from_directory=directory_hits,
        access_path=plan.access_path,
    )


def _whole_block_coverage_possible(table, bound, position, function) -> bool:
    """Directory answers need: predicate on the leading attribute only,
    and the aggregate target to be the leading attribute (its min/max
    over a block follow from the block's first/last ordinals) or COUNT."""
    if any(pos != 0 for pos, _, _ in bound):
        return False
    if function == "count":
        return True
    return position == 0


def _try_directory_answer(table, pos_index, bound, function):
    """Answer one block from the directory if its whole ordinal range
    satisfies the (leading-attribute) predicate; else ``None``."""
    if pos_index is None:
        return None
    storage: AVQFile = table.storage
    first, last = storage.block_range(pos_index)
    w0 = table.schema.mapper.weights[0]
    lead_first = first // w0
    lead_last = last // w0
    for _, lo, hi in bound:  # all bound entries are on attribute 0 here
        if not (lo <= lead_first and lead_last <= hi):
            return None
    count = storage.block_tuple_count(pos_index)
    if function == "count":
        return count, None, None
    # min/max of the leading attribute over the block
    return count, lead_first, lead_last
