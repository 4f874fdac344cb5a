"""The select planners: live ``Table.plan`` and ``TableSnapshot.plan``.

Both feed the one block executor.  The snapshot planner bisects its
frozen directory; it must pick exactly the entries whose ordinal range
overlaps the leading-attribute predicate.  Both must find runs of
duplicate tuples that straddle a block boundary.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.errors import QueryError
from repro.relational.algebra import RangePredicate
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.disk import SimulatedDisk

SCHEMA = Schema(
    [
        Attribute("a", IntegerRangeDomain(0, 5)),
        Attribute("b", IntegerRangeDomain(0, 2)),
    ]
)


def make_table(rows, **kwargs):
    table = Table.from_relation(
        "t", Relation(SCHEMA, rows), SimulatedDisk(block_size=32), **kwargs
    )
    table.enable_mvcc()
    return table


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 2)),
        min_size=1,
        max_size=80,
    ),
    lo=st.integers(0, 5),
    width=st.integers(0, 5),
)
def test_snapshot_plan_is_exactly_the_overlapping_entries(rows, lo, width):
    hi = min(5, lo + width)
    table = make_table(rows)
    w0 = SCHEMA.mapper.weights[0]
    lo_ord, hi_ord = lo * w0, (hi + 1) * w0 - 1
    with table.read_snapshot() as snap:
        plan = snap.plan(RangeQuery.between("a", lo, hi))
        directory = table.storage.directory_entries()
        assert plan.access_path == "snapshot-directory"
        assert plan.block_ids == [
            e[0] for e in directory if e[2] >= lo_ord and e[1] <= hi_ord
        ]
        result = snap.select(RangeQuery.between("a", lo, hi))
        assert sorted(result.tuples) == sorted(
            t for t in rows if lo <= t[0] <= hi
        )
        for a in range(6):
            for b in range(3):
                assert snap.contains((a, b)) == ((a, b) in rows)
    live = table.select(RangeQuery.between("a", lo, hi))
    assert sorted(live.tuples) == sorted(t for t in rows if lo <= t[0] <= hi)


def test_primary_select_sees_duplicates_straddling_a_block_boundary():
    """Packing splits the run of (5, 0) copies: block 0 ends with some
    and block 1, which starts exactly at the ordinal of (5, 0), holds
    the rest.  Planning from the floor block of that ordinal alone would
    read block 1 only and silently drop the copies in block 0."""
    rows = [(4, 2)] * 10 + [(5, 0)] * 20
    table = make_table(rows)
    directory = table.storage.directory_entries()
    assert directory[0][2] == directory[1][1] == 5 * SCHEMA.mapper.weights[0]
    assert len(table.select(RangeQuery.equals("a", 5)).tuples) == 20
    with table.read_snapshot() as snap:
        assert len(snap.select(RangeQuery.equals("a", 5)).tuples) == 20


def test_live_plan_prefers_primary_then_smallest_index_then_scan():
    rows = [(i % 6, i % 3) for i in range(60)]
    table = make_table(rows, secondary_on=["b"])
    table.create_hash_index("b")
    assert table.plan(RangeQuery.between("a", 1, 2)).access_path == "primary"
    equality = table.plan(RangeQuery.equals("b", 1))
    assert equality.access_path in ("hash:b", "secondary:b")
    assert table.plan(RangeQuery.between("b", 0, 1)).access_path == (
        "secondary:b"
    )
    assert table.plan(RangeQuery([])).access_path == "scan"


def test_forced_path_must_apply():
    table = make_table([(i % 6, i % 3) for i in range(30)])
    query = RangeQuery([RangePredicate("b", 1, 1)])
    assert table.plan(query, "scan").access_path == "scan"
    with pytest.raises(QueryError):
        table.plan(query, "primary")
    with pytest.raises(QueryError):
        table.plan(query, "secondary:b")
