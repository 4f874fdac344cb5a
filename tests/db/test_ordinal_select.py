"""Differential tests: ordinal-space block filtering vs the per-tuple loop.

A table whose codec decodes vectorised reads each block as its
phi-sorted ordinal array and filters it there (binary search for the
leading attribute, column masks for the rest).  The same relation
stored with the scalar codec — ``BlockCodec(sizes, vectorized=False)``,
byte-identical blocks — decodes to tuple lists and takes the per-tuple
loop, which is the oracle.  Every select surface must give exactly the
same tuples in the same phi order, with the same ``blocks_read`` and
``tuples_examined``.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import BlockCodec
from repro.db.aggregates import aggregate
from repro.db.planner import QueryPlanner
from repro.db.query import RangeQuery
from repro.db.table import Table
from repro.errors import QueryError
from repro.relational.algebra import RangePredicate
from repro.relational.domain import IntegerRangeDomain
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, Schema
from repro.storage.disk import SimulatedDisk

CACHES = [
    {},
    {"buffer_capacity": 3},
    {"decoded_cache_capacity": 3},
]


def make_schema(sizes):
    return Schema(
        [
            Attribute(f"a{i}", IntegerRangeDomain(0, s - 1))
            for i, s in enumerate(sizes)
        ]
    )


def make_pair(sizes, rows, block_size, **kwargs):
    """The same relation as an ordinal-array table and a tuple-list one."""
    schema = make_schema(sizes)
    relation = Relation(schema, rows)
    names = schema.names[1:]
    tables = []
    for vectorized in (None, False):
        table = Table.from_relation(
            "t",
            relation,
            SimulatedDisk(block_size=block_size),
            codec=BlockCodec(sizes, vectorized=vectorized),
            secondary_on=names,
            **kwargs,
        )
        for name in names:
            table.create_hash_index(name)
        table.enable_mvcc()
        tables.append(table)
    array_table, tuple_table = tables
    assert array_table.storage.ordinal_codec is not None
    assert tuple_table.storage.ordinal_codec is None
    first = array_table.storage.block_ids[0]
    payload = array_table.storage.read_payload_id(first)
    assert isinstance(array_table.storage.decode_payload(payload), np.ndarray)
    assert isinstance(tuple_table.storage.decode_payload(payload), list)
    return array_table, tuple_table


def assert_same(got, want):
    assert got.tuples == want.tuples
    assert got.blocks_read == want.blocks_read
    assert got.tuples_examined == want.tuples_examined
    assert got.access_path == want.access_path
    assert got.profile.tuples_examined == want.profile.tuples_examined
    assert got.profile.matched == want.profile.matched


def brute_force(schema, rows, query):
    bound = [p.bind(schema) for p in query.predicates]
    return sorted(
        (t for t in rows if all(lo <= t[p] <= hi for p, lo, hi in bound)),
        key=schema.mapper.phi,
    )


@st.composite
def cases(draw):
    sizes = draw(st.lists(st.integers(1, 7), min_size=1, max_size=5))
    # Few distinct values, many rows: long runs of duplicates, which
    # small blocks split across block boundaries.
    row = st.tuples(*[st.integers(0, s - 1) for s in sizes])
    rows = draw(st.lists(row, min_size=1, max_size=120))
    predicates = []
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(sizes) - 1))
        size = sizes[pos]
        kind = draw(st.sampled_from(["range", "full", "point", "beyond"]))
        if kind == "full":
            lo, hi = 0, size - 1
        elif kind == "beyond":
            # Overhangs the domain; binding clamps it.
            lo, hi = -draw(st.integers(0, 3)), size + draw(st.integers(0, 3))
        else:
            lo = draw(st.integers(0, size - 1))
            hi = lo if kind == "point" else draw(st.integers(lo, size - 1))
        predicates.append(RangePredicate(f"a{pos}", lo, hi))
    block_size = draw(st.sampled_from([16, 24, 48, 512]))
    return sizes, rows, RangeQuery(predicates), block_size


@settings(max_examples=60, deadline=None)
@given(case=cases(), caches=st.sampled_from(CACHES))
def test_live_and_planned_selects_match_the_tuple_loop(case, caches):
    sizes, rows, query, block_size = case
    array_table, tuple_table = make_pair(sizes, rows, block_size, **caches)
    schema = array_table.schema
    for _ in range(2):  # the second pass hits the caches
        got, want = array_table.select(query), tuple_table.select(query)
        assert_same(got, want)
        assert sorted(got.tuples) == sorted(brute_force(schema, rows, query))
    paths = ["primary", "scan"] + [
        f"{kind}:{name}"
        for name in schema.names[1:]
        for kind in ("secondary", "hash")
    ]
    for path in paths:
        try:
            want = tuple_table._execute(tuple_table.plan(query, path))
        except QueryError:
            with pytest.raises(QueryError):
                array_table.plan(query, path)
            continue
        assert_same(array_table._execute(array_table.plan(query, path)), want)
    assert_same(
        QueryPlanner(array_table).execute(query),
        QueryPlanner(tuple_table).execute(query),
    )
    for t in set(rows[:10]) | {tuple(s - 1 for s in sizes)}:
        assert array_table.contains(t) == tuple_table.contains(t)


@settings(max_examples=50, deadline=None)
@given(case=cases(), caches=st.sampled_from(CACHES))
def test_snapshot_selects_match_the_tuple_loop(case, caches):
    sizes, rows, query, block_size = case
    array_table, tuple_table = make_pair(sizes, rows, block_size, **caches)
    with array_table.read_snapshot() as a, tuple_table.read_snapshot() as b:
        assert_same(a.select(query), b.select(query))
        assert a.scan() == b.scan() == brute_force(
            array_table.schema, rows, RangeQuery([])
        )
        probes = set(rows[:10]) | {tuple(0 for _ in sizes)}
        for t in probes:
            assert a.contains(t) == b.contains(t) == (t in rows)


@settings(max_examples=40, deadline=None)
@given(case=cases(), function=st.sampled_from(["count", "sum", "min", "max"]))
def test_aggregates_match_the_tuple_loop(case, function):
    sizes, rows, query, block_size = case
    array_table, tuple_table = make_pair(sizes, rows, block_size)
    for attribute in array_table.schema.names:
        got = aggregate(array_table, function, attribute, query)
        assert got == aggregate(tuple_table, function, attribute, query)


def test_duplicate_run_straddling_a_block_boundary():
    rows = [(4, 2)] * 10 + [(5, 0)] * 20
    array_table, tuple_table = make_pair([6, 3], rows, 32)
    directory = array_table.storage.directory_entries()
    assert directory[0][2] == directory[1][1]  # the run spans blocks 0-1
    query = RangeQuery.equals("a0", 5)
    got = array_table.select(query)
    assert_same(got, tuple_table.select(query))
    assert got.tuples == [(5, 0)] * 20
    with array_table.read_snapshot() as snap:
        assert snap.select(query).tuples == [(5, 0)] * 20


@pytest.mark.parametrize(
    "sizes, block_size",
    [
        # Ordinal space 2**64: past the int64 bound, no vectorised codec.
        ([1 << 31, 1 << 31, 4], 256),
        # Space fits int64, but corrupt bytes could overflow the decode.
        ([2] * 61, 256),
    ],
)
def test_wide_schemas_keep_the_tuple_form(sizes, block_size):
    rng = random.Random(5)
    rows = [
        tuple(rng.randrange(min(s, 6)) if i % 2 else rng.randrange(s)
              for i, s in enumerate(sizes))
        for _ in range(150)
    ]
    schema = make_schema(sizes)
    table = Table.from_relation(
        "t", Relation(schema, rows), SimulatedDisk(block_size=block_size)
    )
    table.enable_mvcc()
    assert table.storage.ordinal_codec is None
    payload = table.storage.read_payload_id(table.storage.block_ids[0])
    assert isinstance(table.storage.decode_payload(payload), list)
    queries = [
        RangeQuery([]),
        RangeQuery.between("a1", 0, 2),
        RangeQuery([RangePredicate("a0", 0, sizes[0] // 2),
                    RangePredicate("a1", 1, 3)]),
    ]
    for query in queries:
        expected = brute_force(schema, rows, query)
        assert table.select(query).tuples == expected
        with table.read_snapshot() as snap:
            assert snap.select(query).tuples == expected
