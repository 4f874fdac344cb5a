"""Exhaustive single-bit rot sweep through the served select path.

Every ``repro serve`` select runs as an MVCC snapshot select on a
reader thread.  This test flips every bit of one small stored block in
turn and issues a select through the wire protocol after each flip:
every response must be either exactly the expected rows or a typed
error.  A chained difference stream decodes single-bit damage into
plausible but wrong tuples, so only the checksum stands between a flip
and a silently wrong answer; CRC32 detects every single-bit error, so
in fact every flip must come back as a typed error.
"""

import asyncio
from collections import Counter

from repro.db.database import Database
from repro.server.client import AsyncReproClient
from repro.server.server import ReproServer, ServerConfig

ROWS = [[i, (7 * i) % 11, i % 4] for i in range(150)]

QUERIES = [
    [],  # snapshot-scan: every block
    [{"attribute": "a", "lo": 0, "hi": 20}],  # snapshot-directory
]


def expected_rows(predicates):
    out = Counter()
    for row in ROWS:
        if all(p["lo"] <= row[0] <= p["hi"] for p in predicates):
            out[tuple(row)] += 1
    return out


def test_every_bit_flip_is_exact_or_typed():
    database = Database(block_size=192)
    table = database.create_table("t", ROWS, columns=["a", "b", "c"])
    assert table.num_blocks >= 3
    target = table.storage.block_ids[0]
    bits = database.disk.stored_size(target) * 8

    async def scenario():
        server = ReproServer(database, ServerConfig())
        host, port = await server.start()
        outcomes = Counter()
        try:
            async with await AsyncReproClient.connect(
                host, port, raise_errors=False
            ) as client:
                for bit in range(bits):
                    predicates = QUERIES[bit % len(QUERIES)]
                    database.disk.corrupt_stored(target, bit)
                    response = await client.request({
                        "op": "select", "table": "t", "predicates": predicates,
                    })
                    database.disk.corrupt_stored(target, bit)  # restore
                    if response["status"] == "ok":
                        got = Counter(map(tuple, response["rows"]))
                        exact = got == expected_rows(predicates)
                        outcomes["exact" if exact else "silently_wrong"] += 1
                    else:
                        assert response["status"] == "error", response
                        assert response["code"] == "QuarantinedBlockError"
                        assert target in table.quarantined_blocks
                        outcomes["typed_error"] += 1
                    table.integrity.quarantine.release(target)
                # The restored block serves exact answers again.
                for predicates in QUERIES:
                    response = await client.request({
                        "op": "select", "table": "t", "predicates": predicates,
                    })
                    got = Counter(map(tuple, response["rows"]))
                    assert got == expected_rows(predicates)
        finally:
            await server.stop()
        return outcomes

    outcomes = asyncio.run(scenario())
    assert outcomes["silently_wrong"] == 0
    assert outcomes["typed_error"] == bits


def test_skip_policy_answer_names_the_blocks_it_left_out():
    """Under "skip" a served select may omit a rotten block, but the
    response says so: a partial answer is never silent."""
    database = Database(block_size=192)
    table = database.create_table(
        "t", ROWS, columns=["a", "b", "c"], degraded_reads="skip"
    )
    target = table.storage.block_ids[0]
    lost = table.storage.block_tuple_count(0)
    database.disk.corrupt_stored(target, 9)

    async def scenario():
        server = ReproServer(database, ServerConfig())
        host, port = await server.start()
        try:
            async with await AsyncReproClient.connect(host, port) as client:
                return await client.request(
                    {"op": "select", "table": "t", "predicates": []}
                )
        finally:
            await server.stop()

    response = asyncio.run(scenario())
    assert response["status"] == "ok"
    assert response["skipped_blocks"] == [target]
    assert response["count"] == len(ROWS) - lost
