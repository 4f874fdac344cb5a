"""Integration tests: the server over real sockets.

Every test starts a :class:`~repro.server.server.ReproServer` on an
ephemeral port and talks to it through the protocol — the same path a
remote client takes, including admission control, the reader thread
pool, and MVCC snapshots.
"""

import asyncio
import contextlib
import struct
import threading

import pytest

from repro.db.database import Database
from repro.server.client import AsyncReproClient, ReproClient
from repro.server.loadgen import run_loadgen
from repro.server.server import ReproServer, ServerConfig

ROWS = [
    [0, 10, 3],
    [1, 11, 4],
    [1, 12, 0],
    [2, 13, 1],
    [3, 14, 2],
    [3, 14, 2],
]


def make_database():
    database = Database()
    database.create_table("t", ROWS, columns=["a", "b", "c"])
    return database


@contextlib.asynccontextmanager
async def serving(database=None, **config):
    server = ReproServer(
        database or make_database(), ServerConfig(**config)
    )
    host, port = await server.start()
    try:
        yield server, host, port
    finally:
        await server.stop()


def run(coro):
    return asyncio.run(coro)


class TestRequests:
    def test_ping_schema_select(self):
        async def scenario():
            async with serving() as (server, host, port):
                async with await AsyncReproClient.connect(host, port) as c:
                    pong = await c.request({"op": "ping"})
                    assert pong == {"status": "ok", "pong": True}

                    schema = await c.request({"op": "schema", "table": "t"})
                    assert [a["name"] for a in schema["attributes"]] == [
                        "a", "b", "c",
                    ]
                    assert schema["tuples"] == len(ROWS)

                    result = await c.request({
                        "op": "select",
                        "table": "t",
                        "predicates": [
                            {"attribute": "a", "lo": 1, "hi": 2}
                        ],
                    })
                    assert result["status"] == "ok"
                    assert result["count"] == 3
                    assert sorted(map(tuple, result["rows"])) == [
                        (1, 11, 4), (1, 12, 0), (2, 13, 1),
                    ]

        run(scenario())

    def test_write_advances_csn_and_select_sees_it(self):
        async def scenario():
            async with serving() as (server, host, port):
                async with await AsyncReproClient.connect(host, port) as c:
                    r1 = await c.request(
                        {"op": "insert", "table": "t", "row": [2, 10, 1]}
                    )
                    assert r1["status"] == "ok"
                    r2 = await c.request(
                        {"op": "delete", "table": "t", "row": [0, 10, 3]}
                    )
                    assert r2["removed"] is True
                    assert r2["csn"] > r1["csn"]
                    result = await c.request(
                        {"op": "select", "table": "t", "predicates": []}
                    )
                    rows = sorted(map(tuple, result["rows"]))
                    assert (2, 10, 1) in rows
                    assert (0, 10, 3) not in rows
                    assert result["csn"] == r2["csn"]

        run(scenario())

    def test_range_outside_the_domain_selects_nothing(self):
        """Bounds wholly outside ``a``'s domain (0..3) used to clamp one
        by one onto the edge value and return its rows."""
        async def scenario():
            async with serving() as (server, host, port):
                async with await AsyncReproClient.connect(host, port) as c:
                    for lo, hi in ((50, 50), (-5, -1)):
                        result = await c.request({
                            "op": "select",
                            "table": "t",
                            "predicates": [
                                {"attribute": "a", "lo": lo, "hi": hi}
                            ],
                        })
                        assert result["status"] == "ok"
                        assert result["rows"] == []
                        assert result["count"] == 0
                    # A range overlapping the domain is still clamped.
                    result = await c.request({
                        "op": "select",
                        "table": "t",
                        "predicates": [{"attribute": "a", "lo": 3, "hi": 50}],
                    })
                    assert result["count"] == 2

        run(scenario())

    def test_errors_are_typed_responses(self):
        async def scenario():
            async with serving() as (server, host, port):
                async with await AsyncReproClient.connect(
                    host, port, raise_errors=False
                ) as c:
                    bad_op = await c.request({"op": "mutate"})
                    assert bad_op["status"] == "error"
                    assert bad_op["code"] == "bad_op"

                    no_table = await c.request(
                        {"op": "select", "table": "nope", "predicates": []}
                    )
                    assert no_table["status"] == "error"

                    bad_row = await c.request(
                        {"op": "insert", "table": "t", "row": [99, 0, 0]}
                    )
                    assert bad_row["status"] == "error"
                    # The connection survives request-level errors.
                    assert (await c.request({"op": "ping"}))["pong"] is True

        run(scenario())

    def test_malformed_frame_answers_then_hangs_up(self):
        async def scenario():
            async with serving() as (server, host, port):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(struct.pack(">I", 5) + b"{nope")
                await writer.drain()
                from repro.server.protocol import read_frame

                response = await read_frame(reader)
                assert response["status"] == "error"
                assert response["code"] == "protocol"
                assert await read_frame(reader) is None  # server hung up
                writer.close()
                with contextlib.suppress(ConnectionError):
                    await writer.wait_closed()

        run(scenario())

    def test_busy_when_saturated(self):
        async def scenario():
            async with serving(
                max_inflight=1, max_queued=0, max_per_client=8
            ) as (server, host, port):
                # Occupy the only execution slot out-of-band, so the
                # rejection is deterministic.
                assert await server.admission.admit("hog")
                async with await AsyncReproClient.connect(host, port) as c:
                    busy = await c.request(
                        {"op": "select", "table": "t", "predicates": []}
                    )
                    assert busy == {"status": "busy", "retry": True}
                    # ping bypasses admission: liveness survives overload
                    assert (await c.request({"op": "ping"}))["pong"] is True
                    server.admission.release("hog")
                    ok = await c.request(
                        {"op": "select", "table": "t", "predicates": []}
                    )
                    assert ok["status"] == "ok"

        run(scenario())

    def test_stats_reports_admission_and_tables(self):
        async def scenario():
            async with serving() as (server, host, port):
                async with await AsyncReproClient.connect(host, port) as c:
                    await c.request(
                        {"op": "select", "table": "t", "predicates": []}
                    )
                    stats = await c.request({"op": "stats"})
                    assert stats["admission"]["admitted"] >= 1
                    entry = stats["tables"]["t"]
                    assert entry["tuples"] == len(ROWS)
                    assert entry["csn"] == 0
                    assert entry["pinned_snapshots"] == 0

        run(scenario())


class TestBlockingClient:
    def test_blocking_client_against_threaded_server(self):
        """The sync client from one thread, the server loop in another."""
        database = make_database()
        server = ReproServer(database)
        started = threading.Event()
        address = {}
        loop = asyncio.new_event_loop()

        def serve():
            asyncio.set_event_loop(loop)
            address["addr"] = loop.run_until_complete(server.start())
            started.set()
            loop.run_forever()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert started.wait(timeout=10)
        host, port = address["addr"]
        try:
            with ReproClient(host, port) as client:
                assert client.ping()
                result = client.select(
                    "t", [{"attribute": "a", "lo": 3, "hi": 3}]
                )
                assert result["count"] == 2
                client.insert("t", [0, 14, 0])
                assert client.delete("t", [0, 14, 0])["removed"] is True
                assert client.stats()["tables"]["t"]["csn"] == 2
        finally:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()


class TestLoadgenSmoke:
    def test_small_closed_loop_run(self):
        async def scenario():
            async with serving() as (server, host, port):
                report = await run_loadgen(
                    host, port,
                    table="t",
                    clients=20,
                    requests_per_client=4,
                    read_fraction=0.8,
                    seed=7,
                )
                assert report.errors == 0
                assert report.ok == 20 * 4
                assert report.total_requests >= report.ok
                assert report.qps > 0
                assert set(report.latency_ms) == {
                    "p50", "p90", "p99", "mean", "max",
                }
                assert report.server_stats["admission"]["admitted"] >= 80

        run(scenario())

    def test_loadgen_validates_arguments(self):
        from repro.errors import ServerError

        with pytest.raises(ServerError):
            run(run_loadgen("h", 1, table="t", clients=0))
        with pytest.raises(ServerError):
            run(run_loadgen("h", 1, table="t", read_fraction=1.5))
