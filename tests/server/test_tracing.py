"""Served requests produce one linked trace.

The engine work of a served request runs on the server's thread pool,
and ``loop.run_in_executor`` does not carry contextvars into the
thread.  The server therefore runs each executor call in a copy of the
request's context, so the engine's spans nest under ``server.request``.
"""

import asyncio

from repro.db.database import Database
from repro.obs import runtime
from repro.server.client import AsyncReproClient
from repro.server.server import ReproServer, ServerConfig


def test_served_select_span_nests_under_its_request():
    database = Database()
    database.create_table(
        "t", [[i, i % 5, i % 3] for i in range(40)], columns=["a", "b", "c"]
    )

    async def scenario():
        server = ReproServer(database, ServerConfig())
        host, port = await server.start()
        try:
            async with await AsyncReproClient.connect(host, port) as c:
                response = await c.request({
                    "op": "select",
                    "table": "t",
                    "predicates": [{"attribute": "a", "lo": 3, "hi": 9}],
                })
                assert response["count"] == 7
        finally:
            await server.stop()

    with runtime.scoped() as (_registry, tracer):
        asyncio.run(scenario())
    spans = tracer.finished_spans()
    requests = {
        s.span_id: s
        for s in spans
        if s.name == "server.request" and s.attributes.get("op") == "select"
    }
    [select] = [s for s in spans if s.name == "snapshot.select"]
    assert select.parent_id in requests
