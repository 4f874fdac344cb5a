"""Per-layer metrics and the per-layer report of a traced run.

Inputs are span totals from ``spans.py`` per phase: ``setup`` (before
the measured window), ``window`` (the measured window), ``client`` (the
load generator's framing, on served workloads) and ``recovery`` (the
fixed ingest, crash and recovery on ``durable-ingest``).  Every metric is
reported on every workload; a layer that a workload never calls reads 0.
``BENCHMARK.json`` lists the metrics with their units.

Times named ``<span>.ms`` are mean wall milliseconds per call,
``.cpu_ms`` mean thread-CPU, ``.self_ms`` the wall time not covered by
named spans nested inside, and ``.wait_ms`` wall minus thread-CPU: time
the call spent waiting for the GIL, a lock or the disk.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

#: Spans that are not part of any one operation's latency.
_BACKGROUND = ("table.checkpoint",)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Phase:
    def __init__(self, totals: Optional[Dict[str, Any]]) -> None:
        totals = totals or {"spans": {}, "counters": {}}
        self.spans: Dict[str, Dict[str, float]] = totals["spans"]
        self.counters: Dict[str, float] = totals["counters"]

    def calls(self, name: str) -> float:
        return self.spans.get(name, {}).get("calls", 0.0)

    def total(self, name: str, field: str = "ms") -> float:
        return self.spans.get(name, {}).get(field, 0.0)

    def mean(self, name: str, field: str = "ms") -> float:
        return _ratio(self.total(name, field), self.calls(name))

    def wait(self, name: str) -> float:
        return _ratio(
            self.total(name, "ms") - self.total(name, "cpu_ms"), self.calls(name)
        )

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    def top_ms(self) -> float:
        return sum(
            s["top_ms"] for n, s in self.spans.items() if n not in _BACKGROUND
        )


def per_layer_metrics(
    *,
    setup: Optional[Dict[str, Any]],
    window: Dict[str, Any],
    recovery: Optional[Dict[str, Any]] = None,
    client: Optional[Dict[str, Any]] = None,
    ops: int,
    latency_ms: float,
    cpu_ms_per_op_traced: float,
    cpu_ms_per_op_untraced: float,
    mvcc_versions: float = 0.0,
    mvcc_pinned: float = 0.0,
) -> Dict[str, float]:
    """Every per-layer metric from one traced run's phases.

    ``ops`` is the number of operations in the traced window and
    ``latency_ms`` their mean latency as the caller observed it.
    """
    s, w, r, c = _Phase(setup), _Phase(window), _Phase(recovery), _Phase(client)
    selects = w.calls("snapshot.select")
    writes = w.calls("table.insert") + w.calls("table.delete")
    commits = w.calls("transaction.commit")
    decodes = w.calls("codec.decode_block") + w.calls("codec.decode_ordinals")
    client_ms = c.total("client.encode_frame") + c.total("client.decode_frame")
    named = _ratio(w.top_ms() + client_ms, ops)
    return {
        "admission.admit.ms": w.mean("admission.admit"),
        "admission.busy": w.counter("admission.busy"),
        "protocol.encode_frame.ms": w.mean("protocol.encode_frame"),
        "protocol.decode_frame.ms": w.mean("protocol.decode_frame"),
        "protocol.response_bytes": _ratio(
            w.counter("protocol.response_bytes"), w.calls("protocol.encode_frame")
        ),
        "protocol.client_ms_per_op": _ratio(client_ms, ops),
        "server.overhead.ms": latency_ms - named,
        "trace.named_coverage": _ratio(named, latency_ms),
        "trace.overhead_cpu_ms_per_op": cpu_ms_per_op_traced - cpu_ms_per_op_untraced,
        "trace.ops": float(ops),
        "table.read_snapshot.ms": w.mean("table.read_snapshot"),
        "table.insert.ms": w.mean("table.insert"),
        "table.insert.self_ms": w.mean("table.insert", "self_ms"),
        "table.delete.ms": w.mean("table.delete"),
        "table.delete.self_ms": w.mean("table.delete", "self_ms"),
        "table.checkpoint.ms": w.mean("table.checkpoint"),
        "snapshot.select.ms": w.mean("snapshot.select"),
        "snapshot.select.cpu_ms": w.mean("snapshot.select", "cpu_ms"),
        "snapshot.select.self_ms": w.mean("snapshot.select", "self_ms"),
        "snapshot.select.wait_ms": w.wait("snapshot.select"),
        "snapshot.blocks_per_select": _ratio(w.counter("snapshot.blocks_read"), selects),
        "snapshot.rows_examined_per_returned": _ratio(
            w.counter("snapshot.rows_examined"), w.counter("snapshot.rows_returned")
        ),
        "transaction.commit.ms": w.mean("transaction.commit"),
        "transaction.commit.wait_ms": w.wait("transaction.commit"),
        "schema.decode_tuple.ms": w.mean("schema.decode_tuple"),
        "schema.decode_tuple.calls": _ratio(w.calls("schema.decode_tuple"), ops),
        "mvcc.read.ms": w.mean("mvcc.read"),
        "mvcc.versions": mvcc_versions,
        "mvcc.pinned_snapshots": mvcc_pinned,
        "avqfile.decode_payload.ms": w.mean("avqfile.decode_payload"),
        "avqfile.decode_payload.cpu_ms": w.mean("avqfile.decode_payload", "cpu_ms"),
        "avqfile.decode_payload.wait_ms": w.wait("avqfile.decode_payload"),
        "avqfile.insert.ms": w.mean("avqfile.insert"),
        "avqfile.delete.ms": w.mean("avqfile.delete"),
        "avqfile.splits": w.counter("avqfile.splits"),
        "avqfile.build.ms": s.mean("avqfile.build"),
        "disk.blocks_read_per_op": _ratio(w.calls("disk.read_block"), ops),
        "disk.blocks_written_per_write": _ratio(w.calls("disk.write_block"), writes),
        "wal.force.ms": w.mean("wal.force"),
        "wal.force.wait_ms": w.wait("wal.force"),
        "wal.bytes_per_commit": _ratio(w.counter("wal.bytes_forced"), commits),
        "wal.checkpoint.ms": w.mean("wal.checkpoint"),
        "wal.checkpoint_bytes": _ratio(
            w.counter("wal.checkpoint_bytes"), w.calls("wal.checkpoint")
        ),
        "wal.recover.ms": r.mean("wal.recover"),
        "codec.decodes_per_select": _ratio(
            w.spans.get("codec.decode_block", {}).get("linked", 0.0), selects
        ),
        "codec.encode.ms": w.mean("codec.encode"),
        "codec.vector_share": _ratio(w.counter("codec.vector_decodes"), decodes),
        "csvio.read.ms": s.mean("csvio.read"),
        "schema.infer.ms": s.mean("schema.infer"),
        "relation.from_values.ms": s.mean("relation.from_values"),
        "primary_index.build.ms": s.mean("primary_index.build"),
    }


def report(
    phases: Dict[str, Optional[Dict[str, Any]]], ops: int, latency_ms: float
) -> List[str]:
    """Human-readable table of every span: self time and wait per call.

    ``calls`` is per operation in the ``window`` and ``client`` phases and
    a total elsewhere; ``share`` is top-level time per operation over the
    mean latency, for the measured phases only.
    """
    lines = [
        f"per-layer report: {ops} ops, mean latency {latency_ms:.3f} ms",
        f"  {'phase':8} {'span':28} {'calls':>9} {'ms':>9} {'self_ms':>9} "
        f"{'cpu_ms':>9} {'wait_ms':>9} {'share':>7}",
    ]
    for phase, totals in phases.items():
        p = _Phase(totals)
        measured = phase in ("window", "client")
        for name in sorted(p.spans, key=lambda n: -p.total(n)):
            share = (
                f"{_ratio(p.total(name, 'top_ms'), ops * latency_ms):7.3f}"
                if measured else ""
            )
            lines.append(
                f"  {phase:8} {name:28} "
                f"{_ratio(p.calls(name), ops if measured else 1):9.3f} "
                f"{p.mean(name):9.4f} {p.mean(name, 'self_ms'):9.4f} "
                f"{p.mean(name, 'cpu_ms'):9.4f} {p.wait(name):9.4f} {share}"
            )
    return lines
