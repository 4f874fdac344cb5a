"""In-memory span recorder that times the program's public calls from outside.

The benchmark never edits the program.  Instead, :func:`instrument` swaps
selected public functions and methods of the ``repro`` modules for thin
wrappers that record, per span name:

* ``calls``, wall ``ms`` and thread-CPU ``cpu_ms`` (the gap between the
  two is time spent waiting: for the GIL, a lock, or the disk);
* ``self_ms`` and ``self_cpu_ms``, the span minus the named spans nested
  inside it on the same thread;
* ``top_ms``, wall time of calls that ran with no named span above them
  on their thread.  Summed over names this is the part of a request that
  named spans cover, without double counting nested spans;
* ``linked``, calls that ran inside a snapshot read.  The reader thread
  that runs a select is tied to it through a thread-local flag set when
  ``Table.read_snapshot`` returns and cleared at ``TableSnapshot.close``,
  because context variables are not copied into ``run_in_executor``
  threads.

Spans are aggregated in memory; :meth:`Recorder.snapshot` copies the
totals out when the benchmark asks (``traced_serve.py``, ``durable.py``).  Calls made once per
returned row (``Schema.decode_tuple``) record wall time only, since two
thread-CPU clock reads per row would cost more than the call itself.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Recorder", "instrument", "instrument_client", "diff"]

_FIELDS = ("calls", "ms", "cpu_ms", "self_ms", "self_cpu_ms", "top_ms", "linked")

Stats = Dict[str, Dict[str, float]]


class Recorder:
    """Aggregated spans and counters for one process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._spans: Stats = {}
        self._counters: Dict[str, float] = {}

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add(
        self,
        name: str,
        wall: float,
        cpu: float,
        child_wall: float,
        child_cpu: float,
        top: bool,
    ) -> None:
        linked = getattr(self._local, "linked", False)
        with self._lock:
            s = self._spans.get(name)
            if s is None:
                s = self._spans[name] = dict.fromkeys(_FIELDS, 0.0)
            s["calls"] += 1
            s["ms"] += wall
            s["cpu_ms"] += cpu
            s["self_ms"] += wall - child_wall
            s["self_cpu_ms"] += cpu - child_cpu
            if top:
                s["top_ms"] += wall
            if linked:
                s["linked"] += 1

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add to a named counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0.0) + amount

    def link(self, linked: bool) -> None:
        """Mark later spans on this thread as part of a snapshot read."""
        self._local.linked = linked

    def timed(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        cpu: bool = True,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """Wrap a synchronous callable in a span.

        ``before(*args)`` runs first and its value is handed to
        ``after(token, args, result)``, which runs once the call returned.
        """
        rec = self
        clock = time.perf_counter
        cpu_clock = time.thread_time if cpu else (lambda: 0.0)

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            token = before(*args) if before is not None else None
            stack = rec._stack()
            frame = [0.0, 0.0]
            stack.append(frame)
            c0 = cpu_clock()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = (clock() - t0) * 1000.0
                used = (cpu_clock() - c0) * 1000.0
                stack.pop()
                if stack:
                    stack[-1][0] += wall
                    stack[-1][1] += used
                rec._add(name, wall, used, frame[0], frame[1], not stack)
            if after is not None:
                after(token, args, result)
            return result

        return wrapper

    def timed_async(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., Any]:
        """Wrap a coroutine function in a span.

        The span stands alone: other coroutines may run on the same
        thread while it is suspended, so it neither nests nor is nested.
        """
        rec = self

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            c0 = time.thread_time()
            t0 = time.perf_counter()
            result = await fn(*args, **kwargs)
            wall = (time.perf_counter() - t0) * 1000.0
            used = (time.thread_time() - c0) * 1000.0
            rec._add(name, wall, used, 0.0, 0.0, True)
            if after is not None:
                after(None, args, result)
            return result

        return wrapper

    # -- reading --------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A copy of every span total and counter so far."""
        with self._lock:
            return {
                "spans": {k: dict(v) for k, v in self._spans.items()},
                "counters": dict(self._counters),
            }


def diff(later: Dict[str, Any], earlier: Dict[str, Any]) -> Dict[str, Any]:
    """Span totals and counters accumulated between two snapshots."""
    spans: Stats = {}
    for name, s in later["spans"].items():
        e = earlier["spans"].get(name)
        d = {k: s[k] - (e[k] if e else 0.0) for k in _FIELDS}
        if d["calls"]:
            spans[name] = d
    counters = {
        k: v - earlier["counters"].get(k, 0.0)
        for k, v in later["counters"].items()
    }
    return {"spans": spans, "counters": counters}


# ----------------------------------------------------------------------
# Wiring to the program's public calls
# ----------------------------------------------------------------------


def _patch_method(
    rec: Recorder, owner: type, attr: str, name: str, **options: Any
) -> None:
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(rec.timed(name, raw.__func__, **options)))
    elif inspect.iscoroutinefunction(raw):
        setattr(owner, attr, rec.timed_async(name, raw, **options))
    else:
        setattr(owner, attr, rec.timed(name, raw, **options))


def _patch_function(
    rec: Recorder, modules: List[Any], attr: str, name: str, **options: Any
) -> None:
    wrapped = rec.timed(name, getattr(modules[0], attr), **options)
    for module in modules:
        setattr(module, attr, wrapped)


def instrument(rec: Recorder) -> None:
    """Time the public calls of every layer the benchmark reports on."""
    import repro.cli
    import repro.io.csvio
    import repro.server.protocol as protocol
    from repro.core.codec import BlockCodec
    from repro.core.vectorized import VectorizedBlockCodec
    import repro.db.table as table_mod
    from repro.db.snapshot import TableSnapshot
    from repro.db.table import Table
    from repro.db.transactions import Transaction
    from repro.index.primary import PrimaryIndex
    from repro.relational.encoding import SchemaInferencer
    from repro.relational.relation import Relation
    from repro.relational.schema import Schema
    from repro.server.admission import AdmissionController
    from repro.storage.avqfile import AVQFile
    from repro.storage.disk import SimulatedDisk
    from repro.storage.mvcc import BlockVersionStore
    from repro.storage.wal import WriteAheadLog

    def admitted(_token: Any, _args: Any, ok: bool) -> None:
        if not ok:
            rec.count("admission.busy")

    def response_bytes(_token: Any, _args: Any, frame: bytes) -> None:
        rec.count("protocol.response_bytes", len(frame))

    def snapshot_opened(_token: Any, _args: Any, _snap: Any) -> None:
        rec.link(True)

    def snapshot_closed(_token: Any, _args: Any, _result: Any) -> None:
        rec.link(False)

    def selected(_token: Any, _args: Any, result: Any) -> None:
        rec.count("snapshot.blocks_read", result.blocks_read)
        rec.count("snapshot.rows_examined", result.tuples_examined)
        rec.count("snapshot.rows_returned", len(result.tuples))

    def block_count(storage: Any, *_rest: Any) -> int:
        return storage.num_blocks

    def inserted(blocks_before: int, args: Any, _pos: Any) -> None:
        if args[0].num_blocks > blocks_before:
            rec.count("avqfile.splits")

    def decoded(_token: Any, args: Any, _tuples: Any) -> None:
        vec = args[0].vector_codec
        if vec is not None and vec.decode_supported:
            rec.count("codec.vector_decodes")

    def durable_bytes(wal: Any, *_rest: Any) -> int:
        return wal.stats.bytes_durable

    def forced(before: int, args: Any, _result: Any) -> None:
        rec.count("wal.bytes_forced", args[0].stats.bytes_durable - before)

    def checkpointed(before: int, args: Any, _result: Any) -> None:
        rec.count("wal.checkpoint_bytes", args[0].stats.bytes_durable - before)

    _patch_method(rec, AdmissionController, "admit", "admission.admit", after=admitted)
    _patch_method(rec, Table, "read_snapshot", "table.read_snapshot", after=snapshot_opened)
    _patch_method(rec, Table, "insert", "table.insert")
    _patch_method(rec, Table, "delete", "table.delete")
    _patch_method(rec, Table, "checkpoint", "table.checkpoint")
    _patch_method(rec, TableSnapshot, "select", "snapshot.select", after=selected)
    _patch_method(rec, TableSnapshot, "close", "snapshot.close", after=snapshot_closed)
    _patch_method(rec, Transaction, "commit", "transaction.commit")
    _patch_method(rec, Schema, "decode_tuple", "schema.decode_tuple", cpu=False)
    _patch_method(rec, BlockVersionStore, "read", "mvcc.read")
    _patch_method(rec, AVQFile, "decode_payload", "avqfile.decode_payload")
    _patch_method(rec, AVQFile, "insert", "avqfile.insert", before=block_count, after=inserted)
    _patch_method(rec, AVQFile, "delete", "avqfile.delete")
    _patch_method(rec, AVQFile, "build", "avqfile.build")
    _patch_method(rec, SimulatedDisk, "read_block", "disk.read_block")
    _patch_method(rec, SimulatedDisk, "write_block", "disk.write_block")
    _patch_method(rec, WriteAheadLog, "force", "wal.force", before=durable_bytes, after=forced)
    _patch_method(rec, WriteAheadLog, "checkpoint", "wal.checkpoint",
                  before=durable_bytes, after=checkpointed)
    _patch_method(rec, BlockCodec, "decode_block", "codec.decode_block", after=decoded)
    _patch_method(rec, BlockCodec, "decode_ordinals", "codec.decode_ordinals", after=decoded)
    _patch_method(rec, VectorizedBlockCodec, "encode_run", "codec.encode")
    _patch_method(rec, SchemaInferencer, "infer", "schema.infer")
    _patch_method(rec, Relation, "from_values", "relation.from_values")
    _patch_method(rec, PrimaryIndex, "build", "primary_index.build")
    # Functions imported by name are looked up in the importing module.
    _patch_function(rec, [table_mod], "recover", "wal.recover")
    _patch_function(rec, [repro.io.csvio, repro.cli], "read_csv_rows", "csvio.read")
    _patch_function(rec, [protocol], "encode_frame", "protocol.encode_frame", after=response_bytes)
    _patch_function(rec, [protocol], "decode_frame", "protocol.decode_frame")


def instrument_client(rec: Recorder) -> None:
    """Time the load generator's own framing (client side of the wire)."""
    import repro.server.client as client

    _patch_function(rec, [client], "encode_frame", "client.encode_frame")
    _patch_function(rec, [client], "decode_frame", "client.decode_frame")
