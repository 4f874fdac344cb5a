"""The ``durable-ingest`` workload, run in a process of its own.

Usage::

    python3 perfbench/durable.py --seed N --seconds S --work DIR [--trace OUT]

It drives the library API, because ``repro serve`` keeps no log.  The
flush policy is the shipped default: every commit fsyncs the log
(``wal_sync=True``).

1. set-up, :data:`SETUP_REPEATS` times on fresh disks: bulk-load the
   seeded 20k-tuple relation with ``Table.from_relation(durable_path=...)``,
   which also writes the first checkpoint;
2. a fixed ingest of :data:`FIXED_COMMITS` transactions of
   :data:`TXN_ROWS` inserts, with ``Table.checkpoint()`` before every
   :data:`CHECKPOINT_EVERY`-th commit, so it ends with commits after the
   last checkpoint;
3. a crash (the table is dropped without ``close()``) and recovery,
   :data:`RECOVERY_REPEATS` times on copies of the log: ``Table.open`` on a
   fresh ``SimulatedDisk`` from the log alone.  Recovery time, stored
   bytes, log bytes and peak memory are taken here, after a fixed amount
   of work, so that a faster commit path does not read as a bigger log;
4. the measured window: ``S`` seconds of the same transactions and
   checkpoints on the recovered table;
5. a second crash and recovery, untimed, so that every transaction
   acknowledged in the window is checked too.

The oracle after each recovery: the table holds exactly the bulk-loaded
rows plus every acknowledged insert.  The last line of standard output
is one JSON object with the results.  With ``--trace`` the public calls
are wrapped in spans (``spans.py``) and the span totals at the end of
steps 1, 3 and 4 are written to ``OUT``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import Counter
from typing import Any, Dict, List

import numpy as np

import spans
from workloads import (
    BLOCK_SIZE,
    WORKLOADS,
    Row,
    random_rows,
    read_proc_status,
    rows_of,
    seeded_relation,
)

TXN_ROWS = 5
CHECKPOINT_EVERY = 100
FIXED_COMMITS = 250
SETUP_REPEATS = 15
RECOVERY_REPEATS = 5


class Ingest:
    """Transactions of :data:`TXN_ROWS` inserts on one durable table."""

    def __init__(self, table: Any, rows: List[Row], first_row: int = 0) -> None:
        self._table = table
        self._rows = rows
        self._next = first_row
        self.latencies: List[float] = []
        self.acked: List[Row] = []
        self.checkpoints = 0
        self._since_checkpoint = 0

    @property
    def commits(self) -> int:
        return len(self.latencies)

    def step(self) -> None:
        """Checkpoint when due, then commit one transaction."""
        from repro.db.transactions import Transaction

        if self._since_checkpoint == CHECKPOINT_EVERY:
            self._table.checkpoint()
            self.checkpoints += 1
            self._since_checkpoint = 0
        batch = [self._rows[(self._next + k) % len(self._rows)] for k in range(TXN_ROWS)]
        self._next += TXN_ROWS
        t0 = time.perf_counter()
        txn = Transaction(self._table)
        for row in batch:
            txn.insert(row)
        txn.commit()
        self.latencies.append((time.perf_counter() - t0) * 1000.0)
        self.acked.extend(batch)
        self._since_checkpoint += 1


def check(table: Any, initial: List[Row], acked: List[Row], label: str) -> Dict[str, Any]:
    """Compare a recovered table with the bulk load plus acknowledged rows."""
    expected = Counter(initial)
    expected.update(acked)
    found = Counter(table.storage.scan())
    return {
        "label": label,
        "acked_transactions": len(acked) // TXN_ROWS,
        "missing_acked_rows": sum((expected - found).values()),
        "unexpected_rows": sum((found - expected).values()),
        "recovered_tuples": table.num_tuples,
        "expected_tuples": sum(expected.values()),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    rec = None
    marks: Dict[str, Any] = {}
    if args.trace is not None:
        rec = spans.Recorder()
        spans.instrument(rec)
    from repro.db.table import Table
    from repro.storage.disk import SimulatedDisk

    relation = seeded_relation(WORKLOADS["durable-ingest"], args.seed)
    rows = rows_of(relation)
    sizes = relation.schema.domain_sizes
    rng = np.random.default_rng([args.seed, 0xD0AB])
    fresh = random_rows(rng, [(0, s - 1) for s in sizes], 200_000)

    # 1. set-up
    setup_s: List[float] = []
    table = None
    for i in range(SETUP_REPEATS):
        if table is not None:
            table.close()
        wal_path = os.path.join(args.work, f"ingest{i}.wal")
        disk = SimulatedDisk(block_size=BLOCK_SIZE)
        t0 = time.perf_counter()
        table = Table.from_relation(
            "ingest", relation, disk, durable_path=wal_path, wal_sync=True
        )
        setup_s.append(time.perf_counter() - t0)
    if rec is not None:
        marks["setup"] = rec.snapshot()

    # 2. fixed ingest
    ingest = Ingest(table, fresh)
    while ingest.commits < FIXED_COMMITS:
        ingest.step()

    # 3. crash and recovery
    crash = {
        "wal_bytes": os.path.getsize(wal_path),
        "blocks": table.num_blocks,
        "stored_bytes": table.num_blocks * BLOCK_SIZE,
        "live_tuples": table.num_tuples,
    }
    copies = []
    for i in range(RECOVERY_REPEATS):
        copies.append(os.path.join(args.work, f"crash{i}.wal"))
        shutil.copyfile(wal_path, copies[-1])
    recovery_s: List[float] = []
    table = None
    for copy in copies:
        if table is not None:
            table.close()
        t0 = time.perf_counter()
        table = Table.open("ingest", SimulatedDisk(block_size=BLOCK_SIZE), copy)
        recovery_s.append(time.perf_counter() - t0)
        wal_path = copy
    peak_rss_mb = read_proc_status(os.getpid(), "VmHWM")
    checks = [check(table, rows, ingest.acked, "fixed ingest")]
    if rec is not None:
        marks["recovered"] = rec.snapshot()

    # 4. measured window
    window = Ingest(table, fresh, first_row=len(ingest.acked))
    cpu0 = time.process_time()
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline:
        window.step()
    elapsed = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    if rec is not None:
        marks["window"] = rec.snapshot()
        with open(args.trace, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)

    # 5. second crash, recovered only to check the window's commits
    table = Table.open("ingest", SimulatedDisk(block_size=BLOCK_SIZE), wal_path)
    checks.append(check(table, rows, ingest.acked + window.acked, "window"))
    table.close()

    result = {
        "setup_s": setup_s,
        "recovery_s": recovery_s,
        "fixed_commits": FIXED_COMMITS,
        "latencies_ms": window.latencies,
        "commits": window.commits,
        "checkpoints": window.checkpoints,
        "rows_acked": len(window.acked),
        "window_s": elapsed,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "domain_sizes": list(sizes),
        **crash,
        "checks": checks,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
