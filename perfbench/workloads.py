"""Workload definitions, seeded inputs, answer oracles and provenance.

Every input the program sees is derived from the workload seed: the
relation (``RelationSpec(num_attributes=4, mean_domain_size=64)``), the
CSV written from it, and each client's request sequence.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import platform
import subprocess
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

Row = Tuple[int, ...]

#: The program's default block size; every table in the benchmark uses it.
BLOCK_SIZE = 8192
#: Closed-loop connections; at most ``nproc`` (2 on the reference host).
CLIENTS = 2
#: Reader threads for ``repro serve``; kept at ``nproc`` on purpose.
READER_THREADS = 2
#: Requests per client generated up front (more than a run can use).
OPS_PER_CLIENT = 60_000
#: ``point-hot`` draws a fresh seeded rank order every this many requests
#: of a client, so that one run samples many hot keys and its cost does
#: not hinge on where one key's rows fall among the blocks.
ROTATE_OPS = 100


@dataclass(frozen=True)
class Workload:
    """One traffic mix."""

    name: str
    kind: str  # "served" or "durable"
    tuples: int
    #: Fixed tail percentile, chosen so each slice has at least ten
    #: samples beyond it (the sample count is recorded with every result).
    tail_pct: int
    #: Requests each client sends, unmeasured, before the window.
    warmup_ops: int
    #: The measured window is cut into this many equal slices (of time;
    #: of commits on durable-ingest); the timing metrics are the median
    #: over the slices, so a burst of load from other guests of the host
    #: moves one or two slices, not the result.
    slices: int
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "point-hot", "served", 20_000, 95, 300, 5,
            "20k tuples that fit any cache, zipf leading-key selects: "
            "request overhead and a one-block decode dominate, keys repeat",
        ),
        Workload(
            "scan-cold", "served", 100_000, 75, 3, 1,
            "100k tuples, uniform selects on A3 decode and filter every "
            "block: decode, predicate and row building are all the work",
        ),
        Workload(
            "write-mix", "served", 20_000, 95, 800, 5,
            "50% selects, 25% inserts, 25% deletes: writer path, block "
            "re-encode and split, MVCC stash and publish beside reads",
        ),
        Workload(
            "durable-ingest", "durable", 20_000, 90, 0, 5,
            "library bulk load, 5-insert transactions with fsync commit, "
            "periodic checkpoints, crash and recovery: the only WAL user",
        ),
    )
}


def seeded_relation(workload: Workload, seed: int) -> Any:
    """The workload's seeded relation (a ``repro`` ``Relation``)."""
    from repro.workload.generator import RelationSpec, generate_relation

    return generate_relation(
        RelationSpec(
            num_tuples=workload.tuples,
            num_attributes=4,
            mean_domain_size=64,
            seed=seed,
        )
    )


def rows_of(relation: Any) -> List[Row]:
    return [tuple(int(v) for v in t) for t in relation]


def write_csv(path: str, names: Sequence[str], rows: Sequence[Row]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(rows)


def column_bounds(rows: Sequence[Row]) -> List[Tuple[int, int]]:
    """Observed (min, max) per column: the domains ``repro serve`` infers."""
    array = np.asarray(rows)
    return [(int(lo), int(hi)) for lo, hi in zip(array.min(0), array.max(0))]


def random_rows(
    rng: np.random.Generator, bounds: Sequence[Tuple[int, int]], count: int
) -> List[Row]:
    """``count`` rows drawn uniformly from the given per-column domains."""
    cols = [rng.integers(lo, hi + 1, size=count) for lo, hi in bounds]
    return [tuple(int(v) for v in r) for r in zip(*cols)]


def zipf_ranks(rng: np.random.Generator, n: int, s: float, count: int) -> np.ndarray:
    """``count`` ranks in ``[0, n)``; rank r is drawn with probability ~ (r+1)**-s."""
    weights = 1.0 / np.arange(1, n + 1) ** s
    return rng.choice(n, size=count, p=weights / weights.sum())


# ----------------------------------------------------------------------
# Served request streams and oracles
# ----------------------------------------------------------------------


def select_op(attribute: str, key: int) -> Dict[str, Any]:
    return {
        "op": "select",
        "table": "t",
        "predicates": [{"attribute": attribute, "lo": key, "hi": key}],
    }


def client_streams(
    workload: Workload, seed: int, names: Sequence[str], rows: Sequence[Row]
) -> List[List[Dict[str, Any]]]:
    """One request sequence per client, fixed by the seed."""
    rng = np.random.default_rng([seed, 0xBE7C])
    bounds = column_bounds(rows)
    # Seeded rank orders, one per ROTATE_OPS requests and shared by all
    # clients: the hot key moves with the seed and along the run, but
    # within a stretch every client favours the same one.
    keys = sorted({r[0] for r in rows})
    orders = [rng.permutation(keys)
              for _ in range(-(-OPS_PER_CLIENT // ROTATE_OPS))
              if workload.name == "point-hot"]
    streams = []
    for _ in range(CLIENTS):
        if workload.name == "point-hot":
            ranks = zipf_ranks(rng, len(keys), 1.2, OPS_PER_CLIENT)
            ops = [
                select_op(names[0], int(orders[i // ROTATE_OPS][r]))
                for i, r in enumerate(ranks)
            ]
        elif workload.name == "scan-cold":
            lo, hi = bounds[2]
            ops = [
                select_op(names[2], int(k))
                for k in rng.integers(lo, hi + 1, size=OPS_PER_CLIENT)
            ]
        else:  # write-mix
            kinds = rng.choice(4, size=OPS_PER_CLIENT)
            lo, hi = bounds[0]
            keys = rng.integers(lo, hi + 1, size=OPS_PER_CLIENT)
            fresh = random_rows(rng, bounds, OPS_PER_CLIENT)
            victims = rng.integers(0, len(rows), size=OPS_PER_CLIENT)
            ops = []
            for i, kind in enumerate(kinds):
                if kind < 2:
                    ops.append(select_op(names[0], int(keys[i])))
                elif kind == 2:
                    ops.append({"op": "insert", "table": "t", "row": list(fresh[i])})
                else:
                    ops.append(
                        {"op": "delete", "table": "t", "row": list(rows[victims[i]])}
                    )
        streams.append(ops)
    return streams


class ServedOracle:
    """Checks each served answer and keeps the model of the table."""

    def __init__(self, workload: Workload, rows: Sequence[Row]) -> None:
        self._exact = workload.name in ("point-hot", "scan-cold")
        self._initial = Counter(rows)
        column = 2 if workload.name == "scan-cold" else 0
        self._column = column
        self._expected: Dict[int, List[Row]] = {}
        if self._exact:
            groups: Dict[int, List[Row]] = defaultdict(list)
            for r in rows:
                groups[r[column]].append(r)
            self._expected = {k: sorted(v) for k, v in groups.items()}

    def check(
        self, op: Dict[str, Any], response: Dict[str, Any], delta: Counter
    ) -> bool:
        """Whether ``response`` is a right answer to ``op``.

        Acknowledged writes are applied to ``delta`` (one per client, so
        no lock is needed); the final table must equal initial + delta.
        """
        if response.get("status") != "ok":
            return False
        if op["op"] == "select":
            rows = [tuple(r) for r in response["rows"]]
            if response.get("count") != len(rows):
                return False
            key = op["predicates"][0]["lo"]
            if self._exact:
                return sorted(rows) == self._expected.get(key, [])
            return all(r[self._column] == key for r in rows)
        row = tuple(op["row"])
        if op["op"] == "insert":
            delta[row] += 1
        elif response.get("removed") is True:
            delta[row] -= 1
        elif response.get("removed") is not False:
            return False
        return True

    def expected_final(self, deltas: Sequence[Counter]) -> Counter:
        final = Counter(self._initial)
        for d in deltas:
            final.update(d)  # Counter.update adds (negative counts too)
        return +final


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return float(sorted_values[rank - 1])


def beyond(count: int, pct: float) -> int:
    """Samples above the nearest-rank ``pct`` percentile of ``count``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def latency_summary(samples: Sequence[float], pct: int) -> Dict[str, float]:
    values = sorted(samples)
    return {
        "p50_ms": percentile(values, 50),
        "tail_ms": percentile(values, pct),
        "tail_pct": pct,
        "samples": len(values),
        "beyond_tail": beyond(len(values), pct),
        "p90_ms": percentile(values, 90),
        "p99_ms": percentile(values, 99),
    }


def natural_tuple_bytes(domain_sizes: Sequence[int]) -> int:
    """Uncoded tuple width at natural int16-style fields (Fig 5.7 basis)."""
    from repro.core.runlength import TupleLayout

    return TupleLayout(domain_sizes, min_field_bytes=2).tuple_bytes


def read_proc_status(pid: int, key: str) -> float:
    """A ``kB`` field of ``/proc/<pid>/status`` in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return int(line.split()[1]) / 1024.0
    raise KeyError(key)


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest(root: str) -> str:
    """sha256 over the program's sources (the checkout may not be git)."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def host_cpu_times() -> Tuple[int, int, int]:
    """(busy, steal, total) jiffies of the host's CPUs, from ``/proc/stat``.

    Busy is user, nice, system, irq and softirq time; steal is time the
    hypervisor ran another guest while a CPU of this one had work to do.
    """
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    return sum(fields[i] for i in (0, 1, 2, 5, 6)), fields[7], sum(fields[:8])


def steal_dilation(before: Sequence[int], after: Sequence[int]) -> float:
    """How much steal stretched busy time between two ``host_cpu_times``.

    1 + steal / busy: with 1 s of work done and 0.25 s stolen while
    work waited, work took 1.25 times as long as on an unshared host.
    """
    busy, steal = after[0] - before[0], after[1] - before[1]
    return 1.0 + steal / busy if busy > 0 else 1.0


def provenance(root: str) -> Dict[str, Any]:
    """Host and build facts recorded with every result."""
    mem_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "memory_gib": round(mem_gib, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }
