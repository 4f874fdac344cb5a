"""The repository benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload point-hot --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` and ``README.md``): ``point-hot``,
``scan-cold`` and ``write-mix`` start ``python -m repro serve`` in its own
process on a CSV written from the seeded relation and drive it over two
closed-loop connections; ``durable-ingest`` drives the library's durable
table API in a child process.  Every answer is checked against an oracle
computed from the seeded inputs.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once with the program's public calls wrapped
in spans, and reports the per-layer metrics instead.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A full record (provenance, every metric, the per-layer report) is also
written under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

from hostspeed import REFERENCE_UNIT_MS, SpeedProbe  # noqa: E402
from workloads import (  # noqa: E402  (after the path constants)
    BLOCK_SIZE,
    CLIENTS,
    WORKLOADS,
    ServedOracle,
    Workload,
    client_streams,
    host_cpu_times,
    latency_summary,
    natural_tuple_bytes,
    provenance,
    rows_of,
    seeded_relation,
    steal_dilation,
    write_csv,
)

#: Server launches before and after the measured one (which also counts);
#: set-up time is the median of all of them.
SETUP_LAUNCHES_EACH_SIDE = 2
CHILD_TIMEOUT_S = 170.0


#: Timings that scale with the host's speed: CPU time, wall-clock times
#: and rates.  Steal stretches only the wall-clock ones.
_CPU_TIMES = ("server_cpu_ms_per_op",)
_WALL_TIMES = ("setup_s", "p50_ms", "tail_ms")
_WALL_RATES = ("qps",)


def _scaled(values: Dict[str, float], speed: float,
            dilation: float) -> Dict[str, float]:
    """``values`` at the reference host speed on an unshared host.

    Times are multiplied by the host speed and rates divided by it: on a
    host at 0.5 of the reference speed a 10 ms time reads 5 ms (see
    ``hostspeed.py``).  Wall-clock times are also divided by the steal
    dilation, and rates multiplied by it (see ``steal_dilation``).
    """
    out = dict(values)
    for name in _CPU_TIMES:
        out[name] *= speed
    for name in _WALL_TIMES:
        if name in out:
            out[name] *= speed / dilation
    for name in _WALL_RATES:
        out[name] *= dilation / speed
    return out


def _run_speed(record: Dict[str, Any], probe: SpeedProbe,
               host0: Tuple[int, int, int]) -> Tuple[float, float]:
    """Host speed and steal dilation over the whole run, both recorded."""
    speed = probe.speed()
    if speed is None:
        raise RuntimeError("the host speed probe reported too few units")
    units = probe.units_ms()
    record["host_speed"] = speed
    record["steal_dilation"] = steal_dilation(host0, host_cpu_times())
    record["probe"] = {
        "units": len(units),
        "median_ms": statistics.median(units),
        "quartiles_ms": statistics.quantiles(units, n=4),
        "reference_ms": REFERENCE_UNIT_MS,
    }
    return speed, record["steal_dilation"]


# ----------------------------------------------------------------------
# Served workloads
# ----------------------------------------------------------------------


def _stored_bytes_per_user_byte(client: Any) -> float:
    """Data blocks x block size per live tuple at natural width."""
    table = client.stats()["tables"]["t"]
    sizes = [a["size"] for a in client.schema("t")["attributes"]]
    return table["blocks"] * BLOCK_SIZE / (table["tuples"] * natural_tuple_bytes(sizes))


def _final_state(
    server: Any, workload: Workload, oracle: ServedOracle, load: Any, rows: List
) -> Tuple[Dict[str, Any], List[Tuple[str, bool]]]:
    """Table stats and the end-of-run oracle checks."""
    from repro.server.client import ReproClient
    from served import HOST

    with ReproClient(HOST, server.port, timeout=60.0) as client:
        stats = client.stats()
        table = stats["tables"]["t"]
        if workload.name == "write-mix":
            expected = oracle.expected_final(load.deltas)
            scan = client.request({"op": "select", "table": "t", "predicates": []})
            found = Counter(tuple(r) for r in scan["rows"])
            checks = [(
                "final table = initial + acknowledged inserts - removed deletes",
                found == expected and table["tuples"] == sum(expected.values()),
            )]
        else:
            checks = [("tuple count unchanged", table["tuples"] == len(rows))]
    table["admission"] = stats["admission"]
    return table, checks


def _slice_summary(load: Any, workload: Workload,
                   probe: Optional[SpeedProbe]) -> Dict[str, Any]:
    """The timing metrics of each slice of the window, and their medians.

    With a probe, each slice is also scaled by the host speed and the
    steal measured during that slice, so that changes within the run
    cancel.
    """
    names = ("qps", "server_cpu_ms_per_op", "p50_ms", "tail_ms")
    per = []
    for (t0, c0, h0), (t1, c1, h1) in zip(load.marks, load.marks[1:]):
        completed = load.completed_in_window(t0, t1)
        latency = latency_summary(
            [(s.end - s.start) * 1000.0 for s in load.in_window(t0, t1)],
            workload.tail_pct,
        )
        raw = {
            "qps": sum(s.ok for s in completed) / (t1 - t0),
            "server_cpu_ms_per_op": (c1 - c0) * 1000.0 / max(1, len(completed)),
            "p50_ms": latency["p50_ms"],
            "tail_ms": latency["tail_ms"],
        }
        entry = {**raw, "samples": latency["samples"],
                 "beyond_tail": latency["beyond_tail"]}
        if probe is not None:
            speed = probe.speed(t0, t1) or probe.speed()
            dilation = steal_dilation(h0, h1)
            entry.update(speed=speed, steal_dilation=dilation,
                         scaled=_scaled(raw, speed, dilation))
        per.append(entry)
    out: Dict[str, Any] = {k: statistics.median(p[k] for p in per) for k in names}
    if probe is not None:
        out["scaled"] = {k: statistics.median(p["scaled"][k] for p in per)
                         for k in names}
    out.update({
        "slices": len(per),
        "slice_min_samples": min(p["samples"] for p in per),
        "slice_min_beyond_tail": min(p["beyond_tail"] for p in per),
        "per_slice": per,
    })
    return out


def _summarise_load(load: Any, workload: Workload,
                    probe: Optional[SpeedProbe] = None) -> Dict[str, Any]:
    window = load.in_window()
    completed = load.completed_in_window()
    out: Dict[str, Any] = {
        "qps": sum(s.ok for s in completed) / load.window_s,
        "server_cpu_ms_per_op": load.cpu_s * 1000.0 / max(1, len(completed)),
        "sliced": _slice_summary(load, workload, probe),
        "latency": latency_summary([(s.end - s.start) * 1000.0 for s in window],
                                   workload.tail_pct),
        "mean_latency_ms": statistics.fmean((s.end - s.start) * 1000.0 for s in window),
        "window_ops": len(completed),
        "client_cpu_ms_per_op": load.client_cpu_s * 1000.0 / max(1, len(completed)),
        "attempted": len(load.samples),
        "failed": sum(not s.ok for s in load.samples),
        "client_errors": load.errors,
    }
    for kind, ops in (("read", ("select",)), ("write", ("insert", "delete"))):
        lat = [(s.end - s.start) * 1000.0 for s in window if s.op in ops]
        if lat:
            out[kind] = latency_summary(lat, workload.tail_pct)
    return out


def run_served(workload: Workload, seed: int, seconds: float, trace: bool,
               work: str) -> Dict[str, Any]:
    from repro.server.client import ReproClient
    from served import HOST, ServerProcess, run_load, server_flags

    relation = seeded_relation(workload, seed)
    rows = rows_of(relation)
    csv_path = os.path.join(work, "t.csv")
    write_csv(csv_path, relation.schema.names, rows)
    streams = client_streams(workload, seed, relation.schema.names, rows)
    oracle = ServedOracle(workload, rows)
    log = os.path.join(work, "server.log")
    record: Dict[str, Any] = {
        "server_cli": ["python", "-m", "repro", "serve", "t.csv:t", *server_flags()],
        "flush_policy": "none: repro serve keeps tables in memory with no log",
        "clients": CLIENTS,
        "loop": "closed",
        "warmup_ops_per_client": workload.warmup_ops,
        "csv_bytes": os.path.getsize(csv_path),
    }

    def measure(server: ServerProcess, window_s: float = seconds,
                probe: Optional[SpeedProbe] = None, **hooks: Any) -> Dict[str, Any]:
        stored: List[float] = []

        def on_warmed() -> None:
            # After the fixed warm-up, so that write-mix splits show but
            # do not depend on how many writes the window fits.
            with ReproClient(HOST, server.port, timeout=60.0) as client:
                stored.append(_stored_bytes_per_user_byte(client))

        load = run_load(server, streams, oracle, warmup_ops=workload.warmup_ops,
                        seconds=window_s, slices=workload.slices,
                        on_warmed=on_warmed, **hooks)
        table, checks = _final_state(server, workload, oracle, load, rows)
        summary = _summarise_load(load, workload, probe)
        summary["table"] = table
        summary["checks"] = checks
        summary["attempted"] += len(checks)
        summary["failed"] += sum(not ok for _, ok in checks)
        table["stored_bytes"] = table["blocks"] * BLOCK_SIZE
        summary["stored_bytes_per_user_byte"] = stored[0]
        summary["peak_rss_mb"] = server.peak_rss_mb()
        return summary

    if not trace:
        # Launches on both sides of the window, so that set-up is sampled
        # across the run rather than in one stretch of host conditions.
        setups = []
        host0 = host_cpu_times()
        with SpeedProbe() as probe:
            for _ in range(SETUP_LAUNCHES_EACH_SIDE):
                with ServerProcess(ROOT, csv_path, log) as server:
                    setups.append(server.setup_s)
            with ServerProcess(ROOT, csv_path, log) as server:
                setups.append(server.setup_s)
                run = measure(server, probe=probe)
            for _ in range(SETUP_LAUNCHES_EACH_SIDE):
                with ServerProcess(ROOT, csv_path, log) as server:
                    setups.append(server.setup_s)
        record.update(run)
        record["setup_samples_s"] = setups
        speed, dilation = _run_speed(record, probe, host0)
        sliced = run["sliced"]
        raw = {
            "setup_s": statistics.median(setups),
            "qps": sliced["qps"],
            "server_cpu_ms_per_op": sliced["server_cpu_ms_per_op"],
            "p50_ms": sliced["p50_ms"],
            "tail_ms": sliced["tail_ms"],
            "stored_bytes_per_user_byte": run["stored_bytes_per_user_byte"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        record["raw_metrics"] = raw
        # Set-up is scaled by the whole run's speed, the window slice by slice.
        record["metrics"] = {**raw, "setup_s": raw["setup_s"] * speed / dilation,
                             **sliced["scaled"]}
        return record

    import spans
    from layers import per_layer_metrics, report

    with ServerProcess(ROOT, csv_path, log) as server:
        # Only its CPU per op is used (the tracing overhead), which does
        # not need the full window.
        untraced = measure(server, seconds / 2)
    client_rec = spans.Recorder()
    spans.instrument_client(client_rec)
    marks: Dict[str, Any] = {}

    def window_start() -> None:
        server.mark(os.path.join(work, "mark1.json"))
        marks["client0"] = client_rec.snapshot()

    def window_end() -> None:
        server.mark(os.path.join(work, "mark2.json"))
        marks["client1"] = client_rec.snapshot()

    with ServerProcess(ROOT, csv_path, log, traced=True) as server:
        server.mark(os.path.join(work, "mark0.json"))
        traced = measure(server, on_window_start=window_start,
                         on_window_end=window_end)

    def load_mark(i: int) -> Dict[str, Any]:
        with open(os.path.join(work, f"mark{i}.json"), encoding="utf-8") as fh:
            return json.load(fh)

    phases = {
        "setup": load_mark(0),
        "window": spans.diff(load_mark(2), load_mark(1)),
    }
    phases["client"] = spans.diff(marks["client1"], marks["client0"])
    ops = traced["window_ops"]
    record["untraced"] = untraced
    record["traced"] = traced
    record["attempted"] = untraced["attempted"] + traced["attempted"]
    record["failed"] = untraced["failed"] + traced["failed"]
    record["client_errors"] = untraced["client_errors"] + traced["client_errors"]
    record["report"] = report(phases, ops, traced["mean_latency_ms"])
    record["metrics"] = per_layer_metrics(
        setup=phases["setup"],
        window=phases["window"],
        client=phases["client"],
        ops=ops,
        latency_ms=traced["mean_latency_ms"],
        cpu_ms_per_op_traced=traced["server_cpu_ms_per_op"],
        cpu_ms_per_op_untraced=untraced["server_cpu_ms_per_op"],
        mvcc_versions=traced["table"].get("versions", 0),
        mvcc_pinned=traced["table"].get("pinned_snapshots", 0),
    )
    return record


# ----------------------------------------------------------------------
# durable-ingest
# ----------------------------------------------------------------------


def _run_durable_child(seed: int, seconds: float, work: str,
                       trace_out: Optional[str]) -> Dict[str, Any]:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "durable.py"),
           "--seed", str(seed), "--seconds", str(seconds), "--work", work]
    if trace_out is not None:
        cmd += ["--trace", trace_out]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"durable-ingest child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _summarise_durable(child: Dict[str, Any], workload: Workload) -> Dict[str, Any]:
    user_bytes = child["live_tuples"] * natural_tuple_bytes(child["domain_sizes"])
    commits = child["commits"]
    checks, failed = [], 0
    for c in child.pop("checks"):
        exact = (c["unexpected_rows"] == 0
                 and c["recovered_tuples"] == c["expected_tuples"])
        checks += [
            (f"every row acknowledged by the {c['label']} recovered",
             c["missing_acked_rows"] == 0),
            (f"table after the {c['label']} = bulk load + acknowledged inserts",
             exact),
        ]
        # Each missing row belongs to at most one acknowledged transaction.
        failed += min(c["acked_transactions"], c["missing_acked_rows"]) + (not exact)
    # The window's commits, in order, cut into equal runs: the latency
    # metrics are the median over the runs, as over the served slices.
    lat = child["latencies_ms"]
    cuts = [len(lat) * i // workload.slices for i in range(workload.slices + 1)]
    per = [latency_summary(lat[a:b], workload.tail_pct)
           for a, b in zip(cuts, cuts[1:])]
    sliced = {
        "p50_ms": statistics.median(p["p50_ms"] for p in per),
        "tail_ms": statistics.median(p["tail_ms"] for p in per),
        "slices": len(per),
        "slice_min_samples": min(p["samples"] for p in per),
        "slice_min_beyond_tail": min(p["beyond_tail"] for p in per),
    }
    return {
        **child,
        "sliced": sliced,
        "latency": latency_summary(lat, workload.tail_pct),
        "mean_latency_ms": statistics.fmean(child["latencies_ms"]),
        "qps": commits / child["window_s"],
        "server_cpu_ms_per_op": child["cpu_s"] * 1000.0 / commits,
        "stored_bytes_per_user_byte": child["blocks"] * BLOCK_SIZE / user_bytes,
        "wal_bytes_per_user_byte": child["wal_bytes"] / user_bytes,
        "checks": checks,
        "attempted": child["fixed_commits"] + commits + len(checks),
        "failed": failed,
        "client_errors": [],
    }


def run_durable(workload: Workload, seed: int, seconds: float, trace: bool,
                work: str) -> Dict[str, Any]:
    from durable import CHECKPOINT_EVERY, TXN_ROWS

    record: Dict[str, Any] = {
        "flush_policy": "fsync on every commit (wal_sync=True, the default)",
        "checkpoint_every_commits": CHECKPOINT_EVERY,
        "txn_rows": TXN_ROWS,
    }
    if not trace:
        host0 = host_cpu_times()
        with SpeedProbe() as probe:
            child = _run_durable_child(seed, seconds, work, None)
        run = _summarise_durable(child, workload)
        run.pop("latencies_ms")
        record.update(run)
        record["recovery_median_s"] = statistics.median(run["recovery_s"])
        raw = {
            "setup_s": statistics.median(run["setup_s"]),
            "qps": run["qps"],
            "server_cpu_ms_per_op": run["server_cpu_ms_per_op"],
            "p50_ms": run["sliced"]["p50_ms"],
            "tail_ms": run["sliced"]["tail_ms"],
            "stored_bytes_per_user_byte": run["stored_bytes_per_user_byte"],
            "peak_rss_mb": run["peak_rss_mb"],
        }
        record["raw_metrics"] = raw
        record["metrics"] = _scaled(raw, *_run_speed(record, probe, host0))
        return record

    import spans
    from layers import per_layer_metrics, report

    untraced = _summarise_durable(
        _run_durable_child(seed, seconds / 2, work, None), workload
    )
    trace_out = os.path.join(work, "spans.json")
    traced = _summarise_durable(
        _run_durable_child(seed, seconds, work, trace_out), workload
    )
    for run in (untraced, traced):
        run.pop("latencies_ms")
    with open(trace_out, encoding="utf-8") as fh:
        marks = json.load(fh)
    phases = {
        "setup": marks["setup"],
        "recovery": spans.diff(marks["recovered"], marks["setup"]),
        "window": spans.diff(marks["window"], marks["recovered"]),
    }
    ops = traced["commits"]
    record["untraced"] = untraced
    record["traced"] = traced
    record["attempted"] = untraced["attempted"] + traced["attempted"]
    record["failed"] = untraced["failed"] + traced["failed"]
    record["client_errors"] = []
    record["report"] = report(phases, ops, traced["mean_latency_ms"])
    record["metrics"] = per_layer_metrics(
        setup=phases["setup"],
        window=phases["window"],
        recovery=phases["recovery"],
        ops=ops,
        latency_ms=traced["mean_latency_ms"],
        cpu_ms_per_op_traced=traced["server_cpu_ms_per_op"],
        cpu_ms_per_op_untraced=untraced["server_cpu_ms_per_op"],
    )
    return record


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def _print_summary(workload: Workload, record: Dict[str, Any], trace: bool,
                   units: Dict[str, str]) -> None:
    print(f"workload {workload.name} seed {record['seed']} "
          f"seconds {record['seconds']} trace {int(trace)}")
    if trace:
        for line in record["report"]:
            print(line)
        return
    for name, unit in units.items():
        print(f"  {name} = {record['metrics'][name]:.6g} {unit}")
    probe = record["probe"]
    print(f"  timings scaled to the reference host speed; this host ran at "
          f"{record['host_speed']:.4g} of it (probe median {probe['median_ms']:.4g} ms "
          f"of {probe['units']} units, reference {probe['reference_ms']:.4g} ms), "
          f"and steal stretched its wall-clock times {record['steal_dilation']:.4g}x")
    print("  unscaled: " + "  ".join(
        f"{name} = {record['raw_metrics'][name]:.6g} {units[name]}"
        for name in (*_CPU_TIMES, *_WALL_TIMES, *_WALL_RATES)))
    lat = record["latency"]
    if "sliced" in record:
        sl = record["sliced"]
        what = "latencies" if workload.kind == "durable" else "timings"
        print(f"  {what} are medians over {sl['slices']} slices of the window; "
              f"tail_ms is p{lat['tail_pct']}, each slice has >= "
              f"{sl['slice_min_samples']} samples ({sl['slice_min_beyond_tail']} "
              f"beyond it); whole window: {lat['samples']} samples")
    else:
        print(f"  tail_ms is p{lat['tail_pct']} of {lat['samples']} samples "
              f"({lat['beyond_tail']} beyond it)")
    for kind in ("read", "write"):
        if kind in record:
            k = record[kind]
            print(f"  {kind}_p50_ms = {k['p50_ms']:.6g} ms  {kind}_tail_ms = "
                  f"{k['tail_ms']:.6g} ms (p{k['tail_pct']} of {k['samples']})")
    if "wal_bytes_per_user_byte" in record:
        print(f"  wal_bytes_per_user_byte = {record['wal_bytes_per_user_byte']:.6g} ratio")
        print(f"  recovery_s = {record['recovery_median_s']:.6g} s")
    print(f"  failed_frac = {record['failed'] / record['attempted']:.6g} "
          f"({record['failed']} of {record['attempted']})")
    for label, ok in record["checks"]:
        print(f"  oracle: {label}: {'ok' if ok else 'FAILED'}")


def _steal_since(host0: Tuple[int, int, int]) -> float:
    _, steal, total = host_cpu_times()
    return (steal - host0[1]) / max(1, total - host0[2])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program sources at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.dont_write_bytecode = True
    # Unwind on SIGTERM too, so servers and scratch files are cleaned up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    started = time.time()
    host0 = host_cpu_times()
    try:
        runner = run_durable if workload.kind == "durable" else run_served
        record = runner(workload, args.seed, args.seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update({
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(trace),
        "tuples": workload.tuples,
        "tail_pct": workload.tail_pct,
        "wall_s": time.time() - started,
        # CPU time the hypervisor gave to other guests: a noisy-host flag.
        "host_steal_frac": _steal_since(host0),
        "provenance": provenance(ROOT),
    })
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(
        out_dir, f"{workload.name}-seed{args.seed}-trace{int(trace)}-{int(started)}.json"
    )
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)

    # BENCHMARK.json names the metrics, their order and their units.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    _print_summary(workload, record, trace, units)
    print("provenance " + json.dumps(record["provenance"]))
    print(f"record -> {os.path.relpath(out_path, ROOT)}")
    correct = record["failed"] == 0 and not record["client_errors"]
    result = {
        "correct": correct,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
