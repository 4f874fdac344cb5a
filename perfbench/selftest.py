"""Fast self-test of the benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py [--seconds 2] [--workload NAME ...]

For every workload it runs ``run.py`` briefly with ``--trace 0`` and
``--trace 1`` and checks that the last line is the result object, that
every oracle passed (``correct``, no failed operation), and that exactly
the metrics named in ``BENCHMARK.json`` are emitted with their units.
End-to-end values must be positive.  Finally it checks that the benchmark
refuses to run, without printing a result, in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.  Exits 0 when all pass.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Any, Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def _run(cwd: str, workload: str, seconds: float, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def _check_result(spec: Dict[str, Any], workload: str, trace: int,
                  proc: subprocess.CompletedProcess) -> List[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: oracle failed: {result['failed']} of "
                        f"{result['attempted']} failed, correct={result['correct']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(units) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(units))}")
    for name, entry in metrics.items():
        value = entry.get("value")
        if entry.get("unit") != units.get(name):
            problems.append(f"{where}: {name} unit {entry.get('unit')!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
        elif not trace and value <= 0:
            problems.append(f"{where}: {name} = {value} (must be positive)")
    return problems


def _check_refuses_without_program() -> List[str]:
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "point-hot", 1, 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return ["benchmark ran without the program's sources"]
    return []


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    problems = _check_refuses_without_program()
    for workload in workloads:
        for trace in (0, 1):
            found = _check_result(spec, workload, trace,
                                  _run(ROOT, workload, args.seconds, trace))
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
