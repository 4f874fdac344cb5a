"""Host speed probe: a fixed piece of CPU work, timed in thread-CPU time.

The reference host is a shared VM whose CPUs change speed for minutes at
a time: in one such phase every timing of the program, CPU time per
operation included, doubled together with the time of a fixed loop.  A
benchmark run therefore measures the host's speed beside the program,
with this probe, and scales its timings to the reference speed.

Run as a child process for the length of a benchmark run::

    python3 perfbench/hostspeed.py

It repeats a fixed work unit every :data:`PERIOD_S` seconds and prints
the unit's thread-CPU milliseconds, one line per unit, until it is
terminated.  Thread-CPU time leaves out time the probe waits for a CPU,
so it follows how fast the host executes, not how busy the benchmark
keeps it.  The unit mixes interpreter work, numpy over an array larger
than the L2 cache, and a JSON round trip, like the program's own mix.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

#: Seconds between the starts of two work units (a few percent of one CPU).
PERIOD_S = 0.2
#: Fewest units a stretch of time needs for its own speed.
MIN_UNITS = 5
#: Thread-CPU milliseconds of one work unit at the reference speed: set so
#: that the served workloads' scaled timings in the slow phase of the
#: reference host (2 vCPU Intel Xeon VM, Python 3.11, numpy 2.4) match
#: their unscaled timings in its fast phase.
REFERENCE_UNIT_MS = 5.9

_ROWS = [[i, i * 7 % 64, i % 13, i % 5] for i in range(2000)]
_ARRAY = np.arange(1 << 18, dtype=np.int64)
_ORDER = np.random.default_rng(0).permutation(1 << 18)


def work_unit() -> float:
    """One fixed unit of work; returns its thread-CPU milliseconds."""
    t0 = time.thread_time()
    x = 0
    for i in range(30_000):
        x += i * i
    gathered = _ARRAY[_ORDER]
    x += int(np.cumsum(gathered * 3 + 1)[-1])
    x += len(json.loads(json.dumps(_ROWS)))
    return (time.thread_time() - t0) * 1000.0


class SpeedProbe:
    """The probe as a child process; a context manager that always stops it."""

    def __init__(self) -> None:
        #: (arrival time on this process's ``perf_counter``, unit ms).
        self._units: List[Tuple[float, float]] = []
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            self._units.append((time.perf_counter(), float(line)))

    def stop(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait()
        self._reader.join(timeout=10.0)
        if self._proc.stdout is not None:
            self._proc.stdout.close()

    def units_ms(self, start: float = float("-inf"),
                 end: float = float("inf")) -> List[float]:
        """Units that ended between ``start`` and ``end`` (``perf_counter``)."""
        return [ms for t, ms in list(self._units) if start <= t <= end]

    def speed(self, start: float = float("-inf"),
              end: float = float("inf")) -> Optional[float]:
        """Host speed relative to the reference between ``start`` and
        ``end``: < 1 on a slower host; None with fewer than MIN_UNITS units."""
        units = self.units_ms(start, end)
        if len(units) < MIN_UNITS:
            return None
        return REFERENCE_UNIT_MS / statistics.median(units)

    def __enter__(self) -> "SpeedProbe":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def main() -> int:
    work_unit()  # first-call effects (imports, page faults) are not timed
    while True:
        started = time.perf_counter()
        print(f"{work_unit():.4f}", flush=True)
        time.sleep(max(0.0, started + PERIOD_S - time.perf_counter()))


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (KeyboardInterrupt, BrokenPipeError):
        sys.exit(0)
