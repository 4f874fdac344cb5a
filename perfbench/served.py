"""Drive ``python -m repro serve`` from its own process.

:class:`ServerProcess` launches the server on a benchmark-written CSV,
times set-up (launch until the ``ready`` probe answers true), and reads
the server's CPU and peak memory from ``/proc``.  :func:`run_load` drives
it from :data:`~workloads.CLIENTS` closed-loop connections: each sends
its next request only after the previous reply, because every caller of
the server waits for its answer.  The wire protocol is the program's own
client, ``repro.server.client.ReproClient``.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from workloads import READER_THREADS, ServedOracle, host_cpu_times, read_proc_status

HOST = "127.0.0.1"
LAUNCH_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0
WARMUP_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def server_flags() -> List[str]:
    """The ``repro serve`` flags every run uses (recorded as provenance)."""
    return ["--host", HOST, "--port", "0", "--reader-threads", str(READER_THREADS)]


class ServerProcess:
    """One ``repro serve`` process; a context manager that always stops it."""

    def __init__(
        self,
        root: str,
        csv_path: str,
        log_path: str,
        *,
        traced: bool = False,
    ) -> None:
        serve_args = ["serve", f"{csv_path}:t", *server_flags()]
        if traced:
            launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    "traced_serve.py")
            cmd = [sys.executable, "-u", launcher, *serve_args]
        else:
            cmd = [sys.executable, "-u", "-m", "repro", *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        self._log = open(log_path, "ab")
        t0 = time.perf_counter()
        self._proc = subprocess.Popen(
            cmd,
            stdin=subprocess.PIPE if traced else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=root,
        )
        try:
            self.port = self._await_listening(t0 + LAUNCH_TIMEOUT_S)
            self._await_ready(t0 + LAUNCH_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0

    @property
    def pid(self) -> int:
        return self._proc.pid

    def _await_listening(self, deadline: float) -> int:
        out = self._proc.stdout
        assert out is not None
        buf = b""
        while True:
            for line in buf.split(b"\n")[:-1]:
                if line.startswith(b"serving on "):
                    return int(line.split()[2].rsplit(b":", 1)[1])
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not start listening in time")
            ready, _, _ = select.select([out], [], [], remaining)
            if ready:
                chunk = os.read(out.fileno(), 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited during start-up (code {self._proc.wait()})"
                    )
                buf += chunk

    def _await_ready(self, deadline: float) -> None:
        from repro.server.client import ReproClient

        with ReproClient(HOST, self.port) as client:
            while not client.ready():
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never reported ready")
                time.sleep(0.002)

    def cpu_s(self) -> float:
        """User plus system CPU seconds of the server so far."""
        with open(f"/proc/{self.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / _CLK_TCK

    def peak_rss_mb(self) -> float:
        return read_proc_status(self.pid, "VmHWM")

    def mark(self, path: str) -> None:
        """Ask the traced launcher to write its span totals to ``path``."""
        stdin = self._proc.stdin
        assert stdin is not None
        stdin.write(f"mark {path}\n".encode())
        stdin.flush()
        deadline = time.perf_counter() + 30.0
        while not os.path.exists(path):
            if time.perf_counter() > deadline:
                raise RuntimeError("traced server did not write its spans")
            time.sleep(0.002)

    def stop(self) -> None:
        """SIGTERM, then wait for exit.

        Not SIGINT: a shell starts background jobs with SIGINT ignored,
        and the server would inherit that and never stop.
        """
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self._proc.kill()
        self._reap()

    def kill(self) -> None:
        """A crash: SIGKILL, nothing flushed or drained."""
        if self._proc.poll() is None:
            self._proc.kill()
        self._reap()

    def _reap(self) -> None:
        self._proc.wait()
        for pipe in (self._proc.stdin, self._proc.stdout):
            if pipe is not None:
                pipe.close()
        self._log.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


@dataclass
class Sample:
    start: float
    end: float
    op: str
    ok: bool


@dataclass
class LoadResult:
    samples: List[Sample]
    #: (time, server CPU seconds, ``host_cpu_times()``) at the start of
    #: the window and at the end of each of its slices.
    marks: List[Tuple[float, float, Tuple[int, int, int]]]
    client_cpu_s: float
    deltas: List[Counter]
    errors: List[str] = field(default_factory=list)

    @property
    def window_start(self) -> float:
        return self.marks[0][0]

    @property
    def window_end(self) -> float:
        return self.marks[-1][0]

    @property
    def window_s(self) -> float:
        return self.window_end - self.window_start

    @property
    def cpu_s(self) -> float:
        return self.marks[-1][1] - self.marks[0][1]

    def in_window(self, start: Optional[float] = None,
                  end: Optional[float] = None) -> List[Sample]:
        """Requests that started and finished inside the window (or a slice)."""
        start = self.window_start if start is None else start
        end = self.window_end if end is None else end
        return [s for s in self.samples if s.start >= start and s.end <= end]

    def completed_in_window(self, start: Optional[float] = None,
                            end: Optional[float] = None) -> List[Sample]:
        start = self.window_start if start is None else start
        end = self.window_end if end is None else end
        return [s for s in self.samples if start <= s.end <= end]


def run_load(
    server: ServerProcess,
    streams: Sequence[Sequence[Dict[str, Any]]],
    oracle: ServedOracle,
    *,
    warmup_ops: int,
    seconds: float,
    slices: int = 1,
    on_warmed: Optional[Callable[[], None]] = None,
    on_window_start: Optional[Callable[[], None]] = None,
    on_window_end: Optional[Callable[[], None]] = None,
) -> LoadResult:
    """Closed-loop clients: a fixed warm-up, then a measured window.

    Each client sends the first ``warmup_ops`` requests of its stream
    unmeasured and waits; ``on_warmed`` runs while every client waits, so
    it sees the table after exactly those requests.  Then all clients go
    on for ``seconds``, cut into ``slices`` equal slices; the server's CPU
    time is read at each boundary.
    """
    from repro.errors import ReproError
    from repro.server.client import ReproClient

    stop = threading.Event()
    samples: List[List[Sample]] = [[] for _ in streams]
    deltas = [Counter() for _ in streams]
    errors: List[str] = []
    warmed = threading.Barrier(len(streams) + 1)
    go = threading.Barrier(len(streams) + 1)

    def client_loop(i: int) -> None:
        out, delta = samples[i], deltas[i]
        with ReproClient(HOST, server.port, timeout=60.0, raise_errors=False) as client:
            for n, op in enumerate(streams[i]):
                if n == warmup_ops:
                    try:
                        warmed.wait()
                        go.wait()
                    except threading.BrokenBarrierError:
                        return
                if stop.is_set():
                    return
                t0 = time.perf_counter()
                try:
                    response = client.request(op)
                except (OSError, ReproError) as exc:
                    out.append(Sample(t0, time.perf_counter(), op["op"], False))
                    errors.append(f"client {i}: {type(exc).__name__}: {exc}")
                    warmed.abort()
                    return
                t1 = time.perf_counter()
                out.append(Sample(t0, t1, op["op"], oracle.check(op, response, delta)))
            errors.append(f"client {i}: request stream exhausted")
            warmed.abort()

    threads = [
        threading.Thread(target=client_loop, args=(i,), daemon=True)
        for i in range(len(streams))
    ]
    for t in threads:
        t.start()
    try:
        try:
            warmed.wait(timeout=WARMUP_TIMEOUT_S)
        except threading.BrokenBarrierError:
            raise RuntimeError(
                "the clients did not finish their warm-up: " + "; ".join(errors)
            ) from None
        if on_warmed is not None:
            on_warmed()
        if on_window_start is not None:
            on_window_start()
        client0 = time.process_time()
        go.wait(timeout=10.0)
        start = time.perf_counter()
        marks = [(start, server.cpu_s(), host_cpu_times())]
        for i in range(1, slices + 1):
            time.sleep(max(0.0, start + seconds * i / slices - time.perf_counter()))
            marks.append((time.perf_counter(), server.cpu_s(), host_cpu_times()))
        client1 = time.process_time()
        if on_window_end is not None:
            on_window_end()
    finally:
        stop.set()
        go.abort()
        for t in threads:
            t.join(timeout=120.0)
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a client did not finish its last request")
    return LoadResult(
        samples=[s for per in samples for s in per],
        marks=marks,
        client_cpu_s=client1 - client0,
        deltas=deltas,
        errors=errors,
    )
