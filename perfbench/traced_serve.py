"""Run ``repro serve`` with its public calls wrapped in spans.

Usage::

    python3 perfbench/traced_serve.py serve data.csv:t --port 0 ...

The arguments are handed unchanged to ``repro.cli.main``.  Spans stay in
memory; each line ``mark PATH`` read from standard input writes the span
totals so far to ``PATH``.  The benchmark marks the server ready, the
start and the end of its measured window this way.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from typing import Any, Dict

import spans


def _write_json(path: str, payload: Dict[str, Any]) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    os.replace(tmp, path)


def _serve_marks(rec: spans.Recorder) -> None:
    for line in sys.stdin:
        command, _, path = line.strip().partition(" ")
        if command == "mark" and path:
            _write_json(path, rec.snapshot())


def main() -> int:
    rec = spans.Recorder()
    spans.instrument(rec)
    import repro.cli

    # Daemon: it blocks on stdin and must not keep the process alive.
    threading.Thread(target=_serve_marks, args=(rec,), daemon=True).start()
    return repro.cli.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
