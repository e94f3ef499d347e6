"""``repro serve`` with the benchmark's timing wrappers installed.

Usage: ``python3 perfbench/serve_traced.py SPAN_DIR serve [serve flags]``.
The wrappers go in before the CLI runs, so the server's threads and its
forked pool workers all record; each process writes its spans to
``SPAN_DIR`` when it exits.  The kernel profiler is switched on here too,
so kernel totals are recorded even under ``--no-profile-kernels`` (with
the flag on, the CLI and the pool workers install their own profilers,
whose records reach the same hook).
"""

from __future__ import annotations

import sys
from pathlib import Path

from tracing import Recorder, install_server


def main() -> int:
    recorder = Recorder(Path(sys.argv[1]), role="server")
    install_server(recorder)
    from repro.cli import main as cli_main
    from repro.nn.backend import enable_kernel_profiler

    enable_kernel_profiler()

    try:
        return cli_main(sys.argv[2:])
    finally:
        recorder.dump()


if __name__ == "__main__":
    sys.exit(main())
