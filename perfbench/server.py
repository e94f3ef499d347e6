"""Spawning, probing and stopping ``repro serve`` child processes.

The server is started with setsid, so it and its forked pool workers
share one process group: CPU time and peak memory are summed over that
group from ``/proc``, and a server that will not stop is killed as a group.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

monotonic = time.monotonic
_TICK = os.sysconf("SC_CLK_TCK")


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    metrics_port: Optional[int]
    spawned_at: float
    work: Path

    @property
    def pid(self) -> int:
        return self.proc.pid


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def spawn(root: Path, argv: List[str], env: Dict[str, str], work: Path,
          port: int, metrics_port: Optional[int]) -> Server:
    """Start ``python3 <argv>`` in ``root`` as a process-group leader,
    logging to ``work/server.log``."""
    log = open(work / "server.log", "wb")
    try:
        spawned_at = monotonic()
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=root, env=env, stdout=log,
            stderr=subprocess.STDOUT, start_new_session=True,
        )
    finally:
        log.close()
    return Server(proc, port, metrics_port, spawned_at, work)


def connect(server: Server, timeout_s: float):
    """A ``ServingClient`` once the server listens (polled every 2 ms)."""
    from repro.serving import ServingClient

    deadline = monotonic() + timeout_s
    while True:
        if server.proc.poll() is not None:
            raise RuntimeError(
                f"server exited with code {server.proc.returncode} before "
                f"listening; see {server.work / 'server.log'}"
            )
        try:
            return ServingClient("127.0.0.1", server.port, timeout_s=60.0)
        except OSError:
            if monotonic() > deadline:
                raise RuntimeError(f"server did not listen within {timeout_s} s")
            time.sleep(0.002)


def group_pids(pgid: int) -> List[int]:
    """Live processes of a process group (the server and its workers)."""
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is not None and int(fields[2]) == pgid and fields[0] != "Z":
            pids.append(int(entry))
    return pids


def _stat_fields(pid: int) -> Optional[List[str]]:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            text = handle.read()
    except OSError:
        return None
    # Fields after the parenthesised command name, starting at "state".
    return text.rsplit(")", 1)[1].split()


def cpu_seconds(pgid: int) -> float:
    """User plus system CPU of a process group, including reaped children."""
    total = 0
    for pid in group_pids(pgid):
        fields = _stat_fields(pid)
        if fields is not None:
            total += sum(int(v) for v in fields[11:15])
    return total / _TICK


def peak_rss_mb(pgid: int) -> float:
    """Sum of VmHWM over the live processes of a group."""
    total_kb = 0
    for pid in group_pids(pgid):
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def stop(server: Server, timeout_s: float = 30.0) -> float:
    """SIGINT the server; seconds until it exited.  Kills the group if it
    has not exited within ``timeout_s`` (and then raises)."""
    started = monotonic()
    server.proc.send_signal(signal.SIGINT)
    try:
        server.proc.wait(timeout_s)
    except subprocess.TimeoutExpired:
        kill_group(server)
        raise RuntimeError(f"server ignored SIGINT for {timeout_s} s; killed")
    elapsed = monotonic() - started
    kill_group(server)
    return elapsed


def kill_group(server: Server) -> None:
    """SIGKILL whatever is left of the server's group and wait for it."""
    try:
        os.killpg(server.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    if server.proc.returncode is None:
        server.proc.wait()
    deadline = monotonic() + 10.0
    while group_pids(server.pid) and monotonic() < deadline:
        time.sleep(0.01)
