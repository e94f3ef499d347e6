"""Benchmark ``repro serve`` over TCP, end to end or layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_plain --seed 1 --seconds 20 --trace 0

One run spawns ``repro serve`` as a child process and drives it from this
process over two ``ServingClient`` connections, in alternating open and
closed phases that add up to ``--seconds / 2`` each.  Between the blocks
it times further spawns of the server to its first verdict.  Every ``ok``
verdict is checked against in-process scoring and every phase is
reconciled with the server's own counters.  The last line of standard
output is the result: ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the run's stamp (source digest, host, BLAS,
workload).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload once plainly and once with timing wrappers in this process, the
server and its pool workers, and reports the per-layer metrics.

Exit codes: 0 on a correct run, 1 when the correctness gate, the outcome
accounting or (traced) the trace checks failed (the result is still
printed), 2 when the run could not be made (no result).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import bundles
import checks
import server as srv
from workloads import FRAME_POOL, LATENCY_LIMIT_MS, WORKLOADS, Workload

#: Open/closed phase pairs per pass.  Untraced runs time one more spawn
#: before each block, so ``setup_s`` is the median of ``BLOCKS + 1``
#: spawns spread over the run, and ``goodput_fps`` the median over the
#: closed phases: a host stall of a few seconds moves neither.
BLOCKS = 8
#: Longest a server may take from spawn to listening.
LISTEN_TIMEOUT_S = 120.0
#: Unmeasured closed-loop traffic before the phases: a fresh server runs
#: its first seconds markedly slower (about 35 instead of 50 frames/s on
#: ``paper_plain`` on a 2-vCPU host), which users of a long-running server
#: never see.
WARMUP_S = 3.0

monotonic = time.monotonic


@dataclass
class Pass:
    """The phases run against one server, and its shutdown."""

    shutdown_s: float = 0.0
    phases: list = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    server_cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    scrape_s: List[float] = field(default_factory=list)
    telemetry_bytes: int = 0

    def named(self, name: str):
        return [p for p in self.phases if p.name == name]

    def records(self, name: Optional[str] = None):
        return [r for p in self.phases if name in (None, p.name) for r in p.records]


class Bench:
    def __init__(self, root: Path, workload: Workload, seed: int, seconds: float) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.base = root / ".perfbench"
        self.work = self.base / "work" / f"{workload.name}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        # The server runs with the caller's environment, plus the source.
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p
        )
        self.bundle = bundles.ensure_bundle(
            root, self.base / "cache", workload.bundle, self.env
        )
        from load import render_frames

        self.frames = render_frames(workload.image_shape, seed, FRAME_POOL)
        self.spawned = 0
        self.servers: List[srv.Server] = []
        self.client_recorder = None
        self.server_blas_threads: Optional[int] = None

    # -- server lifetimes -------------------------------------------------
    def start(self, traced: bool = False):
        """Spawn a server and time it to its first ``ok`` verdict."""
        self.spawned += 1
        work = self.work / f"spawn-{self.spawned}"
        work.mkdir()
        wl = self.workload
        wl.write_config(work)
        port = srv.free_port()
        metrics_port = srv.free_port() if wl.scrapes else None
        serve = ["serve", "--bundle", str(self.bundle)] + wl.serve_args(
            work, port, metrics_port
        )
        if traced:
            argv = [str(self.root / "perfbench" / "serve_traced.py"), str(work / "spans")]
        else:
            argv = ["-m", "repro"]
        server = srv.spawn(self.root, argv + serve, self.env, work, port, metrics_port)
        self.servers.append(server)
        with srv.connect(server, LISTEN_TIMEOUT_S) as probe:
            client_id, priority = wl.identities[0]
            reply = probe.score(self.frames[0], client_id=client_id, priority=priority)
            setup_s = monotonic() - server.spawned_at
        if reply.get("status") != "ok":
            raise RuntimeError(f"first verdict was not ok: {reply}")
        return server, setup_s

    def run_pass(self, server: srv.Server, traced: bool = False,
                 before_block: Optional[Callable[[], None]] = None) -> Pass:
        """The phases against a started server, then its shutdown;
        ``before_block`` runs while the server is idle before each block."""
        from repro.serving import ServingClient

        result = Pass()
        if traced:
            self._install_client_trace(server.work / "spans")
        clients = [ServingClient("127.0.0.1", server.port) for _ in self.workload.identities]
        try:
            self._phases(server, clients, result, before_block)
        finally:
            for client in clients:
                client.close()
        result.shutdown_s = srv.stop(server)
        return result

    def close(self) -> None:
        """Kill whatever is left of every server this run started."""
        for server in self.servers:
            srv.kill_group(server)

    def _phases(self, server: srv.Server, clients, result: Pass, before_block) -> None:
        """Warm-up, then ``BLOCKS`` times an open phase and a closed phase.

        In untraced runs each block starts with a probe spawn, an idle
        spell for this server, so the open phase's CPU time does not
        include the spin-down of the closed phase before it.
        """
        from load import closed_phase, open_phase

        wl = self.workload
        block_s = self.seconds / 2.0 / BLOCKS
        telemetry = server.work / "telemetry.jsonl"
        stats = [clients[0].stats()]
        warmup = closed_phase(clients, wl.identities, self.frames, (self.seed, 0), WARMUP_S)
        warmup.name = "warmup"
        result.phases.append(warmup)
        stats.append(clients[0].stats())
        size_before = telemetry.stat().st_size if telemetry.exists() else 0
        for block in range(BLOCKS):
            if before_block is not None:
                before_block()
            cpu = srv.cpu_seconds(server.pid)
            result.phases.append(open_phase(
                clients, wl.identities, self.frames, (self.seed, 1, block), block_s,
                wl.camera_rates(), self._offsets(block),
            ))
            result.server_cpu_s += srv.cpu_seconds(server.pid) - cpu
            stats.append(clients[0].stats())
            self._scrape(server, result)
            result.phases.append(closed_phase(
                clients, wl.identities, self.frames, (self.seed, 2, block), block_s,
            ))
            stats.append(clients[0].stats())
            self._scrape(server, result)
        if telemetry.exists():
            result.telemetry_bytes = telemetry.stat().st_size - size_before
        result.peak_rss_mb = srv.peak_rss_mb(server.pid)
        for phase, before, after in zip(result.phases, stats, stats[1:]):
            result.problems += [
                f"{phase.name} phase: {p}"
                for p in checks.account(phase.records, before, after)
            ]

    def _offsets(self, block: int) -> List[float]:
        """Camera start offsets in open phase ``block``.

        Camera 0 starts at once and camera ``i`` at ``(block + u_i) /
        BLOCKS`` of its period, ``u_i`` seeded: over the blocks the cameras
        meet at evenly spread relative phases.  Random offsets would leave
        the share of frames that collide (and so queue behind each other's
        encode) to chance, and with it the open-phase latency and CPU.
        """
        rng = random.Random(self.seed)
        rates = self.workload.camera_rates()
        return [0.0] + [(block + rng.random()) / BLOCKS / rate for rate in rates[1:]]

    def _scrape(self, server: srv.Server, result: Pass) -> None:
        if server.metrics_port is None:
            return
        url = f"http://127.0.0.1:{server.metrics_port}/metrics"
        started = monotonic()
        with urllib.request.urlopen(url, timeout=30) as response:
            response.read()
        result.scrape_s.append(monotonic() - started)

    def _install_client_trace(self, span_dir: Path) -> None:
        from tracing import Recorder, install_client

        if self.client_recorder is None:
            self.client_recorder = Recorder(span_dir, role="client")
            install_client(self.client_recorder)

    # -- verdict checks ---------------------------------------------------
    def check(self, passes: List[Pass]) -> List[str]:
        refs = checks.reference_verdicts(self.bundle, self.workload.dtype, self.frames)
        tolerance = checks.TOLERANCE[self.workload.dtype]
        problems = []
        for p in passes:
            problems += p.problems
            problems += checks.gate(p.records(), refs, tolerance)
        novel = {ref.is_novel for ref in refs}
        if len(novel) != 2:
            problems.append(f"the frame pool exercises only is_novel={novel.pop()}")
        return problems


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


def _goodput(result: Pass) -> float:
    """Median over the closed phases of ``ok`` verdicts per second that
    arrived within the latency limit."""
    limit = LATENCY_LIMIT_MS / 1e3
    return _median([
        sum(1 for r in phase.records
            if r.status == "ok" and r.done <= phase.end and r.done - r.sent <= limit)
        / phase.seconds
        for phase in result.named("closed")
    ])


def _tail(values: List[float], pct: float) -> float:
    """The percentile, or the highest one with enough samples beyond it."""
    if not values:
        return 0.0
    value, _ = checks.tail_percentile(values, pct)
    if value is None:
        n = len(values)
        value = checks.quantile(values, max(0.0, 1.0 - checks.MIN_BEYOND / n))
    return value


def end_to_end(bench: Bench) -> tuple:
    # Set-up is timed on the measured server and on one probe spawn before
    # each block, while the measured server is idle.  A probe is killed
    # (with its pool workers) as soon as it answers; its shutdown is not
    # measured.
    setups = []

    def probe() -> None:
        server, setup_s = bench.start()
        setups.append(setup_s)
        srv.kill_group(server)

    server, setup_s = bench.start()
    setups.append(setup_s)
    measured = bench.run_pass(server, before_block=probe)
    open_records = measured.records("open")
    ok_open = sum(r.status == "ok" for r in open_records)
    metrics = {
        "setup_s": (_median(setups), "s"),
        "goodput_fps": (_goodput(measured), "frames/s"),
        "latency_p50_ms": (
            checks.quantile([r.latency_s for r in open_records], 0.5) * 1e3, "ms"),
        "server_cpu_ms_per_frame": (
            measured.server_cpu_s * 1e3 / max(ok_open, 1), "ms"),
        "peak_rss_mb": (measured.peak_rss_mb, "MB"),
        "shutdown_s": (measured.shutdown_s, "s"),
    }
    return metrics, [measured]


def per_layer(bench: Bench) -> tuple:
    from attribution import Trace, layer_metrics, load_dumps, trace_problems

    plain = bench.run_pass(bench.start()[0])
    traced = bench.run_pass(bench.start(traced=True)[0], traced=True)
    bench.client_recorder.dump()
    span_dir = bench.work / f"spawn-{bench.spawned}" / "spans"
    dumps = load_dumps(span_dir)
    trace = Trace(dumps)
    rids = [(r.port, r.wire_id) for r in traced.records("closed") + traced.records("open")
            if r.status == "ok"]
    values = layer_metrics(trace, rids)
    traced.problems += [f"trace: {p}" for p in trace_problems(dumps, trace, values)]
    open_records = plain.records("open")
    open_lat = [r.latency_s * 1e3 for r in open_records]
    lateness = [(r.sent - r.due) * 1e3 for r in open_records]
    requests = len(plain.records("closed")) + len(plain.records("open"))
    values.update({
        "latency_p90_ms": _tail(open_lat, 90.0),
        "latency_p90_samples": float(len(open_lat)),
        "latency_p99_ms": _tail(open_lat, 99.0),
        "latency_p99_samples": float(len(open_lat)),
        "loadgen.cpu_ms_per_request": (
            sum(p.cpu_s for p in plain.phases if p.name != "warmup") * 1e3
            / max(requests, 1)),
        "loadgen.late_p99_ms": _tail(lateness, 99.0),
        "telemetry.bytes_per_request": plain.telemetry_bytes / max(requests, 1),
        "telemetry.scrape_ms": (
            _median(plain.scrape_s) * 1e3 if plain.scrape_s else 0.0),
        "trace.overhead_share": 1.0 - _goodput(traced) / max(_goodput(plain), 1e-9),
    })
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    bench.server_blas_threads = next(
        (d.get("blas_threads") for d in dumps if d["role"] == "server"), None
    )
    return metrics, [plain, traced]


_UNITS = (
    ("_ms", "ms"), ("_us", "us"), ("_kb", "kB"), ("_mb", "MB"),
    ("_mflop", "MFLOP"), ("_share", "share"), ("_ms_per_request", "ms"),
    ("bytes_per_request", "B"), ("batch_size", "frames"),
)


def _unit(name: str) -> str:
    return next((unit for suffix, unit in _UNITS if name.endswith(suffix)), "count")


def stamp(bench: Bench, trace: int) -> Dict[str, object]:
    import numpy as np
    from tracing import blas_threads

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = None
    wl = bench.workload
    threads = bench.server_blas_threads
    return {
        "stamp": {
            "git_revision": revision,
            "src_sha256": bundles.source_digest(bench.root / "src" / "repro"),
            "nproc": os.cpu_count(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            # Read in the traced server itself; otherwise in this process,
            # whose environment and library the server inherits.
            "blas_threads": threads if threads is not None else blas_threads(),
            "workload": wl.name,
            "dtype": wl.dtype,
            "frame_shape": list(wl.image_shape),
            "seed": bench.seed,
            "seconds": bench.seconds,
            "camera_fps": [round(r, 4) for r in wl.camera_rates()],
            "trace": trace,
        }
    }


def _finite(value: float) -> float:
    """JSON has no infinity: a latency that failed frames made infinite
    is printed as the largest float."""
    return max(-sys.float_info.max, min(float(value), sys.float_info.max))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    bench = None
    try:
        bench = Bench(root, WORKLOADS[args.workload], args.seed, args.seconds)
        measure = per_layer if args.trace else end_to_end
        metrics, passes = measure(bench)
        problems = bench.check(passes)
    except Exception:  # noqa: BLE001 — any failure means no result
        traceback.print_exc()
        print("benchmark run failed; no result", file=sys.stderr)
        return 2
    finally:
        if bench is not None:
            bench.close()
    records = [r for p in passes for r in p.records()]
    attempted, failed = checks.outcome_counts(records)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(stamp(bench, args.trace)))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": _finite(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    if not problems:
        shutil.rmtree(bench.work, ignore_errors=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
