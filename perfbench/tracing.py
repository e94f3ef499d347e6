"""Outside-in span recording for the benchmark's traced mode.

The program is not edited: timing wrappers are installed around each
layer's public functions (and the few module-level helpers that bound a
layer), in the load process, in the server, and — because the worker pool
forks — in its workers.  Each process keeps its spans in memory on the
system-wide monotonic clock and writes them to one JSON file at exit.

A span is ``(sid, parent, name, start, end, tid, rid, attrs)``:

* ``parent`` is the span open on the same thread when it started (0 for a
  thread root); links across threads and processes are made afterwards by
  :mod:`attribution`;
* ``rid`` names the request a thread root belongs to: the client's local
  port and the wire id, the same pair the server sees as the peer port and
  the request's ``id``.  Batch spans carry the list of rids they scored.

Kernels are not wrapped one by one: the server runs with the program's
own kernel profiler on, and its ``record`` is wrapped so each process
keeps per-kernel totals (calls, seconds, FLOPs and bytes as the profiler
estimates them from shapes).

A target that no longer exists is not patched but listed in the dump's
``missing``; the traced run then fails, so a renamed hook cannot pass for
a layer that costs nothing.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

monotonic = time.monotonic

#: Attribute the batcher wrapper stamps on each queued request.
RID_TAG = "_perfbench_rid"

STAGE_CLASSES = (
    "CnnForwardStage",
    "SaliencyCascadeStage",
    "ReconstructStage",
    "SimilarityStage",
    "VerdictStage",
)


class Recorder:
    """In-memory span store of one process, written out by :meth:`dump`."""

    def __init__(self, out_dir: Path, role: str) -> None:
        self.out_dir = Path(out_dir)
        #: Hooks installed and hooks whose target was not found; a forked
        #: worker inherits both with the patched code.
        self.patched: List[str] = []
        self.missing: List[str] = []
        self._reset(role)
        os.register_at_fork(after_in_child=lambda: self._reset("worker"))

    def _reset(self, role: str) -> None:
        self.role = role
        self.spans: List[tuple] = []
        self.counts: Dict[str, int] = {}
        #: Kernel name -> [calls, seconds, flops, bytes].
        self.kernels: Dict[str, List[float]] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def state(self):
        st = self._local
        if not hasattr(st, "stack"):
            st.stack = []
            st.rid = None
            st.peer = None
            st.recv_calls = 0
            st.header_end = None
            st.dispatch = None
        return st

    def new_id(self) -> int:
        return next(self._ids)

    def add(self, sid, parent, name, start, end, rid=None, attrs=None) -> None:
        self.spans.append(
            (sid, parent, name, start, end, threading.get_ident(), rid, attrs)
        )

    def bump(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def add_kernel(self, name: str, seconds: float, flops: float, nbytes: float) -> None:
        with self._lock:
            total = self.kernels.setdefault(name, [0, 0.0, 0.0, 0.0])
            total[0] += 1
            total[1] += seconds
            total[2] += flops
            total[3] += nbytes

    def dump(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.role}-{os.getpid()}.json"
        payload = {
            "pid": os.getpid(),
            "role": self.role,
            "blas_threads": blas_threads(),
            "patched": self.patched,
            "missing": self.missing,
            "counts": self.counts,
            "kernels": self.kernels,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload))
        return path


def blas_threads() -> Optional[int]:
    """Threads numpy's OpenBLAS uses in this process (``None`` if the BLAS
    is not an OpenBLAS that can be asked)."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs, key=lambda p: "numpy" not in p):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _timed(rec: Recorder, name: str, fn: Callable, rid_of=None, attrs_of=None):
    """Wrap ``fn`` in a span; ``rid_of(args, result)`` names a thread root's
    request, ``attrs_of(args, result)`` adds attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        st = rec.state()
        sid = rec.new_id()
        parent = st.stack[-1] if st.stack else 0
        st.stack.append(sid)
        start = monotonic()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = monotonic()
            st.stack.pop()
            rid = rid_of(args, result) if rid_of is not None else None
            attrs = attrs_of(args, result) if attrs_of is not None else None
            rec.add(sid, parent, name, start, end, rid, attrs)

    return wrapper


def _patch(rec: Recorder, owner, attr: str, make: Callable[[Callable], Callable]) -> None:
    target = f"{getattr(owner, '__name__', owner)}.{attr}"
    original = getattr(owner, attr, None)
    if original is None:
        rec.missing.append(target)
        return
    setattr(owner, attr, make(original))
    rec.patched.append(target)


class _TimedJson:
    """Stand-in for the ``json`` module inside ``repro.serving.service``,
    timing the frame codec; everything else is the real module."""

    def __init__(self, rec: Recorder, real) -> None:
        self._real = real
        self.dumps = _timed(
            rec, f"{rec.role}.dumps", real.dumps,
            attrs_of=lambda a, r: {"bytes": len(r)} if r is not None else None,
        )
        self.loads = _timed(rec, f"{rec.role}.loads", real.loads)

    def __getattr__(self, name: str):
        return getattr(self._real, name)


def _install_service(rec: Recorder) -> None:
    """The wire layer, shared by the client and the server."""
    from repro.serving import service

    role = rec.role

    def recv_exact(fn):
        header = _timed(rec, "client.wait", fn)
        body = _timed(rec, f"{role}.read", fn)

        @functools.wraps(fn)
        def wrapper(sock, n):
            st = rec.state()
            st.recv_calls += 1
            if st.recv_calls > 1:
                return body(sock, n)
            # The length header: on the client this is the wait for the
            # server; on the server it is idle time between requests.
            if role == "client":
                return header(sock, n)
            result = fn(sock, n)
            st.header_end = monotonic()
            return result

        return wrapper

    def recv_message(fn):
        timed = _timed(rec, f"{role}.recv", fn)
        if role == "client":

            @functools.wraps(fn)
            def client_recv(sock):
                rec.state().recv_calls = 0
                return timed(sock)

            return client_recv

        @functools.wraps(fn)
        def server_recv(sock):
            # The server's request starts when its header arrives; the
            # span is recorded from there, as a thread root with the rid.
            st = rec.state()
            st.recv_calls = 0
            st.header_end = None
            sid = rec.new_id()
            st.stack.append(sid)
            try:
                request = fn(sock)
            finally:
                st.stack.pop()
            end = monotonic()
            st.rid = None
            if isinstance(request, dict) and request.get("op") == "score":
                st.rid = (st.peer, request.get("id"))
                start = st.header_end if st.header_end is not None else end
                rec.add(sid, 0, "server.recv", start, end, st.rid)
            return request

        return server_recv

    _patch(rec, service, "_recv_exact", recv_exact)
    _patch(rec, service, "recv_message", recv_message)
    if role == "client":
        _patch(rec, service, "send_message",
               lambda fn: _timed(rec, "client.send", fn))
    else:
        _patch(rec, service, "send_message",
               lambda fn: _timed(rec, "server.send", fn,
                                 rid_of=lambda a, r: rec.state().rid))
    _patch(rec, service, "json", lambda real: _TimedJson(rec, real))


def install_client(rec: Recorder) -> None:
    """Wrap the load process's side of the wire."""
    from repro.serving import service

    _install_service(rec)

    from load import local_port

    def rid_of(args, result):
        # The reply echoes the wire id the client chose.
        if isinstance(result, dict) and isinstance(result.get("id"), int):
            return (local_port(args[0]), result["id"])
        return None

    _patch(rec, service.ServingClient, "score",
           lambda fn: _timed(rec, "client.request", fn, rid_of=rid_of))


def install_server(rec: Recorder) -> None:
    """Wrap every serving layer in this process (and, through fork, its
    pool workers)."""
    from repro.durability import state as durability_state
    from repro.nn.backend import profiler
    from repro.pipeline import stages
    from repro.serving import admission, batcher, engine, pool, results, service
    from repro.telemetry import runtime

    _install_service(rec)

    def serve_connection(fn):
        @functools.wraps(fn)
        def wrapper(self, conn, peer):
            rec.state().peer = peer[1]
            return fn(self, conn, peer)

        return wrapper

    _patch(rec, service.ServingServer, "_serve_connection", serve_connection)
    _patch(rec, service.ServingServer, "_respond",
           lambda fn: _timed(rec, "server.respond", fn,
                             rid_of=lambda a, r: rec.state().rid))
    _patch(rec, service, "as_tensor",
           lambda fn: _timed(rec, "server.to_array", fn))
    _patch(rec, service, "_serialize_outcome",
           lambda fn: _timed(rec, "server.serialize", fn))

    _patch(rec, engine.ServingEngine, "submit",
           lambda fn: _timed(rec, "engine.submit", fn))
    _patch(rec, results.PendingResult, "result",
           lambda fn: _timed(rec, "engine.wait", fn))
    _patch(rec, admission.AdmissionController, "admit",
           lambda fn: _timed(rec, "admission.admit", fn,
                             attrs_of=lambda a, r: {"admitted": bool(getattr(r, "admitted", True))}))
    for method in ("admit", "resolve"):
        _patch(rec, durability_state.RequestLedger, method,
               lambda fn: _timed(rec, "durability.ledger", fn))

    def offer(fn):
        @functools.wraps(fn)
        def wrapper(self, request):
            try:
                setattr(request, RID_TAG, rec.state().rid)
            except AttributeError:
                pass
            return fn(self, request)

        return wrapper

    def next_batch(fn):
        @functools.wraps(fn)
        def wrapper(self):
            st = rec.state()
            now = monotonic()
            if st.dispatch is not None:
                # The previous batch's dispatch iteration ends here.
                sid, start, rids = st.dispatch
                st.stack.pop()
                rec.add(sid, 0, "engine.dispatch", start, now, rids)
                st.dispatch = None
            batch = fn(self)
            ready = monotonic()
            if batch:
                rids = [getattr(r, RID_TAG, None) for r in batch]
                enqueued = [float(getattr(r, "enqueued_at", now)) for r in batch]
                rec.add(rec.new_id(), 0, "batcher.next_batch", now, ready, rids,
                        {"enqueued": enqueued})
                sid = rec.new_id()
                st.stack.append(sid)
                st.dispatch = (sid, ready, rids)
            return batch

        return wrapper

    for owner in (batcher.MicroBatcher, admission.WeightedClassBatcher):
        _patch(rec, owner, "offer", offer)
        _patch(rec, owner, "next_batch", next_batch)

    _patch(rec, pool.WorkerPool, "score_batch",
           lambda fn: _timed(rec, "pool.score_batch", fn))

    def pool_request(fn):
        timed = _timed(rec, "pool.request", fn, attrs_of=lambda a, r: {
            "worker_pid": getattr(getattr(a[1], "process", None), "pid", None)})

        @functools.wraps(fn)
        def wrapper(self, worker, message, request_id):
            if isinstance(message, tuple) and message and message[0] == "score":
                return timed(self, worker, message, request_id)
            return fn(self, worker, message, request_id)

        return wrapper

    _patch(rec, pool.WorkerPool, "_request", pool_request)

    def restart(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.bump("pool.restarts")
            return fn(*args, **kwargs)

        return wrapper

    _patch(rec, pool.WorkerPool, "_restart", restart)

    def worker_main(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                rec.dump()

        return wrapper

    _patch(rec, pool, "_worker_main", worker_main)

    for cls_name in STAGE_CLASSES:
        cls = getattr(stages, cls_name, None)
        if cls is None:
            rec.missing.append(f"stages.{cls_name}")
            continue
        stage_name = getattr(cls, "name", cls_name)
        _patch(rec, cls, "run",
               lambda fn, n=stage_name: _timed(
                   rec, f"stage.{n}", fn,
                   attrs_of=lambda a, r: {"frames": int(len(a[1]))}))

    def record(fn):
        @functools.wraps(fn)
        def wrapper(self, name, duration, flops, nbytes, shape_key):
            rec.add_kernel(name, duration, flops, nbytes)
            return fn(self, name, duration, flops, nbytes, shape_key)

        return wrapper

    _patch(rec, profiler.KernelProfiler, "record", record)

    for method in ("_on_span_finish", "add_span", "replay_span", "event"):
        _patch(rec, runtime.Telemetry, method,
               lambda fn: _timed(rec, "telemetry.emit", fn))
