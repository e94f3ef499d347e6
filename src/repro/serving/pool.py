"""Multiprocess worker pool: engine replicas with restart-on-crash.

Each worker is a separate OS process that loads the artifact bundle
itself (:func:`repro.serving.artifacts.load_bundle`) — replicas share no
memory with the parent, so a crashed or wedged worker cannot corrupt the
others.  The parent dispatches micro-batches round-robin over duplex
pipes, health-checks replicas with pings, and transparently respawns a
worker that died — retrying the in-flight batch once on the fresh replica
before giving up with :class:`~repro.exceptions.WorkerCrashError`.

The pool is a :class:`~repro.serving.results.Scorer` whose ``replicas``
is its worker count, so a :class:`~repro.serving.engine.ServingEngine`
runs one dispatch thread per worker and keeps every replica busy.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError, DeploymentError, ServingError, WorkerCrashError
from repro.nn.backend.policy import as_tensor, resolve_dtype
from repro.reliability.retry import RetryPolicy, call_with_retry
from repro.serving.artifacts import read_manifest
from repro.serving.results import BatchVerdicts, Scorer
from repro.telemetry import current_trace, get_telemetry
from repro.utils.log import get_logger

_log = get_logger(__name__)


def _worker_main(
    bundle_dir: str,
    conn,
    dtype: Optional[str] = None,
    profile_kernels: bool = False,
) -> None:
    """Worker-process loop: load the bundle, answer score/ping requests.

    Runs until a ``("stop",)`` message or EOF on the pipe.  Scoring errors
    are reported per-request (``("err", id, message)``) rather than
    crashing the replica; an actual crash is detected by the parent via a
    broken pipe / timeout and answered with a restart.  ``dtype`` overrides
    the bundle's recorded precision policy for this replica.

    Tracing: the 4th element of a score message is a serialized trace
    context, or ``None`` for an untraced batch.  With one, the worker
    scores under a ``worker.score_batch`` span parented to it (with
    per-kernel spans nested inside when ``profile_kernels`` is set) and
    returns the finished span records as the reply's 6th element (empty
    when untraced), so the parent can replay them into its own sink — one
    JSONL file ends up holding the whole cross-process request tree.
    """
    from repro.serving.artifacts import load_bundle
    from repro.serving.engine import PipelineScorer
    from repro.telemetry import MemorySink, TraceContext, enable_telemetry

    if profile_kernels:
        from repro.nn.backend import enable_kernel_profiler

        enable_kernel_profiler()
    bundle = load_bundle(bundle_dir)
    pipeline = bundle.pipeline
    if dtype is not None:
        pipeline.set_inference_dtype(dtype)
    # The scorer compiles the plan before the worker answers its first
    # message: stage-graph construction happens once at worker startup.
    scorer = PipelineScorer(pipeline)
    telem = None
    sink = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        op = message[0]
        if op == "stop":
            return
        if op == "ping":
            conn.send(("pong", message[1]))
        elif op == "score":
            request_id, frames, trace_payload = message[1], message[2], message[3]
            try:
                spans: List[Dict[str, Any]] = []
                if trace_payload is not None:
                    if telem is None:
                        # Lazy: workers only pay for telemetry once the
                        # parent actually sends traced requests.
                        telem = enable_telemetry()
                        sink = MemorySink()
                        telem.add_sink(sink)
                    sink.records.clear()
                    context = TraceContext.from_dict(trace_payload)
                    with telem.span(
                        "worker.score_batch", trace=context, frames=len(frames)
                    ):
                        verdicts = scorer.score_batch(frames)
                    spans = [
                        dict(r) for r in sink.records if r.get("type") == "span"
                    ]
                else:
                    verdicts = scorer.score_batch(frames)
                conn.send(
                    (
                        "ok",
                        request_id,
                        verdicts.scores,
                        verdicts.is_novel,
                        verdicts.margins,
                        spans,
                    )
                )
            except Exception as exc:  # noqa: BLE001 — report, don't die
                conn.send(("err", request_id, f"{type(exc).__name__}: {exc}"))
        else:
            conn.send(("err", message[1] if len(message) > 1 else -1, f"unknown op {op!r}"))


@dataclass
class _Worker:
    """Parent-side handle for one replica."""

    index: int
    process: multiprocessing.Process
    conn: Any
    #: Serializes pipe traffic for this replica across dispatch threads.
    lock: threading.Lock = field(default_factory=threading.Lock)


class WorkerPool(Scorer):
    """Round-robin pool of bundle-loaded engine replicas.

    Parameters
    ----------
    bundle_dir:
        Artifact bundle every worker loads (validated up front, so a bad
        path fails fast in the parent instead of in N children).
    workers:
        Number of replica processes.
    request_timeout_s:
        How long to wait for a replica's answer before declaring it hung
        (it is then killed and respawned).
    dtype:
        Precision policy replicas score in (``"float32"`` or ``"float64"``).
        ``None`` uses the dtype recorded in the bundle manifest.
    retry:
        Restart-and-retry policy for a crashed/hung replica:
        ``max_attempts`` bounds how many fresh processes one batch may be
        tried on, with exponential backoff (plus seeded jitter) between
        attempts so a crash-looping replica is not respawn-hammered.
        ``None`` keeps the historical try-twice-no-backoff behavior.
    profile_kernels:
        Install the kernel profiler in every replica, so traced requests
        come back with per-kernel spans (``repro profile``).
    model_version:
        Registry version (or any identifier) stamped onto every batch this
        pool scores; :meth:`reload` updates it along with the bundle.
    """

    def __init__(
        self,
        bundle_dir: Union[str, Path],
        workers: int = 2,
        request_timeout_s: float = 60.0,
        dtype: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
        profile_kernels: bool = False,
        model_version: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if request_timeout_s <= 0:
            raise ConfigurationError(
                f"request_timeout_s must be positive, got {request_timeout_s}"
            )
        self.bundle_dir = Path(bundle_dir)
        manifest = read_manifest(self.bundle_dir)
        self.image_shape: Tuple[int, int] = tuple(manifest["image_shape"])
        self.dtype = resolve_dtype(
            manifest.get("dtype", "float64") if dtype is None else dtype
        )
        self._dtype_override = None if dtype is None else self.dtype.name
        self.replicas = int(workers)
        self.request_timeout_s = float(request_timeout_s)
        self._retry = retry if retry is not None else RetryPolicy(
            max_attempts=2, base_delay_s=0.0, jitter=0.0
        )
        self._retry_rng = self._retry.make_rng()
        self.profile_kernels = bool(profile_kernels)
        self.model_version = model_version
        self._context = multiprocessing.get_context()
        self._rr_lock = threading.Lock()
        self._rr_index = 0
        self._request_id = 0
        self._restarts = 0
        self._swaps = 0
        self._closed = False
        self._workers: List[_Worker] = [self._spawn(i) for i in range(self.replicas)]

    # -- replica lifecycle ----------------------------------------------
    def _spawn(self, index: int, bundle_dir: Optional[Path] = None) -> _Worker:
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(
                str(bundle_dir if bundle_dir is not None else self.bundle_dir),
                child_conn,
                self._dtype_override,
                self.profile_kernels,
            ),
            name=f"repro-serve-worker-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(index=index, process=process, conn=parent_conn)

    def _restart(self, worker: _Worker, reason: str) -> None:
        """Kill (if needed) and respawn one replica.  Caller holds its lock."""
        _log.warning("restarting worker %d: %s", worker.index, reason)
        if worker.process.is_alive():
            worker.process.terminate()
        worker.process.join(timeout=5.0)
        try:
            worker.conn.close()
        except OSError:
            pass
        fresh = self._spawn(worker.index)
        worker.process = fresh.process
        worker.conn = fresh.conn
        with self._rr_lock:
            self._restarts += 1
        get_telemetry().counter("serving.worker_restarts").inc()

    @property
    def restarts(self) -> int:
        """Total replica restarts since the pool started."""
        with self._rr_lock:
            return self._restarts

    # -- request plumbing ------------------------------------------------
    def _next_worker(self) -> _Worker:
        with self._rr_lock:
            worker = self._workers[self._rr_index % len(self._workers)]
            self._rr_index += 1
            return worker

    def _next_request_id(self) -> int:
        with self._rr_lock:
            self._request_id += 1
            return self._request_id

    def _request(self, worker: _Worker, message: tuple, request_id: int) -> tuple:
        """One send/recv on a replica; raises ``WorkerCrashError`` on death.

        Caller holds ``worker.lock``.
        """
        if not worker.process.is_alive():
            raise WorkerCrashError(f"worker {worker.index} is not running")
        try:
            worker.conn.send(message)
            deadline = time.monotonic() + self.request_timeout_s
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not worker.conn.poll(min(remaining, 0.5)):
                    if remaining <= 0:
                        raise WorkerCrashError(
                            f"worker {worker.index} did not answer within "
                            f"{self.request_timeout_s}s"
                        )
                    if not worker.process.is_alive():
                        raise WorkerCrashError(f"worker {worker.index} died mid-request")
                    continue
                reply = worker.conn.recv()
                # Stale replies (from a request that timed out earlier on
                # this replica) are discarded by id.
                if len(reply) > 1 and reply[1] == request_id:
                    return reply
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise WorkerCrashError(f"worker {worker.index} pipe failed: {exc}") from exc

    def score_batch(self, frames: np.ndarray) -> BatchVerdicts:
        """Score a stack on the next replica, restarting it on crash.

        A replica found dead (or that dies mid-request) is respawned and
        the batch retried on the fresh process under the pool's
        :class:`~repro.reliability.RetryPolicy` (default: one retry, no
        backoff), with exponential backoff between attempts when a policy
        is configured; only the final failure propagates as
        :class:`~repro.exceptions.WorkerCrashError`.
        """
        if self._closed:
            raise ServingError("WorkerPool.score_batch called after close()")
        frames = as_tensor(frames, self.dtype)
        worker = self._next_worker()
        # Propagate the ambient trace (the engine's serving.batch span)
        # across the pipe as a plain dict; the worker parents its own
        # spans under it and ships them back in the reply.
        context = current_trace()
        trace_payload = None if context is None else context.to_dict()

        def attempt() -> tuple:
            request_id = self._next_request_id()
            return self._request(
                worker, ("score", request_id, frames, trace_payload), request_id
            )

        def on_failure(exc: BaseException, attempt_no: int) -> None:
            self._restart(worker, str(exc))

        with worker.lock:
            reply, _ = call_with_retry(
                attempt,
                self._retry,
                retryable=WorkerCrashError,
                on_failure=on_failure,
                rng=self._retry_rng,
            )
        if reply[0] == "err":
            raise ServingError(f"worker {worker.index} scoring error: {reply[2]}")
        scores, is_novel, margins, worker_spans = reply[2:6]
        if worker_spans:
            telem = get_telemetry()
            if telem.enabled:
                for record in worker_spans:
                    telem.replay_span(record)
        return BatchVerdicts(
            scores=scores,
            is_novel=is_novel,
            margins=margins,
            model_version=self.model_version,
        )

    # -- hot-swap --------------------------------------------------------
    def reload(self, bundle_dir: Union[str, Path], model_version: Optional[str] = None) -> None:
        """Zero-downtime rolling swap: move every replica to a new bundle.

        Takes what the constructor takes: a bundle directory and its
        version (for a loaded bundle, ``bundle.path`` and
        ``bundle.config_hash``).  The new manifest is validated up front
        and must score the same ``(H, W)``.  Replicas are then replaced
        *one at a time*: a fresh process loads the new bundle, proves
        readiness by answering a ping, and only then — under the replica's
        request lock, i.e. after its in-flight batch drains — takes over
        the slot; the old process is stopped.  N-1 replicas keep serving
        throughout, so capacity never drops to zero, and a candidate that
        fails to come up aborts the swap with the remaining replicas
        untouched (already swapped replicas stay on the new bundle; re-run
        ``reload`` either way to converge).
        """
        if self._closed:
            raise ServingError("WorkerPool.reload called after close()")
        bundle_dir = Path(bundle_dir)
        manifest = read_manifest(bundle_dir)
        new_shape = tuple(manifest["image_shape"])
        if new_shape != tuple(self.image_shape):
            raise DeploymentError(
                f"hot-swap shape mismatch: serving {tuple(self.image_shape)}, "
                f"candidate scores {new_shape}"
            )
        telem = get_telemetry()
        for worker in self._workers:
            fresh = self._spawn(worker.index, bundle_dir=bundle_dir)
            try:
                request_id = self._next_request_id()
                self._request(fresh, ("ping", request_id), request_id)
            except WorkerCrashError as exc:
                if fresh.process.is_alive():
                    fresh.process.terminate()
                fresh.process.join(timeout=5.0)
                try:
                    fresh.conn.close()
                except OSError:
                    pass
                raise DeploymentError(
                    f"hot-swap aborted: replacement for worker {worker.index} "
                    f"never became ready ({exc})"
                ) from exc
            # The replica's lock serializes with score_batch: taking it
            # here *is* the drain of that worker's in-flight request.
            with worker.lock:
                old_process, old_conn = worker.process, worker.conn
                worker.process = fresh.process
                worker.conn = fresh.conn
            try:
                old_conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            old_process.join(timeout=5.0)
            if old_process.is_alive():
                old_process.terminate()
                old_process.join(timeout=5.0)
            try:
                old_conn.close()
            except OSError:
                pass
            telem.counter("deploy.worker_swapped").inc()
            _log.info("worker %d swapped to %s", worker.index, bundle_dir)
        with self._rr_lock:
            self._swaps += 1
        self.bundle_dir = bundle_dir
        if self._dtype_override is None:
            self.dtype = resolve_dtype(manifest.get("dtype", "float64"))
        self.model_version = model_version

    # -- health ----------------------------------------------------------
    def ping(self) -> List[bool]:
        """Liveness probe per replica (``True`` = answered a ping)."""
        health: List[bool] = []
        for worker in self._workers:
            with worker.lock:
                try:
                    request_id = self._next_request_id()
                    reply = self._request(worker, ("ping", request_id), request_id)
                    health.append(reply[0] == "pong")
                except WorkerCrashError:
                    health.append(False)
        return health

    def ensure_healthy(self) -> int:
        """Respawn every replica that fails its health check.

        Returns the number of restarts performed.  Deployments run this
        periodically; the scoring path additionally self-heals on demand.
        """
        restarted = 0
        for worker in self._workers:
            with worker.lock:
                alive = worker.process.is_alive()
                if alive:
                    try:
                        request_id = self._next_request_id()
                        self._request(worker, ("ping", request_id), request_id)
                        continue
                    except WorkerCrashError:
                        pass
                self._restart(worker, "failed health check")
                restarted += 1
        return restarted

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Stop every replica (graceful stop message, then terminate)."""
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            with worker.lock:
                try:
                    worker.conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._workers:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            try:
                worker.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def stats(self) -> Dict[str, Any]:
        """Replica liveness, restart and swap counts (no pipe traffic)."""
        with self._rr_lock:
            swaps = self._swaps
        stats: Dict[str, Any] = {
            "workers": self.replicas,
            "alive": sum(w.process.is_alive() for w in self._workers),
            "restarts": self.restarts,
            "swaps": swaps,
        }
        if self.model_version is not None:
            stats["model_version"] = self.model_version
        return stats
