"""The inference engine: admission control + micro-batching + dispatch.

:class:`ServingEngine` accepts single-frame requests, admits them into a
bounded :class:`~repro.serving.batcher.MicroBatcher`, and runs one or more
dispatch threads that pull micro-batches and hand them to a
:class:`~repro.serving.results.Scorer`.  Two scorers serve a model:

* :class:`PipelineScorer` — in-process, wraps a fitted pipeline;
* :class:`repro.serving.pool.WorkerPool` — multiprocess replicas, one
  dispatch thread per worker so replicas score concurrently.

Backpressure is explicit: a full queue resolves the request to a typed
:class:`~repro.serving.results.Overloaded` outcome at submit time; an
admitted request whose deadline lapses while queued resolves to
:class:`~repro.serving.results.DeadlineExceeded` without being scored.
A frame with a NaN or infinite pixel is refused at submit time
(:class:`~repro.serving.results.Rejected`, reason ``non_finite_frame``).
The engine never queues unboundedly and never blocks a producer.

Every request leaves through one exit, :meth:`ServingEngine._finish`,
which counts its outcome, journals it, resolves its future and records
its ``serving.request`` root span, in that order.

Every batch is scored through one guarded path.  Non-finite scores are
a backend failure, not an answer: the engine never delivers them as
``Scored``, and ``fail_safe`` decides whether unscorable requests resolve
to :class:`~repro.serving.results.Failed` (the default) or to a
conservative :class:`~repro.serving.results.Degraded` verdict.
:class:`EngineConfig` adds the opt-in parts: a
:class:`~repro.reliability.RetryPolicy` retries a failing backend with
exponential backoff (one attempt without it), and a
:class:`~repro.reliability.BreakerConfig` puts a circuit breaker in front
of it (an open breaker resolves batches immediately instead of hammering
a dead backend).

Telemetry (when a session is active): ``serving.queue_depth``,
``serving.breaker_state`` and ``serving.admission.concurrency_limit``
gauges, ``serving.batch_size`` and ``serving.request_latency`` histograms,
``serving.queue_delay.<class>`` per-priority-class window histograms,
``serving.batch`` spans, and ``serving.requests`` / ``serving.rejected``
/ ``serving.deadline_exceeded`` / ``serving.errors`` / ``serving.retries``
/ ``serving.degraded`` / ``serving.admission.admitted.<class>`` /
``serving.admission.rejected.<reason>`` counters.

Tracing: :meth:`ServingEngine.submit` roots a
:class:`~repro.telemetry.TraceContext` per admitted request (or adopts one
the TCP frontend already rooted) and carries it on the
:class:`QueuedRequest` through the batcher.  Every outcome records the
request's ``serving.request`` root as a synthetic span.  The dispatch loop
emits the request's ``serving.queue`` wait, and runs the scoring pass
under a ``serving.batch`` span parented to the *first* live request's
trace (the batch owner); the other requests of the batch link to it via a
``batch_trace`` attribute.  Spans the backend opens during scoring
(pipeline, worker, kernels) inherit the batch span's context ambiently, so
``repro trace <id>`` reconstructs the whole path.  Scores additionally
feed the ``monitor.score_window`` sliding histogram, the live
score-distribution series the ``/metrics`` endpoint exposes.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    DeploymentError,
    NotFittedError,
    ServingError,
    ShapeError,
)
from repro.nn.backend.policy import as_tensor
from repro.novelty.framework import SaliencyNoveltyPipeline
from repro.reliability.breaker import BreakerConfig, CircuitBreaker
from repro.reliability.retry import RetryPolicy, call_with_retry
from repro.serving.admission import AdmissionController, AdmissionDecision, WeightedClassBatcher
from repro.serving.batcher import MicroBatcher, QueuedRequest
from repro.serving.qos import QosPolicy
from repro.serving.results import (
    BatchVerdicts,
    DeadlineExceeded,
    Degraded,
    Failed,
    Overloaded,
    PendingResult,
    Rejected,
    RequestOutcome,
    Scored,
    Scorer,
)
from repro.telemetry import TraceContext, WindowHistogram, get_telemetry
from repro.utils.timer import percentile

_UNSET = object()

#: Fail-safe policies for unscorable requests (see :class:`EngineConfig`).
FAIL_SAFE_POLICIES = ("fail", "novel")

#: Per outcome type: the ``stats()`` count it raises and the ``outcome``
#: attribute of its ``serving.request`` span.
_OUTCOMES = {
    Scored: ("scored", "scored"),
    Rejected: ("rejected_admission", "rejected"),
    Overloaded: ("rejected", "overloaded"),
    DeadlineExceeded: ("deadline_exceeded", "deadline_exceeded"),
    Failed: ("failed", "failed"),
    Degraded: ("degraded", "degraded"),
}

#: Scored requests whose latencies ``stats()["latency_ms"]`` summarizes.
_LATENCY_WINDOW = 1024

#: Admission without a QoS policy, and the refusal of a frame with a NaN or
#: infinite pixel (the label the stream monitor's frame sanitizer uses).
_ADMITTED = AdmissionDecision(admitted=True)
_NON_FINITE = AdmissionDecision(admitted=False, reason="non_finite_frame")


@dataclass(frozen=True)
class EngineConfig:
    """Micro-batching and admission policy for one engine.

    Attributes
    ----------
    max_batch_size:
        Upper bound on frames per batched VBP + autoencoder pass.  A free
        dispatch thread takes whatever is queued up to this bound and never
        waits for more, so batches grow only with load.
    queue_capacity:
        Bounded request queue; submissions beyond it are rejected with a
        typed ``Overloaded`` outcome rather than queued.
    default_deadline_ms:
        Per-request deadline applied when ``submit`` does not pass one;
        ``None`` disables deadlines by default.
    retry:
        Retry-with-backoff policy for a failing backend (one that raises
        or returns non-finite scores); ``None`` tries each batch once.
    breaker:
        Circuit-breaker policy guarding the backend; ``None`` disables
        breaking.
    fail_safe:
        What an unscorable request resolves to: ``"fail"`` (a
        :class:`~repro.serving.results.Failed` outcome, the historical
        behavior) or ``"novel"`` (a :class:`~repro.serving.results.Degraded`
        outcome carrying the conservative ``is_novel=True`` verdict — the
        right default for a safety monitor, where "I cannot score this"
        must read as "assume novel").
    qos:
        Admission-control & QoS policy
        (:class:`~repro.serving.qos.QosPolicy`).  When set, the single
        FIFO becomes a weighted per-class multi-queue, submissions carry
        a priority class and client id, and requests may resolve to a
        typed :class:`~repro.serving.results.Rejected` outcome (rate
        limit, adaptive concurrency limit, or deadline-aware shedding)
        before any work is queued.  ``None`` keeps the historical
        admit-everything FIFO behavior.
    """

    max_batch_size: int = 8
    queue_capacity: int = 64
    default_deadline_ms: Optional[float] = None
    retry: Optional[RetryPolicy] = None
    breaker: Optional[BreakerConfig] = None
    fail_safe: str = "fail"
    qos: Optional[QosPolicy] = None

    def __post_init__(self) -> None:
        if self.max_batch_size < 1 or self.queue_capacity < 1:
            raise ConfigurationError(
                "max_batch_size and queue_capacity must be >= 1"
            )
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ConfigurationError(
                f"default_deadline_ms must be positive, got {self.default_deadline_ms}"
            )
        if self.fail_safe not in FAIL_SAFE_POLICIES:
            raise ConfigurationError(
                f"fail_safe must be one of {', '.join(FAIL_SAFE_POLICIES)}, "
                f"got {self.fail_safe!r}"
            )


class PipelineScorer(Scorer):
    """In-process scorer: one fitted pipeline, scored on the caller thread.

    ``model_version`` optionally names the model (a registry version or a
    bundle config hash); every :class:`BatchVerdicts` it produces carries
    it, so outcomes stay attributable across hot-swaps.
    """

    def __init__(
        self,
        pipeline: SaliencyNoveltyPipeline,
        model_version: Optional[str] = None,
    ) -> None:
        if not pipeline.is_fitted:
            raise NotFittedError("PipelineScorer requires a fitted pipeline")
        self.pipeline = pipeline
        self.image_shape = pipeline.image_shape
        self.model_version = model_version
        # Compile the scoring plan eagerly so the first request doesn't pay
        # stage-graph construction.
        pipeline.plan
        # One batched pass at a time: the numpy substrate is single-threaded
        # anyway, and serializing keeps layer caches coherent.  reload()
        # takes the same lock, so a swap waits for the in-flight batch.
        self._lock = threading.Lock()

    @property
    def dtype(self) -> np.dtype:
        """Precision policy of the wrapped pipeline (frames are coerced
        to this before scoring)."""
        return self.pipeline.dtype

    def score_batch(self, frames: np.ndarray) -> BatchVerdicts:
        """Vectorized verdicts for an ``(N, H, W)`` stack."""
        with self._lock:
            # One compiled-plan invocation yields scores, decisions and
            # margins together — the verdict stage reads the cached scores
            # — and every stage emits its own telemetry span.
            ctx = self.pipeline.run_plan(frames)
            return BatchVerdicts(
                scores=ctx.scores,
                is_novel=ctx.is_novel,
                margins=ctx.margins,
                model_version=self.model_version,
            )

    def reload(
        self,
        pipeline: SaliencyNoveltyPipeline,
        model_version: Optional[str] = None,
    ) -> None:
        """Hot-swap the pipeline without dropping the in-flight batch.

        Takes what the constructor takes: a fitted pipeline and its
        version (for a loaded bundle, ``bundle.pipeline`` and
        ``bundle.config_hash``).  Taking the scoring lock *drains* the
        batch currently being scored; the swap is then a plain attribute
        write, so the next batch scores on the new model.  The new pipeline
        must score the same ``(H, W)`` the engine validates submissions
        against.
        """
        if not pipeline.is_fitted:
            raise NotFittedError("reload requires a fitted pipeline")
        if tuple(pipeline.image_shape) != tuple(self.image_shape):
            raise DeploymentError(
                f"hot-swap shape mismatch: serving {tuple(self.image_shape)}, "
                f"candidate scores {tuple(pipeline.image_shape)}"
            )
        # Compile the candidate's plan BEFORE taking the lock: stage-graph
        # construction happens off the serving path, and the swap below is
        # an atomic pipeline+version exchange under the drained lock.
        pipeline.plan
        with self._lock:
            self.pipeline = pipeline
            self.model_version = model_version


class ServingEngine:
    """Micro-batched inference front door over a scorer backend.

    Parameters
    ----------
    scorer:
        The :class:`~repro.serving.results.Scorer` backend (anything else
        raises :class:`~repro.exceptions.ConfigurationError`): one dispatch
        thread per ``replicas``, frames checked against its ``image_shape``
        and ``dtype``, closed by :meth:`close`.
    config:
        Batching/admission policy (defaults: batch 8, queue 64)
        plus the reliability knobs (``retry``/``breaker``/``fail_safe``).
    breaker:
        A pre-built :class:`~repro.reliability.CircuitBreaker` to use
        instead of constructing one from ``config.breaker`` — chaos tests
        inject one with a controllable clock.

    The engine starts its dispatch threads immediately and is usable as a
    context manager; :meth:`close` drains and fails whatever is in flight.

    Every submitted request resolves exactly once, through :meth:`_finish`,
    and the engine keeps nothing per request after that: ``stats()``
    summarizes the latencies of the last 1024 scored requests only.
    """

    def __init__(
        self,
        scorer: Scorer,
        config: Optional[EngineConfig] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        if not isinstance(scorer, Scorer):
            raise ConfigurationError(f"ServingEngine needs a Scorer, got {type(scorer).__name__}")
        self.config = config or EngineConfig()
        self.scorer = scorer
        if breaker is not None:
            self.breaker: Optional[CircuitBreaker] = breaker
        else:
            self.breaker = (
                CircuitBreaker(self.config.breaker)
                if self.config.breaker is not None
                else None
            )
        self._retry = self.config.retry or RetryPolicy(max_attempts=1)
        # One jitter stream shared by every dispatch thread; exact
        # interleaving does not matter, determinism per-policy-seed does.
        self._retry_rng = self._retry.make_rng()
        replicas = scorer.replicas
        if self.config.qos is not None:
            self._batcher: Any = WeightedClassBatcher(
                self.config.qos,
                max_batch_size=self.config.max_batch_size,
                default_capacity=self.config.queue_capacity,
            )
            self.admission: Optional[AdmissionController] = AdmissionController(
                self.config.qos, replicas=replicas
            )
        else:
            self._batcher = MicroBatcher(
                max_batch_size=self.config.max_batch_size,
                capacity=self.config.queue_capacity,
            )
            self.admission = None
        self._stats_lock = threading.Lock()
        self._in_flight = 0
        self._counts = {
            "submitted": 0,
            "scored": 0,
            "rejected": 0,
            "rejected_admission": 0,
            "deadline_exceeded": 0,
            "failed": 0,
            "degraded": 0,
            "retries": 0,
            "batches": 0,
            "reloads": 0,
        }
        self._latency = WindowHistogram("serving.latency", maxlen=_LATENCY_WINDOW)
        self._last_trace_id: Optional[str] = None
        self._shadow: Optional[Any] = None
        self._ledger: Optional[Any] = None
        self._closed = False
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop,
                name=f"serving-dispatch-{i}",
                daemon=True,
            )
            for i in range(replicas)
        ]
        for thread in self._threads:
            thread.start()

    # -- submission ------------------------------------------------------
    def submit(
        self,
        frame: np.ndarray,
        deadline_ms: Any = _UNSET,
        trace: Optional[TraceContext] = None,
        client_id: Optional[str] = None,
        qos_class: Optional[str] = None,
    ) -> PendingResult:
        """Admit one frame; returns a future resolving to a typed outcome.

        Never blocks: when the frame holds a NaN or infinite pixel, or
        admission control refuses the request (rate limit, concurrency
        limit, deadline shedding), the future is already resolved to
        :class:`Rejected` on return; when the bounded queue is full, to
        :class:`Overloaded`.  ``deadline_ms`` overrides the
        class/config default (``None`` = no deadline).  ``client_id``
        names the caller for per-client quotas and ``qos_class`` picks a
        priority class (both ignored without a configured
        :attr:`EngineConfig.qos`; an unknown class raises
        :class:`~repro.exceptions.ConfigurationError`).  ``trace`` adopts
        a context the caller already rooted (the TCP frontend's
        ``serving.frontend`` span); with telemetry active and no ``trace``
        a fresh root is generated for the request.
        """
        scorer = self.scorer
        frame = as_tensor(frame, scorer.dtype)
        expected = tuple(scorer.image_shape)
        if frame.shape != expected:
            raise ShapeError(f"submit expects one {expected} frame, got {frame.shape}")
        admission = self.admission
        if admission is not None:
            qos_class = admission.resolve_class(qos_class)
            if deadline_ms is _UNSET:
                spec = admission.class_policy(qos_class)
                deadline_ms = (
                    spec.default_deadline_ms
                    if spec.default_deadline_ms is not None
                    else self.config.default_deadline_ms
                )
        else:
            qos_class = qos_class or "interactive"
            if deadline_ms is _UNSET:
                deadline_ms = self.config.default_deadline_ms
        telem = get_telemetry()
        if trace is None and telem.enabled:
            trace = TraceContext.new_root()
        now = time.monotonic()
        pending = PendingResult()
        ledger = self._ledger
        request = QueuedRequest(
            frame=frame,
            pending=pending,
            enqueued_at=now,
            deadline_at=None if deadline_ms is None else now + deadline_ms / 1000.0,
            trace=trace,
            ledger_id=None if ledger is None else ledger.admit(),
            qos_class=qos_class,
            client_id=client_id,
        )
        telem.counter("serving.requests").inc()
        with self._stats_lock:
            # In flight from here until _finish counts its outcome.
            in_flight = self._in_flight
            self._counts["submitted"] += 1
            self._in_flight += 1
            if trace is not None:
                self._last_trace_id = trace.trace_id
        decision = _ADMITTED
        if not np.isfinite(frame).all():
            decision = _NON_FINITE
        elif admission is not None:
            decision = admission.admit(
                client_id=client_id,
                qos_class=qos_class,
                deadline_s=None if deadline_ms is None else deadline_ms / 1000.0,
                queue_depth=len(self._batcher),
                in_flight=in_flight,
            )
            if decision.admitted:
                telem.counter(f"serving.admission.admitted.{qos_class}").inc()
        if not decision.admitted:
            reason = decision.reason or "rejected"
            telem.counter(f"serving.admission.rejected.{reason}").inc()
            rejected = Rejected(
                reason=reason,
                qos_class=qos_class,
                client_id=client_id,
                retry_after_ms=decision.retry_after_ms,
            )
            self._finish(request, rejected, telem, 0.0, reason=reason, qos_class=qos_class)
        elif not self._batcher.offer(request):
            telem.counter("serving.rejected").inc()
            overloaded = Overloaded(
                queue_depth=len(self._batcher), capacity=self._batcher.capacity
            )
            self._finish(request, overloaded, telem, 0.0)
        telem.gauge("serving.queue_depth").set(len(self._batcher))
        return pending

    def infer(
        self,
        frame: np.ndarray,
        timeout_s: float = 60.0,
        client_id: Optional[str] = None,
        qos_class: Optional[str] = None,
    ) -> RequestOutcome:
        """Synchronous single-frame scoring (submit + wait)."""
        return self.submit(frame, client_id=client_id, qos_class=qos_class).result(
            timeout_s
        )

    def infer_many(self, frames: np.ndarray, timeout_s: float = 120.0) -> List[RequestOutcome]:
        """Submit a stack of frames and wait for every outcome.

        The stack is queued whole before any of it is scored, so it splits
        into the same batches on every call: a frame scored alone can
        differ in its last bits from the same frame scored in a batch.
        Frames beyond ``queue_capacity`` naturally resolve to
        ``Overloaded`` — size the engine's queue for the burst you send.
        """
        with self._batcher.burst():
            pendings = [self.submit(frame) for frame in as_tensor(frames, self.scorer.dtype)]
        return [p.result(timeout_s) for p in pendings]

    # -- reliability -----------------------------------------------------
    def _score_guarded(self, stack: np.ndarray) -> Tuple[BatchVerdicts, int]:
        """One micro-batch through the retry + breaker wrappers.

        Returns ``(verdicts, retries_used)``.  Non-finite scores count as a
        backend failure, every attempt outcome feeds the breaker (when
        one is configured), and the final failure (after retries) is
        re-raised for the dispatch loop to resolve.
        """

        def attempt() -> BatchVerdicts:
            verdicts = self.scorer.score_batch(stack)
            scores = np.asarray(verdicts.scores, dtype=float)
            if not np.all(np.isfinite(scores)):
                bad = int(np.sum(~np.isfinite(scores)))
                raise ServingError(f"backend returned {bad} non-finite scores")
            return verdicts

        def on_failure(exc: BaseException, attempt_no: int) -> None:
            if self.breaker is not None:
                self.breaker.record_failure()

        verdicts, retries = call_with_retry(
            attempt,
            self._retry,
            retryable=Exception,
            on_failure=on_failure,
            rng=self._retry_rng,
        )
        if self.breaker is not None:
            self.breaker.record_success()
        return verdicts, retries

    def _finish(
        self, request: QueuedRequest, outcome: RequestOutcome, telem, duration: float, **attrs
    ) -> None:
        """The one exit of every submitted request, in this order: count the
        outcome in ``stats()``, journal it in the ledger, resolve the future,
        record the ``serving.request`` root span.  So no caller sees an
        outcome before ``stats()`` counts it and the journal records it (a
        crash may leave an extra unresolved admit, never a resolved request
        the journal still calls in flight)."""
        key, name = _OUTCOMES[type(outcome)]
        with self._stats_lock:
            self._counts[key] += 1
            self._in_flight -= 1
        ledger = self._ledger
        if ledger is not None and request.ledger_id is not None:
            ledger.resolve(request.ledger_id, outcome.status)
        request.pending.resolve(outcome)
        if request.trace is not None:
            telem.add_span(
                "serving.request", duration, context=request.trace, outcome=name, **attrs
            )

    def attach_ledger(self, ledger: Optional[Any]) -> None:
        """Attach (or with ``None`` detach) a durable request ledger.

        Every subsequently admitted request is journaled via
        ``ledger.admit()`` and resolved with its outcome's ``status``
        string; after a crash the unresolved admits are exactly the
        requests the dead process owed answers for.  See
        :class:`~repro.durability.RequestLedger`.
        """
        self._ledger = ledger

    def _resolve_unscorable(self, live: List[QueuedRequest], reason: str, telem) -> None:
        """Resolve a batch the backend could not score, per the fail-safe
        policy: a conservative ``Degraded`` verdict or a plain ``Failed``."""
        if self.config.fail_safe == "novel":
            outcome: RequestOutcome = Degraded(
                reason=reason, is_novel=True, policy="novel"
            )
            telem.counter("serving.degraded").inc(len(live))
        else:
            outcome = Failed(error=reason)
        for request in live:
            self._finish(request, outcome, telem, time.monotonic() - request.enqueued_at)

    def _publish_breaker_state(self, telem) -> None:
        if self.breaker is not None:
            telem.gauge("serving.breaker_state").set(self.breaker.state_code())

    def _publish_admission_state(self, telem) -> None:
        admission = self.admission
        if admission is not None and admission.aimd is not None:
            telem.gauge("serving.admission.concurrency_limit").set(
                admission.aimd.limit
            )

    # -- dispatch --------------------------------------------------------
    def _dispatch_loop(self) -> None:
        telem = get_telemetry()
        while True:
            batch = self._batcher.next_batch()
            if batch is None:
                return
            now = time.monotonic()
            live: List[QueuedRequest] = []
            expired_any = False
            for request in batch:
                telem.window_histogram(
                    f"serving.queue_delay.{request.qos_class}"
                ).observe(now - request.enqueued_at)
                if request.deadline_at is not None and now > request.deadline_at:
                    waited = now - request.enqueued_at
                    allowed = request.deadline_at - request.enqueued_at
                    expired = DeadlineExceeded(waited_s=waited, deadline_s=allowed)
                    expired_any = True
                    telem.counter("serving.deadline_exceeded").inc()
                    self._finish(request, expired, telem, waited)
                else:
                    live.append(request)
            if expired_any and self.admission is not None:
                # Late expiries mean the queue outran the deadline budget:
                # back the adaptive concurrency limit off.
                self.admission.on_overload("deadline_exceeded")
                self._publish_admission_state(telem)
            telem.gauge("serving.queue_depth").set(len(self._batcher))
            if not live:
                continue
            # The batch's spans join the first live request's trace (the
            # batch owner); the other requests link to it via a
            # ``batch_trace`` attribute on their own root spans.
            owner = live[0].trace
            for request in live:
                if request.trace is not None:
                    telem.add_span(
                        "serving.queue",
                        now - request.enqueued_at,
                        context=request.trace.child(),
                    )
            stack = np.stack([r.frame for r in live])
            if self.breaker is not None and not self.breaker.allow():
                if self.admission is not None:
                    self.admission.on_overload("breaker_open")
                    self._publish_admission_state(telem)
                self._resolve_unscorable(live, "circuit breaker open", telem)
                self._publish_breaker_state(telem)
                continue
            score_started = time.monotonic()
            try:
                with telem.span("serving.batch", trace=owner, frames=len(live)):
                    verdicts, retries = self._score_guarded(stack)
            except Exception as exc:  # noqa: BLE001 — worker crashes land here
                message = f"{type(exc).__name__}: {exc}"
                telem.counter("serving.errors").inc()
                self._resolve_unscorable(live, message, telem)
                self._publish_breaker_state(telem)
                continue
            self._publish_breaker_state(telem)
            if self.admission is not None:
                self.admission.observe_batch(
                    time.monotonic() - score_started, len(live)
                )
                self._publish_admission_state(telem)
            if retries:
                telem.counter("serving.retries").inc(retries)
            done = time.monotonic()
            outcomes = [
                Scored(
                    score=float(verdicts.scores[i]),
                    is_novel=bool(verdicts.is_novel[i]),
                    margin=float(verdicts.margins[i]),
                    batch_size=len(live),
                    latency_s=done - request.enqueued_at,
                    retries=retries,
                    model_version=verdicts.model_version,
                )
                for i, request in enumerate(live)
            ]
            latency_histogram = telem.histogram("serving.request_latency")
            score_window = telem.window_histogram("monitor.score_window")
            # The stats lock also serializes metric updates across dispatch
            # threads — the telemetry instruments are not thread-safe.
            with self._stats_lock:
                telem.counter("serving.batches").inc()
                telem.histogram("serving.batch_size").observe(len(live))
                self._counts["batches"] += 1
                self._counts["retries"] += retries
                for outcome in outcomes:
                    self._latency.observe(outcome.latency_s)
                    latency_histogram.observe(outcome.latency_s)
                    score_window.observe(outcome.score)
                    if outcome.is_novel:
                        telem.counter("monitor.novel_verdicts").inc()
            for request, outcome in zip(live, outcomes):
                attrs = {"batch_size": len(live)}
                if owner is not None and request.trace is not owner:
                    attrs["batch_trace"] = owner.trace_id
                self._finish(request, outcome, telem, outcome.latency_s, **attrs)
            # Shadow mirroring happens outside the stats lock: offer() is a
            # sampled non-blocking enqueue that never raises and never
            # affects the already-resolved responses.
            shadow = self._shadow
            if shadow is not None:
                for request, outcome in zip(live, outcomes):
                    shadow.offer(request.frame, outcome)

    # -- lifecycle: hot-swap and rollout hooks ---------------------------
    def reload(self, target: Any, model_version: Optional[str] = None) -> None:
        """Zero-downtime hot-swap: replace the served model under load.

        Delegates to the scorer's own ``reload`` —
        :meth:`PipelineScorer.reload` drains the in-flight batch and swaps
        the pipeline; :meth:`~repro.serving.pool.WorkerPool.reload`
        replaces replicas one at a time (round-robin), so capacity never
        drops to zero.  ``target`` is what the scorer's constructor takes
        (a fitted pipeline, or a bundle directory for the pool); a scorer
        without hot-swap raises :class:`~repro.exceptions.DeploymentError`.
        Emits a ``deploy.swap`` span/event and bumps the ``deploy.swaps``
        counter.
        """
        telem = get_telemetry()
        with telem.span("deploy.swap", trace="new"):
            self.scorer.reload(target, model_version=model_version)
        telem.counter("deploy.swaps").inc()
        telem.event("deploy.swap", model_version=self.scorer.model_version)
        with self._stats_lock:
            self._counts["reloads"] += 1

    def set_scorer(self, scorer: Scorer) -> None:
        """Swap the scorer object itself (the canary split install path).

        The replacement must be a :class:`~repro.serving.results.Scorer`
        of the same ``(H, W)`` frames (else
        :class:`~repro.exceptions.DeploymentError`); dispatch threads pick
        it up on their next batch.  Used by
        :class:`~repro.deploy.CanaryController` to install and remove a
        :class:`~repro.deploy.CanarySplitScorer`; for a plain model
        upgrade prefer :meth:`reload`, which drains per replica.
        """
        if not isinstance(scorer, Scorer):
            raise DeploymentError(f"set_scorer needs a Scorer, got {type(scorer).__name__}")
        expected = tuple(self.scorer.image_shape)
        offered = tuple(scorer.image_shape)
        if expected != offered:
            raise DeploymentError(
                f"scorer swap shape mismatch: serving {expected}, "
                f"candidate scores {offered}"
            )
        self.scorer = scorer

    def attach_shadow(self, shadow: Optional[Any]) -> None:
        """Attach (or with ``None`` detach) a shadow-scoring observer.

        The observer's ``offer(frame, scored)`` is called for every
        ``Scored`` outcome after it resolves — mirroring can therefore
        never delay or change a response.  See
        :class:`~repro.deploy.ShadowRunner`.
        """
        self._shadow = shadow

    # -- introspection ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counts plus end-to-end latency percentiles (milliseconds).

        ``latency_ms`` covers the last 1024 scored requests; its ``count``
        is the lifetime number of scored requests.

        Includes the loaded model's identity — ``model_version`` (registry
        version or bundle hash, when the scorer has one) and ``dtype`` —
        so operators can tell *what* is serving, not just the
        ``last_trace_id`` of whatever it served.
        """
        with self._stats_lock:
            counts = dict(self._counts)
            latencies = list(self._latency.window)
            scored_ever = self._latency.observed
            last_trace_id = self._last_trace_id
            in_flight = self._in_flight
        summary: Dict[str, Any] = dict(counts)
        summary["queue_depth"] = len(self._batcher)
        if self.admission is not None:
            admission_stats = self.admission.stats()
            admission_stats["in_flight"] = in_flight
            admission_stats["queue_depths"] = self._batcher.depths()
            summary["admission"] = admission_stats
        scorer = self.scorer
        if scorer.model_version is not None:
            summary["model_version"] = scorer.model_version
        summary["dtype"] = np.dtype(scorer.dtype).name
        if last_trace_id is not None:
            summary["last_trace_id"] = last_trace_id
        if self.breaker is not None:
            summary["breaker"] = self.breaker.stats()
        ledger = self._ledger
        if ledger is not None:
            summary["ledger"] = ledger.stats()
        # percentile() is NaN on empty input; stats() feeds wire JSON, so
        # quote 0.0 for "no data" instead.  The count is a lifetime count;
        # the figures cover the last _LATENCY_WINDOW scored requests.
        summary["latency_ms"] = {
            "count": scored_ever,
            "mean": float(np.mean(latencies) * 1e3) if latencies else 0.0,
            "p50": percentile(latencies, 50.0) * 1e3 if latencies else 0.0,
            "p95": percentile(latencies, 95.0) * 1e3 if latencies else 0.0,
            "p99": percentile(latencies, 99.0) * 1e3 if latencies else 0.0,
            "max": max(latencies) * 1e3 if latencies else 0.0,
        }
        if counts["batches"]:
            summary["mean_batch_size"] = counts["scored"] / counts["batches"]
        return summary

    # -- lifecycle -------------------------------------------------------
    def close(self) -> None:
        """Stop dispatch, fail queued requests, release the scorer."""
        if self._closed:
            return
        self._closed = True
        leftovers = self._batcher.close()
        for thread in self._threads:
            thread.join(timeout=10.0)
        closed = Failed(error="engine closed")
        telem = get_telemetry()
        for request in leftovers:
            self._finish(request, closed, telem, time.monotonic() - request.enqueued_at)
        self.scorer.close()

    def __enter__(self) -> "ServingEngine":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
