"""Admission control: the serving front door's accept/refuse decision.

Two pieces live here, both driven by a
:class:`~repro.serving.qos.QosPolicy`:

* :class:`AdmissionController` — decides, per request and *before* any
  work is queued, whether to admit.  Checks run cheapest-first: the
  client's token bucket (quota), the AIMD concurrency limit, then
  deadline-aware shedding (refuse when the predicted queue delay already
  exceeds the request's deadline).  A refusal carries a machine-readable
  reason (:data:`REJECTION_REASONS`) that the engine turns into a typed
  :class:`~repro.serving.results.Rejected` outcome — rejections are
  answers, not errors, and are never retried against the same node.
* :class:`WeightedClassBatcher` — the multi-queue that replaces the
  single FIFO :class:`~repro.serving.batcher.MicroBatcher` when a QoS
  policy is configured: one bounded FIFO per priority class, drained by
  smooth weighted round-robin so a saturating ``batch`` client cannot
  starve ``critical`` traffic, while each class still preserves arrival
  order internally.

The controller is crash-durable: its ``state_dict`` carries every
client's remaining tokens and the adaptive concurrency limit, so a
restart under ``repro serve --journal-dir`` resumes quotas instead of
handing every client a fresh burst.  See ``docs/admission.md``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional

from collections import deque

from repro.exceptions import ConfigurationError, StateRestoreError
from repro.serving.batcher import MicroBatcher, QueuedRequest
from repro.serving.qos import (
    AimdLimiter,
    ClassPolicy,
    QosPolicy,
    ServiceTimeEstimator,
    TokenBucket,
)

#: Machine-readable rejection reasons carried on ``Rejected`` outcomes.
REJECT_RATE_LIMITED = "rate_limited"
REJECT_CONCURRENCY = "concurrency_limit"
REJECT_DEADLINE = "deadline_unmeetable"
REJECTION_REASONS = (REJECT_RATE_LIMITED, REJECT_CONCURRENCY, REJECT_DEADLINE)


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    Attributes
    ----------
    admitted:
        Whether the request may enter the queue.
    reason:
        One of :data:`REJECTION_REASONS` when refused, else ``None``.
    retry_after_ms:
        For rate-limited refusals, when the client's bucket will have a
        token again — a well-behaved client backs off at least this long.
    """

    admitted: bool
    reason: Optional[str] = None
    retry_after_ms: Optional[float] = None

    @classmethod
    def admit(cls) -> "AdmissionDecision":
        """An accepting decision."""
        return cls(admitted=True)

    @classmethod
    def reject(
        cls, reason: str, retry_after_ms: Optional[float] = None
    ) -> "AdmissionDecision":
        """A refusing decision carrying a machine-readable ``reason``."""
        return cls(admitted=False, reason=reason, retry_after_ms=retry_after_ms)


class AdmissionController:
    """Policy-driven accept/refuse decisions for the serving engine.

    Parameters
    ----------
    policy:
        The :class:`~repro.serving.qos.QosPolicy` to enforce.
    replicas:
        Scorer replica count — parallelism the delay estimate divides by.
    clock:
        Injectable monotonic clock (tests freeze it).

    Thread-safe: every admission runs under one lock (the checks are a
    few arithmetic operations, far cheaper than the frame copy that
    precedes them on the submit path).
    """

    def __init__(
        self,
        policy: QosPolicy,
        replicas: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy
        self.replicas = max(1, int(replicas))
        self._clock = clock
        self._lock = threading.Lock()
        self._buckets: Dict[str, TokenBucket] = {}
        self.aimd: Optional[AimdLimiter] = (
            AimdLimiter(policy.aimd, clock=clock) if policy.aimd is not None else None
        )
        self.estimator = ServiceTimeEstimator(policy.estimator_window)
        self._admitted = 0
        self._rejected: Dict[str, int] = {reason: 0 for reason in REJECTION_REASONS}

    # -- classification --------------------------------------------------
    def resolve_class(self, qos_class: Optional[str]) -> str:
        """Map a request's (possibly absent) priority to a configured class."""
        if qos_class is None:
            return self.policy.default_class
        if qos_class not in self.policy.classes:
            raise ConfigurationError(
                f"unknown priority class {qos_class!r}; this engine serves "
                f"{', '.join(sorted(self.policy.classes))}"
            )
        return qos_class

    def class_policy(self, qos_class: str) -> ClassPolicy:
        """The :class:`~repro.serving.qos.ClassPolicy` for ``qos_class``."""
        try:
            return self.policy.classes[qos_class]
        except KeyError:
            raise ConfigurationError(
                f"unknown priority class {qos_class!r}; this engine serves "
                f"{', '.join(sorted(self.policy.classes))}"
            ) from None

    # -- the admission decision ------------------------------------------
    def _bucket_for(self, client_id: Optional[str]) -> Optional[TokenBucket]:
        if client_id is None:
            client_id = ""
        limit = self.policy.client_rate_limits.get(client_id, self.policy.rate_limit)
        if limit is None:
            return None
        bucket = self._buckets.get(client_id)
        if bucket is None or bucket.limit is not limit:
            bucket = TokenBucket(limit, clock=self._clock)
            self._buckets[client_id] = bucket
        return bucket

    def admit(
        self,
        client_id: Optional[str],
        qos_class: str,
        deadline_s: Optional[float],
        queue_depth: int,
        in_flight: int,
    ) -> AdmissionDecision:
        """Decide one request, cheapest check first.

        ``queue_depth`` is the frames already queued, ``in_flight`` the
        admitted-but-unresolved count the AIMD limit compares against,
        ``deadline_s`` the request's *relative* deadline (``None`` = no
        deadline, never shed).
        """
        spec = self.class_policy(qos_class)
        with self._lock:
            bucket = self._bucket_for(client_id)
            if bucket is not None and not bucket.try_take():
                return self._refuse(
                    REJECT_RATE_LIMITED,
                    retry_after_ms=bucket.retry_after_s() * 1e3,
                )
            if spec.sheddable:
                if self.aimd is not None and in_flight >= self.aimd.limit:
                    return self._refuse(REJECT_CONCURRENCY)
                if self.policy.shed_deadlines and deadline_s is not None:
                    predicted = self.estimator.estimated_delay_s(
                        queue_depth, self.replicas
                    )
                    if predicted * self.policy.shed_safety_factor > deadline_s:
                        return self._refuse(REJECT_DEADLINE)
            self._admitted += 1
            return AdmissionDecision.admit()

    def _refuse(
        self, reason: str, retry_after_ms: Optional[float] = None
    ) -> AdmissionDecision:
        self._rejected[reason] = self._rejected.get(reason, 0) + 1
        return AdmissionDecision.reject(reason, retry_after_ms=retry_after_ms)

    # -- feedback from the dispatch path ---------------------------------
    def observe_batch(self, seconds: float, frames: int) -> None:
        """A batch scored cleanly: feed the estimator, grow the limit."""
        with self._lock:
            self.estimator.observe(seconds, frames)
            if self.aimd is not None:
                self.aimd.on_success()

    def on_overload(self, signal: str) -> None:
        """An overload signal (``"deadline_exceeded"``/``"breaker_open"``):
        back the concurrency limit off multiplicatively."""
        with self._lock:
            if self.aimd is not None:
                self.aimd.on_overload()

    # -- durability ------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """Durable form: per-client bucket tokens plus the AIMD limit."""
        with self._lock:
            state: Dict[str, Any] = {
                "buckets": {
                    client: bucket.state_dict()
                    for client, bucket in self._buckets.items()
                },
            }
            if self.aimd is not None:
                state["aimd"] = self.aimd.state_dict()
            return state

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore journaled quota/limit state.

        Buckets for clients whose quota the current policy no longer
        meters are dropped (the policy, not the journal, is authoritative
        for *whether* a client is limited; the journal only carries how
        much of its quota it had spent).
        """
        if not isinstance(state, Mapping):
            raise StateRestoreError(
                f"malformed admission state: {type(state).__name__}, not an object"
            )
        buckets = state.get("buckets", {})
        if not isinstance(buckets, Mapping):
            raise StateRestoreError(
                f"malformed admission state: buckets is {type(buckets).__name__}"
            )
        with self._lock:
            for client, bucket_state in buckets.items():
                bucket = self._bucket_for(str(client))
                if bucket is not None:
                    bucket.load_state_dict(bucket_state)
            if self.aimd is not None and "aimd" in state:
                self.aimd.load_state_dict(state["aimd"])

    # -- introspection ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Admission counters, limiter state, and the current estimate."""
        with self._lock:
            stats: Dict[str, Any] = {
                "admitted": self._admitted,
                "rejected": dict(self._rejected),
                "clients_metered": len(self._buckets),
                "service_time_ms_per_frame": self.estimator.per_frame_s() * 1e3,
            }
            if self.aimd is not None:
                stats["concurrency_limit"] = self.aimd.limit
                stats["aimd_decreases"] = self.aimd.decreases
            return stats


class WeightedClassBatcher:
    """Per-class bounded FIFOs drained by smooth weighted round-robin.

    Drop-in replacement for :class:`~repro.serving.batcher.MicroBatcher`
    (same ``offer`` / ``next_batch`` / ``close`` / ``len`` surface) that
    routes each :class:`~repro.serving.batcher.QueuedRequest` to its
    class's queue and assembles micro-batches by repeatedly picking the
    smooth-WRR winner among the non-empty classes — under contention each
    class receives batch slots proportional to its configured weight,
    with no reordering inside a class.

    Parameters
    ----------
    policy:
        The QoS policy supplying class names, weights, and per-class
        queue capacities.
    max_batch_size:
        Largest batch a single :meth:`next_batch` call returns.
    default_capacity:
        Queue bound for classes whose policy leaves ``queue_capacity``
        unset (the engine passes its ``queue_capacity``).
    """

    def __init__(
        self,
        policy: QosPolicy,
        max_batch_size: int = 8,
        default_capacity: int = 64,
    ) -> None:
        if max_batch_size < 1:
            raise ConfigurationError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if default_capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {default_capacity}")
        self.policy = policy
        self.max_batch_size = int(max_batch_size)
        self._queues: Dict[str, Deque[QueuedRequest]] = {
            name: deque() for name in policy.classes
        }
        self._capacities: Dict[str, int] = {
            name: int(spec.queue_capacity or default_capacity)
            for name, spec in policy.classes.items()
        }
        self._weights: Dict[str, float] = {
            name: float(spec.weight) for name, spec in policy.classes.items()
        }
        # Smooth-WRR credit per class; mutated only under the lock.
        self._credit: Dict[str, float] = {name: 0.0 for name in policy.classes}
        self._cond = threading.Condition()
        self._closed = False
        self._bursts = 0  # open burst() blocks; consumers wait them out

    @property
    def capacity(self) -> int:
        """Total admission bound across every class queue."""
        return sum(self._capacities.values())

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def __len__(self) -> int:
        """Total queued requests across every class."""
        with self._cond:
            return sum(len(q) for q in self._queues.values())

    def class_depth(self, qos_class: str) -> int:
        """Queue depth of one class."""
        with self._cond:
            return len(self._queues[qos_class])

    def depths(self) -> Dict[str, int]:
        """Per-class queue depths (one consistent snapshot)."""
        with self._cond:
            return {name: len(q) for name, q in self._queues.items()}

    def offer(self, request: QueuedRequest) -> bool:
        """Admit into the request's class queue; ``False`` when that
        class's bounded queue is full or the batcher is closed."""
        qos_class = request.qos_class
        if qos_class not in self._queues:
            raise ConfigurationError(
                f"unknown priority class {qos_class!r}; this batcher serves "
                f"{', '.join(sorted(self._queues))}"
            )
        with self._cond:
            queue = self._queues[qos_class]
            if self._closed or len(queue) >= self._capacities[qos_class]:
                return False
            queue.append(request)
            self._cond.notify()
            return True

    def _pick(self) -> QueuedRequest:
        """Pop the smooth-WRR winner among non-empty classes (lock held;
        at least one class must be non-empty)."""
        backlogged = [name for name, q in self._queues.items() if q]
        total = sum(self._weights[name] for name in backlogged)
        winner = None
        for name in backlogged:
            self._credit[name] += self._weights[name]
            if winner is None or self._credit[name] > self._credit[winner]:
                winner = name
        self._credit[winner] -= total
        return self._queues[winner].popleft()

    #: Queue a burst whole; the same ``_cond`` / ``_bursts`` protocol.
    burst = MicroBatcher.burst

    def next_batch(self) -> Optional[List[QueuedRequest]]:
        """Block while every class queue is empty (or a burst is being
        queued), then return what is queued (up to ``max_batch_size``);
        ``None`` once closed and drained.  Same rule as
        ``MicroBatcher.next_batch``, but each slot goes to the weighted
        round-robin winner."""
        with self._cond:
            while self._bursts or not any(self._queues.values()):
                if self._closed:
                    return None
                self._cond.wait()
            size = min(sum(len(q) for q in self._queues.values()), self.max_batch_size)
            return [self._pick() for _ in range(size)]

    def close(self) -> List[QueuedRequest]:
        """Refuse further admissions, wake consumers, return leftovers
        (highest-priority class first; the caller resolves their futures)."""
        with self._cond:
            self._closed = True
            leftovers: List[QueuedRequest] = []
            for name in self._queues:
                leftovers.extend(self._queues[name])
                self._queues[name].clear()
            self._cond.notify_all()
            return leftovers
