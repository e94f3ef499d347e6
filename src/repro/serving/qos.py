"""QoS policy primitives for serving admission control.

This module defines the *policy* half of the admission subsystem — plain
data describing how traffic should be treated — plus the three mechanism
primitives the :class:`~repro.serving.admission.AdmissionController`
composes:

* :class:`TokenBucket` — per-client rate limiting (requests/second with a
  burst allowance), refilled lazily from a monotonic clock and
  serializable via ``state_dict`` so quotas survive a crash.
* :class:`AimdLimiter` — an additive-increase / multiplicative-decrease
  concurrency limit.  Every successfully scored batch nudges the limit
  up; every overload signal (deadline expiry, breaker-open) cuts it
  multiplicatively, with a cooldown so one bursty batch cannot collapse
  the limit in a single tick.
* :class:`ServiceTimeEstimator` — a sliding window over recent per-frame
  scoring times, used to predict queue delay for deadline-aware shedding.

Policy is a small fixed set of priority classes (:data:`PRIORITY_CLASSES`:
``critical`` / ``interactive`` / ``batch``), each with a scheduling
weight, a bounded per-class queue, an optional default deadline, and a
``sheddable`` bit — non-sheddable classes (``critical`` by default) are
exempt from the AIMD limiter and deadline shedding, so safety-critical
traffic is only ever refused by an explicit per-client quota.

Operators ship a :class:`QosPolicy` as JSON (``repro serve
--qos-config policy.json``); :func:`load_qos_policy` validates eagerly
and raises :class:`~repro.exceptions.ConfigurationError` naming the exact
offending key, which the CLI turns into an exit-2.  See
``docs/admission.md``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Deque, Dict, Mapping, Optional, Tuple

from repro.exceptions import ConfigurationError, StateRestoreError

#: The fixed set of priority classes, highest priority first.  The set is
#: deliberately closed — scheduling weights only mean something when every
#: operator and client agrees on the class names.
PRIORITY_CLASSES = ("critical", "interactive", "batch")

#: Class assumed when a request (or policy) does not name one.
DEFAULT_CLASS = "interactive"


def _require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


@dataclass(frozen=True)
class RateLimit:
    """A token-bucket quota: sustained ``rate_per_s`` with ``burst`` headroom.

    Attributes
    ----------
    rate_per_s:
        Sustained admission rate in requests per second.
    burst:
        Bucket capacity — how many requests may arrive back-to-back before
        the sustained rate applies.
    """

    rate_per_s: float
    burst: float = 1.0

    def __post_init__(self) -> None:
        _require(self.rate_per_s > 0, f"rate_per_s must be > 0, got {self.rate_per_s}")
        _require(self.burst >= 1, f"burst must be >= 1, got {self.burst}")


@dataclass(frozen=True)
class ClassPolicy:
    """Scheduling policy for one priority class.

    Attributes
    ----------
    weight:
        Share of batch slots under contention (smooth weighted
        round-robin); only relative magnitudes matter.
    queue_capacity:
        Bound on this class's queue; ``None`` inherits the engine's
        ``queue_capacity``.
    default_deadline_ms:
        Deadline applied to requests of this class that do not carry one;
        ``None`` falls back to the engine default.
    sheddable:
        Whether the AIMD limiter and deadline-aware shedding may refuse
        this class.  ``False`` exempts it (the right setting for
        ``critical``): such requests are only rejected by an explicit
        per-client rate limit or a full queue.
    """

    weight: float = 1.0
    queue_capacity: Optional[int] = None
    default_deadline_ms: Optional[float] = None
    sheddable: bool = True

    def __post_init__(self) -> None:
        _require(self.weight > 0, f"weight must be > 0, got {self.weight}")
        _require(
            self.queue_capacity is None or self.queue_capacity >= 1,
            f"queue_capacity must be >= 1, got {self.queue_capacity}",
        )
        _require(
            self.default_deadline_ms is None or self.default_deadline_ms > 0,
            f"default_deadline_ms must be positive, got {self.default_deadline_ms}",
        )


@dataclass(frozen=True)
class AimdConfig:
    """Additive-increase / multiplicative-decrease concurrency policy.

    Attributes
    ----------
    initial:
        Starting concurrency limit (admitted-but-unresolved requests).
    min_limit / max_limit:
        Clamp bounds the limit can never leave.
    increase:
        Additive step applied per successfully scored batch.
    decrease:
        Multiplicative factor applied per overload signal (``0 < x < 1``).
    cooldown_s:
        Minimum seconds between two decreases, so a burst of deadline
        expiries from one stall counts as a single backoff.
    """

    initial: int = 32
    min_limit: int = 2
    max_limit: int = 1024
    increase: float = 1.0
    decrease: float = 0.5
    cooldown_s: float = 0.25

    def __post_init__(self) -> None:
        _require(self.min_limit >= 1, f"min_limit must be >= 1, got {self.min_limit}")
        _require(
            self.min_limit <= self.initial <= self.max_limit,
            f"need min_limit <= initial <= max_limit, got "
            f"{self.min_limit} / {self.initial} / {self.max_limit}",
        )
        _require(self.increase > 0, f"increase must be > 0, got {self.increase}")
        _require(0 < self.decrease < 1, f"decrease must be in (0, 1), got {self.decrease}")
        _require(self.cooldown_s >= 0, f"cooldown_s must be >= 0, got {self.cooldown_s}")


def _default_classes() -> Dict[str, ClassPolicy]:
    return {
        "critical": ClassPolicy(weight=16.0, sheddable=False),
        "interactive": ClassPolicy(weight=4.0),
        "batch": ClassPolicy(weight=1.0),
    }


@dataclass(frozen=True)
class QosPolicy:
    """Complete admission policy for one serving engine.

    Attributes
    ----------
    classes:
        Per-class scheduling policy, keyed by a :data:`PRIORITY_CLASSES`
        name.  Classes not listed do not exist for this engine.
    default_class:
        Class assumed for requests that carry no priority.
    rate_limit:
        Quota applied to every client without an explicit override;
        ``None`` leaves unlisted clients unmetered.
    client_rate_limits:
        Per-client quota overrides, keyed by the wire-protocol client id.
    shed_deadlines:
        Whether to refuse sheddable requests whose deadline the queue
        cannot meet (predicted delay > deadline).
    shed_safety_factor:
        Multiplier on the predicted delay before comparing against the
        deadline (> 1 sheds earlier, < 1 later).
    aimd:
        Adaptive concurrency policy; ``None`` disables the limiter.
    estimator_window:
        Sliding-window length (batches) of the service-time estimate.
    """

    classes: Mapping[str, ClassPolicy] = field(default_factory=_default_classes)
    default_class: str = DEFAULT_CLASS
    rate_limit: Optional[RateLimit] = None
    client_rate_limits: Mapping[str, RateLimit] = field(default_factory=dict)
    shed_deadlines: bool = True
    shed_safety_factor: float = 1.0
    aimd: Optional[AimdConfig] = field(default_factory=AimdConfig)
    estimator_window: int = 128

    def __post_init__(self) -> None:
        _require(bool(self.classes), "a QoS policy needs at least one priority class")
        for name in self.classes:
            _require(
                name in PRIORITY_CLASSES,
                f"unknown priority class {name!r}; expected one of "
                f"{', '.join(PRIORITY_CLASSES)}",
            )
        _require(
            self.default_class in self.classes,
            f"default_class {self.default_class!r} is not a configured class",
        )
        _require(
            self.shed_safety_factor > 0,
            f"shed_safety_factor must be > 0, got {self.shed_safety_factor}",
        )
        _require(
            1 <= self.estimator_window <= sys.maxsize,
            f"estimator_window must be in [1, {sys.maxsize}], got {self.estimator_window}",
        )

    @classmethod
    def default(cls) -> "QosPolicy":
        """The stock three-class policy: critical 16 / interactive 4 / batch 1,
        AIMD on, deadline shedding on, no rate limits."""
        return cls()

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "QosPolicy":
        """Build a policy from its JSON form, validating every key eagerly."""
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"QoS policy must be a JSON object, got {type(payload).__name__}"
            )
        known = {
            "classes",
            "default_class",
            "rate_limit",
            "client_rate_limits",
            "shed_deadlines",
            "shed_safety_factor",
            "aimd",
            "estimator_window",
        }
        unknown = sorted(set(payload) - known)
        _require(not unknown, f"unknown QoS policy keys: {', '.join(unknown)}")
        kwargs: Dict[str, Any] = {}
        if "classes" in payload:
            kwargs["classes"] = {
                str(name): _class_policy_from_dict(name, spec)
                for name, spec in _as_mapping("classes", payload["classes"]).items()
            }
        if "default_class" in payload:
            kwargs["default_class"] = str(payload["default_class"])
        if "rate_limit" in payload and payload["rate_limit"] is not None:
            kwargs["rate_limit"] = _rate_limit_from_dict("rate_limit", payload["rate_limit"])
        if "client_rate_limits" in payload:
            kwargs["client_rate_limits"] = {
                str(client): _rate_limit_from_dict(f"client_rate_limits[{client!r}]", spec)
                for client, spec in _as_mapping(
                    "client_rate_limits", payload["client_rate_limits"]
                ).items()
            }
        if "shed_deadlines" in payload:
            kwargs["shed_deadlines"] = bool(payload["shed_deadlines"])
        if "shed_safety_factor" in payload:
            kwargs["shed_safety_factor"] = _as_number(
                "shed_safety_factor", payload["shed_safety_factor"]
            )
        if "aimd" in payload:
            if payload["aimd"] is None:
                kwargs["aimd"] = None
            else:
                kwargs["aimd"] = _aimd_from_dict(payload["aimd"])
        if "estimator_window" in payload:
            kwargs["estimator_window"] = int(
                _as_number("estimator_window", payload["estimator_window"])
            )
        return cls(**kwargs)

    def to_dict(self) -> Dict[str, Any]:
        """The policy's JSON form (round-trips through :meth:`from_dict`)."""
        payload: Dict[str, Any] = {
            "classes": {
                name: {
                    "weight": spec.weight,
                    "queue_capacity": spec.queue_capacity,
                    "default_deadline_ms": spec.default_deadline_ms,
                    "sheddable": spec.sheddable,
                }
                for name, spec in self.classes.items()
            },
            "default_class": self.default_class,
            "shed_deadlines": self.shed_deadlines,
            "shed_safety_factor": self.shed_safety_factor,
            "estimator_window": self.estimator_window,
        }
        if self.rate_limit is not None:
            payload["rate_limit"] = {
                "rate_per_s": self.rate_limit.rate_per_s,
                "burst": self.rate_limit.burst,
            }
        if self.client_rate_limits:
            payload["client_rate_limits"] = {
                client: {"rate_per_s": limit.rate_per_s, "burst": limit.burst}
                for client, limit in self.client_rate_limits.items()
            }
        if self.aimd is not None:
            payload["aimd"] = {
                "initial": self.aimd.initial,
                "min_limit": self.aimd.min_limit,
                "max_limit": self.aimd.max_limit,
                "increase": self.aimd.increase,
                "decrease": self.aimd.decrease,
                "cooldown_s": self.aimd.cooldown_s,
            }
        else:
            payload["aimd"] = None
        return payload


def _as_mapping(key: str, value: Any) -> Mapping[str, Any]:
    _require(isinstance(value, Mapping), f"{key} must be a JSON object")
    return value


def _as_number(key: str, value: Any) -> float:
    _require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{key} must be a number, got {value!r}",
    )
    try:
        number = float(value)
    except OverflowError:  # an integer too large for any float
        number = math.inf
    _require(math.isfinite(number), f"{key} must be finite, got {value!r}")
    return number


def _class_policy_from_dict(name: str, spec: Any) -> ClassPolicy:
    spec = _as_mapping(f"classes[{name!r}]", spec)
    known = {"weight", "queue_capacity", "default_deadline_ms", "sheddable"}
    unknown = sorted(set(spec) - known)
    _require(not unknown, f"unknown keys in classes[{name!r}]: {', '.join(unknown)}")
    kwargs: Dict[str, Any] = {}
    if "weight" in spec:
        kwargs["weight"] = _as_number(f"classes[{name!r}].weight", spec["weight"])
    if "queue_capacity" in spec and spec["queue_capacity"] is not None:
        kwargs["queue_capacity"] = int(
            _as_number(f"classes[{name!r}].queue_capacity", spec["queue_capacity"])
        )
    if "default_deadline_ms" in spec and spec["default_deadline_ms"] is not None:
        kwargs["default_deadline_ms"] = _as_number(
            f"classes[{name!r}].default_deadline_ms", spec["default_deadline_ms"]
        )
    if "sheddable" in spec:
        kwargs["sheddable"] = bool(spec["sheddable"])
    return ClassPolicy(**kwargs)


def _rate_limit_from_dict(key: str, spec: Any) -> RateLimit:
    spec = _as_mapping(key, spec)
    unknown = sorted(set(spec) - {"rate_per_s", "burst"})
    _require(not unknown, f"unknown keys in {key}: {', '.join(unknown)}")
    _require("rate_per_s" in spec, f"{key} requires rate_per_s")
    kwargs: Dict[str, Any] = {
        "rate_per_s": _as_number(f"{key}.rate_per_s", spec["rate_per_s"])
    }
    if "burst" in spec:
        kwargs["burst"] = _as_number(f"{key}.burst", spec["burst"])
    return RateLimit(**kwargs)


def _aimd_from_dict(spec: Any) -> AimdConfig:
    spec = _as_mapping("aimd", spec)
    known = {"initial", "min_limit", "max_limit", "increase", "decrease", "cooldown_s"}
    unknown = sorted(set(spec) - known)
    _require(not unknown, f"unknown keys in aimd: {', '.join(unknown)}")
    kwargs: Dict[str, Any] = {}
    for key in ("initial", "min_limit", "max_limit"):
        if key in spec:
            kwargs[key] = int(_as_number(f"aimd.{key}", spec[key]))
    for key in ("increase", "decrease", "cooldown_s"):
        if key in spec:
            kwargs[key] = _as_number(f"aimd.{key}", spec[key])
    return AimdConfig(**kwargs)


def load_qos_policy(path) -> QosPolicy:
    """Load and validate a JSON QoS policy file.

    Raises :class:`~repro.exceptions.ConfigurationError` for a missing
    file, malformed JSON, or any invalid/unknown key — always naming the
    problem, so ``repro serve --qos-config`` can exit 2 with a usable
    message.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read QoS policy {path}: {exc}") from exc
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ConfigurationError(f"QoS policy {path} is not valid JSON: {exc}") from exc
    return QosPolicy.from_dict(payload)


class TokenBucket:
    """A lazily refilled token bucket (one per client id).

    Not thread-safe on its own; the
    :class:`~repro.serving.admission.AdmissionController` serializes
    access under its admission lock.
    """

    def __init__(
        self,
        limit: RateLimit,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.limit = limit
        self._clock = clock
        self._tokens = float(limit.burst)
        self._refilled_at = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._refilled_at)
        self._refilled_at = now
        self._tokens = min(
            float(self.limit.burst), self._tokens + elapsed * self.limit.rate_per_s
        )

    @property
    def tokens(self) -> float:
        """Tokens currently available (after a lazy refill)."""
        self._refill()
        return self._tokens

    def try_take(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; ``False`` means rate-limited."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False

    def retry_after_s(self, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will be available at the refill rate."""
        self._refill()
        deficit = max(0.0, n - self._tokens)
        return deficit / self.limit.rate_per_s

    def state_dict(self) -> Dict[str, Any]:
        """Durable form: the current token count (clock state is rebuilt)."""
        return {"tokens": self.tokens}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore a journaled token count, clamped into ``[0, burst]``."""
        try:
            tokens = float(state["tokens"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StateRestoreError(f"malformed token-bucket state: {state!r}") from exc
        self._tokens = min(float(self.limit.burst), max(0.0, tokens))
        self._refilled_at = self._clock()


class AimdLimiter:
    """Additive-increase / multiplicative-decrease concurrency limit."""

    def __init__(
        self,
        config: Optional[AimdConfig] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config or AimdConfig()
        self._clock = clock
        self._limit = float(self.config.initial)
        self._last_decrease = -float("inf")
        self._decreases = 0

    @property
    def limit(self) -> int:
        """Current concurrency limit (admitted-but-unresolved requests)."""
        return int(self._limit)

    @property
    def decreases(self) -> int:
        """How many overload backoffs have been applied."""
        return self._decreases

    def on_success(self) -> None:
        """A batch scored cleanly: additive increase."""
        self._limit = min(float(self.config.max_limit), self._limit + self.config.increase)

    def on_overload(self) -> None:
        """An overload signal (deadline expiry, breaker open): cut the
        limit multiplicatively, at most once per cooldown window."""
        now = self._clock()
        if now - self._last_decrease < self.config.cooldown_s:
            return
        self._last_decrease = now
        self._decreases += 1
        self._limit = max(float(self.config.min_limit), self._limit * self.config.decrease)

    def state_dict(self) -> Dict[str, Any]:
        """Durable form of the adaptive limit."""
        return {"limit": self._limit, "decreases": self._decreases}

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore a journaled limit, clamped into the configured bounds."""
        try:
            limit = float(state["limit"])
            decreases = state.get("decreases", 0)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise StateRestoreError(f"malformed AIMD state: {state!r}") from exc
        if isinstance(decreases, bool) or not isinstance(decreases, int) or decreases < 0:
            raise StateRestoreError(f"malformed AIMD decreases: {decreases!r}")
        self._limit = min(
            float(self.config.max_limit), max(float(self.config.min_limit), limit)
        )
        self._decreases = decreases


class ServiceTimeEstimator:
    """Sliding-window estimate of per-frame scoring time.

    The admission controller uses it to predict how long a newly admitted
    request would wait: ``queued_frames * per_frame_s / replicas``.  The
    estimate deliberately ignores batching amortization — it is an upper
    bound, which is the conservative direction for shedding.
    """

    def __init__(self, window: int = 128) -> None:
        _require(window >= 1, f"window must be >= 1, got {window}")
        self._samples: Deque[Tuple[float, int]] = deque(maxlen=int(window))

    def observe(self, seconds: float, frames: int) -> None:
        """Record one scored batch: wall seconds for ``frames`` frames."""
        if frames >= 1 and seconds >= 0:
            self._samples.append((float(seconds), int(frames)))

    @property
    def samples(self) -> int:
        """Number of batches currently in the window."""
        return len(self._samples)

    def per_frame_s(self) -> float:
        """Mean seconds per frame over the window (0.0 with no data)."""
        if not self._samples:
            return 0.0
        seconds = sum(s for s, _ in self._samples)
        frames = sum(f for _, f in self._samples)
        return seconds / frames if frames else 0.0

    def estimated_delay_s(self, queued_frames: int, replicas: int = 1) -> float:
        """Predicted queue delay for a request behind ``queued_frames``."""
        return queued_frames * self.per_frame_s() / max(1, replicas)
