"""Typed request outcomes for the serving engine.

Every request submitted to :class:`repro.serving.ServingEngine` resolves
to exactly one of six outcome types — admission control and failures are
*values*, not exceptions, so a frontend can serialize them onto the wire
without a try/except ladder:

* :class:`Scored` — the frame was scored; carries the verdict and latency.
* :class:`Rejected` — refused before entering the queue, by admission
  policy (rate limit, adaptive concurrency limit, or deadline-aware
  shedding) or because the frame holds a NaN or infinite pixel; carries a
  machine-readable reason and is never retried.
* :class:`Overloaded` — rejected at admission because the bounded request
  queue was full (backpressure; the engine never queues unboundedly).
* :class:`DeadlineExceeded` — admitted, but its deadline passed while it
  waited in the queue; dropped without scoring.
* :class:`Degraded` — the backend was unavailable (circuit breaker open,
  or retries exhausted) and the engine's fail-safe policy substituted a
  conservative verdict instead of failing the request.
* :class:`Failed` — the scoring backend raised (or the engine shut down).

:class:`PendingResult` is the future handed back by ``submit``; callers
block on :meth:`PendingResult.result`.  :class:`Scorer` is the backend
contract the engine scores through, and :class:`BatchVerdicts` is what
its ``score_batch`` returns.
"""

from __future__ import annotations

import abc
import threading
from dataclasses import dataclass
from typing import Any, ClassVar, Optional, Tuple, Union

import numpy as np

from repro.exceptions import DeploymentError, ServingError


@dataclass(frozen=True)
class Scored:
    """Successful outcome: one frame's novelty verdict.

    Attributes
    ----------
    score:
        Loss-oriented novelty score (higher = more novel).
    is_novel:
        The detector's threshold decision.
    margin:
        Signed distance past the threshold (positive = novel side).
    batch_size:
        Size of the micro-batch this frame was scored in.
    latency_s:
        End-to-end seconds from admission to verdict (queue wait included).
    retries:
        Backend retries spent before this verdict (0 on a clean first try).
    model_version:
        Registry version (or bundle config hash) of the model that scored
        this frame, when its scorer has one — under a hot-swap or a
        canary split this is the only record of *which* model answered.
    """

    status: ClassVar[str] = "ok"

    score: float
    is_novel: bool
    margin: float
    batch_size: int
    latency_s: float
    retries: int = 0
    model_version: Optional[str] = None


@dataclass(frozen=True)
class Rejected:
    """Refused at submit time, before any work was queued.

    Unlike :class:`Overloaded` (a full queue — transient backpressure),
    a ``Rejected`` outcome is a decision about the request itself: the
    frame holds a NaN or infinite pixel (checked on every engine), or,
    under a QoS policy, the client exceeded its quota, the adaptive
    concurrency limit is shedding load, or the request's deadline cannot
    be met by the current queue.  Rejections are cheap by construction
    (no frame ever enters the queue) and are deliberately not retried by
    the engine's reliability machinery — retrying against the same
    overloaded node is exactly the behavior admission control exists to
    prevent, and a corrupt frame stays corrupt.

    Attributes
    ----------
    reason:
        Machine-readable cause: ``"non_finite_frame"`` (the label the
        stream monitor's frame sanitizer uses), or one of
        :data:`~repro.serving.admission.REJECTION_REASONS`
        (``"rate_limited"`` / ``"concurrency_limit"`` /
        ``"deadline_unmeetable"``).
    qos_class:
        Priority class the request resolved to.
    client_id:
        Client identity the decision was keyed on (``None`` = anonymous).
    retry_after_ms:
        For rate-limited rejections, when the client's token bucket will
        admit again; ``None`` for the other reasons.
    """

    status: ClassVar[str] = "rejected"

    reason: str
    qos_class: str
    client_id: Optional[str] = None
    retry_after_ms: Optional[float] = None


@dataclass(frozen=True)
class Overloaded:
    """Rejected at admission: the bounded request queue was full."""

    status: ClassVar[str] = "overloaded"

    queue_depth: int
    capacity: int


@dataclass(frozen=True)
class DeadlineExceeded:
    """Dropped unscored: the request's deadline passed while queued."""

    status: ClassVar[str] = "deadline_exceeded"

    waited_s: float
    deadline_s: float


@dataclass(frozen=True)
class Degraded:
    """Unscorable, but answered: the engine's fail-safe verdict.

    Produced when the circuit breaker is open or retries are exhausted and
    the engine was configured with a fail-safe policy (``fail_safe !=
    "fail"``).  ``is_novel`` is the *policy's* conservative verdict, not a
    measurement — a downstream safety loop should treat it as "assume the
    worst", which for a novelty monitor means hand control back.

    Attributes
    ----------
    reason:
        Why the frame could not be scored.
    is_novel:
        The substituted verdict (``True`` under the ``"novel"`` policy).
    policy:
        Name of the fail-safe policy that produced the verdict.
    """

    status: ClassVar[str] = "degraded"

    reason: str
    is_novel: bool
    policy: str


@dataclass(frozen=True)
class Failed:
    """The scoring backend raised, or the engine closed mid-flight."""

    status: ClassVar[str] = "failed"

    error: str


RequestOutcome = Union[
    Scored, Rejected, Overloaded, DeadlineExceeded, Degraded, Failed
]


class PendingResult:
    """A one-shot future resolving to a :data:`RequestOutcome`."""

    __slots__ = ("_event", "_outcome")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._outcome: Optional[RequestOutcome] = None

    def resolve(self, outcome: RequestOutcome) -> None:
        """Deliver the outcome (first resolution wins; later ones ignored)."""
        if self._outcome is None:
            self._outcome = outcome
        self._event.set()

    def done(self) -> bool:
        """Whether an outcome has been delivered."""
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> RequestOutcome:
        """Block until the outcome arrives (``ServingError`` on timeout)."""
        if not self._event.wait(timeout):
            raise ServingError(
                f"request did not resolve within {timeout} seconds"
            )
        assert self._outcome is not None
        return self._outcome


@dataclass(frozen=True)
class BatchVerdicts:
    """Vectorized verdicts for one scored micro-batch (scorer output).

    ``model_version`` names the model that produced the batch (a registry
    version or bundle hash, ``None`` when the scorer was given none); the
    engine stamps it onto every ``Scored`` outcome of the batch.
    """

    scores: np.ndarray
    is_novel: np.ndarray
    margins: np.ndarray
    model_version: Optional[str] = None

    def __post_init__(self) -> None:
        n = len(self.scores)
        if len(self.is_novel) != n or len(self.margins) != n:
            raise ServingError(
                f"inconsistent batch verdict lengths: {n}, "
                f"{len(self.is_novel)}, {len(self.margins)}"
            )

    def __len__(self) -> int:
        """Number of frames this batch scored."""
        return len(self.scores)


class Scorer(abc.ABC):
    """The backend contract :class:`~repro.serving.ServingEngine` scores through.

    Subclasses implement :meth:`score_batch` and set ``image_shape`` (the
    ``(H, W)`` every submitted frame must have) and ``dtype`` (the
    precision frames are coerced to before scoring).  The remaining
    members have defaults: one dispatch thread, no model version, nothing
    to release on :meth:`close`, and no hot-swap.
    """

    image_shape: Tuple[int, int]
    dtype: np.dtype
    #: Number of engine dispatch threads this scorer can keep busy.
    replicas: int = 1
    #: Registry version (or bundle config hash) of the model being served.
    model_version: Optional[str] = None

    @abc.abstractmethod
    def score_batch(self, frames: np.ndarray) -> BatchVerdicts:
        """Vectorized verdicts for an ``(N, H, W)`` stack."""

    def reload(self, target: Any, model_version: Optional[str] = None) -> None:
        """Hot-swap the served model; refused unless a subclass supports it."""
        raise DeploymentError(f"scorer {type(self).__name__} does not support hot-swap")

    def close(self) -> None:
        """Release the backend's resources (nothing by default)."""
