"""Exception hierarchy for the ``repro`` library.

All library-specific errors derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to distinguish configuration problems from runtime state
problems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """A configuration value is invalid or inconsistent.

    Raised eagerly at construction time (e.g. a dataclass ``__post_init__``)
    so that invalid setups fail before any expensive work starts.
    """


class ShapeError(ReproError):
    """An array has the wrong shape or dimensionality for an operation."""


class NotFittedError(ReproError):
    """A component that must be trained/fitted first was used prematurely.

    For example calling :meth:`repro.novelty.NoveltyDetector.predict` before
    :meth:`~repro.novelty.NoveltyDetector.fit`.
    """


class SerializationError(ReproError):
    """A model checkpoint could not be written or read back consistently."""


class ArtifactError(SerializationError):
    """A serving artifact bundle is missing, corrupted, or incompatible.

    Raised by :mod:`repro.serving.artifacts` when a bundle directory fails
    manifest validation (schema/version mismatch, config-hash mismatch,
    missing files) — always with a message naming the exact problem.
    """


class ServingError(ReproError):
    """The serving runtime was misused or failed at request time."""


class MalformedMessageError(ServingError):
    """A whole wire message arrived, but its body is not a UTF-8 JSON object.

    The length-prefixed framing is still intact, so the server answers
    with an ``error`` reply and keeps reading the connection; a lost
    frame (EOF mid-message, an oversize length) is a plain
    :class:`ServingError` and closes it.
    """


class RequestRejectedError(ServingError):
    """The server refused a request at admission (client-side view).

    Raised by :meth:`~repro.serving.ServingClient.score_strict` when the
    wire response carries ``status: "rejected"`` — the server's admission
    policy (quota, concurrency limit, or deadline shedding) refused the
    request before queueing it.  Do not blindly retry: honor
    :attr:`retry_after_ms` when present.
    """

    def __init__(
        self,
        message: str,
        reason: str = "",
        qos_class: str = "",
        retry_after_ms=None,
    ) -> None:
        super().__init__(message)
        #: Machine-readable rejection reason from the server.
        self.reason = reason
        #: Priority class the request resolved to on the server.
        self.qos_class = qos_class
        #: Suggested client backoff in milliseconds (``None`` if the
        #: server did not provide one).
        self.retry_after_ms = retry_after_ms


class ServerOverloadedError(RequestRejectedError):
    """The server's bounded request queue was full (``status: "overloaded"``).

    A transient backpressure signal rather than a policy decision —
    retrying after a short backoff is reasonable, unlike for its parent
    :class:`RequestRejectedError`.
    """


class RequestTimedOutError(ServingError):
    """The request was admitted but its deadline passed while queued
    (``status: "deadline_exceeded"``)."""


class RequestFailedError(ServingError):
    """The server answered ``status: "failed"`` or ``"error"`` — the
    scoring backend raised, the engine shut down mid-flight, or the
    request itself was malformed."""


class WorkerCrashError(ServingError):
    """A worker-pool replica died (or hung) while handling a request.

    The pool restarts crashed workers automatically; this surfaces only
    when a request could not be completed even after a restart-and-retry.
    """


class ReliabilityError(ReproError):
    """A fault-tolerance component was misused or tripped at runtime."""


class CircuitOpenError(ReliabilityError):
    """A call was refused because the circuit breaker is open.

    The serving engine normally converts this into a typed ``Degraded``
    outcome; it escapes only when a caller drives a
    :class:`~repro.reliability.CircuitBreaker` directly.
    """


class InjectedFaultError(ReliabilityError):
    """A deliberate failure raised by the chaos fault injector.

    Never raised in production paths — only by
    :class:`~repro.reliability.FaultInjector` under an ``"exception"``
    fault, so tests can distinguish injected failures from real ones.
    """


class DeploymentError(ReproError):
    """A model-lifecycle operation (registry, hot-swap, rollout) failed.

    Base class for everything :mod:`repro.deploy` raises, so a deployment
    driver can catch the whole lifecycle surface with one clause.
    """


class RegistryError(DeploymentError):
    """The model registry was misused or its on-disk state is inconsistent.

    Raised by :class:`~repro.deploy.ModelRegistry` for unknown versions,
    duplicate registrations, tampered bundles (manifest hash drift), and
    invalid status transitions.
    """


class RolloutError(DeploymentError):
    """A rollout state machine transition or canary scoring pass failed.

    Raised by :class:`~repro.deploy.CanaryController` on invalid state
    transitions and by :class:`~repro.deploy.CanarySplitScorer` when the
    canary model returns non-finite scores (so the engine's retry/breaker
    machinery treats a sick canary exactly like a failing backend).
    """


class DurabilityError(ReproError):
    """Durable-state journaling or crash recovery failed.

    Base class for everything :mod:`repro.durability` raises, so a
    recovery driver can catch the whole durability surface with one
    clause.  Note that *corruption found on disk* deliberately does not
    raise — corrupt journal segments are quarantined and recovery
    proceeds from the last valid prefix; this type covers misuse
    (journaling to a closed journal, restoring an incompatible state
    dict) and unrecoverable environment failures.
    """


class JournalError(DurabilityError):
    """The write-ahead journal was misused or could not persist a record.

    Raised by :class:`~repro.durability.Journal` for appends after
    ``close()``, unwritable journal directories, and records that cannot
    be serialized to JSON.
    """


class StateRestoreError(DurabilityError):
    """A recovered state dict does not fit the component restoring it.

    Raised by ``load_state_dict`` implementations when the journaled
    state disagrees with the live component's configuration (window
    sizes, fail-safe policy, rollout version) — restoring it silently
    would resurrect a *different* monitor than the one that crashed.
    """


class SupervisorError(DurabilityError):
    """The supervisor runtime was misconfigured or exhausted its restart
    budget without the child ever becoming healthy."""


class StageError(ReproError):
    """A stage of a compiled :class:`~repro.pipeline.ScoringPlan` failed.

    Raised by the plan's per-stage fault guard, wrapping whatever the stage
    actually raised; :attr:`stage` names the failing stage so callers (the
    stream monitor's degraded path, serving outcomes) can attribute the
    fault without parsing messages.
    """

    def __init__(self, message: str, stage: str = "") -> None:
        super().__init__(message)
        #: Name of the stage that failed (``""`` when unknown).
        self.stage = stage


class ExperimentError(ReproError):
    """An experiment harness was misused (unknown id, missing artifact...)."""
