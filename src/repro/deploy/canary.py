"""Health-gated canary rollout: shadow → canary%N → promoted | rolled-back.

The rollout state machine every model upgrade walks:

.. code-block:: text

    idle ── start_shadow() ──> shadow ── start_canary() ──> canary
                                  │                            │
                                  │ rollback()       evaluate()/step()
                                  ▼                            ▼
                             rolled_back <── gates fail   promoted (gates
                                                          clean + enough
                                                          canary traffic)

Promotion and rollback are *decisions about evidence*, and the evidence
is the signals the system already produces rather than anything bespoke:
:meth:`StreamMonitor.health() <repro.novelty.monitor.StreamMonitor.health>`
(the persistence alarm), the :mod:`repro.novelty.drift` detectors (CUSUM
on the score stream), the serving engine's circuit-breaker state, shadow
agreement from :class:`~repro.deploy.ShadowRunner`, and the canary
split's own error ledger.  :class:`RolloutGates` aggregates them into one
``evaluate()``; :class:`CanaryController` acts on the verdict — a failed
gate while the canary is live triggers an automatic revert to the primary
scorer plus a ``deploy.rollback`` telemetry event, a clean gate after
enough canary traffic hot-swaps the engine fully onto the candidate and
promotes it in the :class:`~repro.deploy.ModelRegistry`.

Traffic splitting is scorer-level: :class:`CanarySplitScorer` routes a
seeded fraction of micro-batches to the candidate and returns the routed
scorer's verdicts, which carry the version of the model that produced
them, so every ``Scored`` outcome names its model even mid-rollout.  A
candidate batch that raises or returns non-finite scores surfaces as
:class:`~repro.exceptions.RolloutError` — the engine's retry/breaker
machinery then treats the sick canary exactly like any failing backend
(requests retry, usually landing on the primary), while the split's
error ledger feeds the gate that will roll the canary back.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, RolloutError, StateRestoreError
from repro.serving.engine import PipelineScorer, ServingEngine
from repro.serving.results import BatchVerdicts, Scorer
from repro.telemetry import get_telemetry

from repro.deploy.registry import ModelRegistry
from repro.deploy.shadow import ShadowRunner

#: Rollout states (also the values of :attr:`CanaryController.state`).
IDLE = "idle"
SHADOW = "shadow"
CANARY = "canary"
PROMOTED = "promoted"
ROLLED_BACK = "rolled_back"

ROLLOUT_STATES = (IDLE, SHADOW, CANARY, PROMOTED, ROLLED_BACK)


class CanarySplitScorer(Scorer):
    """Routes a seeded fraction of micro-batches to a candidate scorer.

    Whole batches route to one model (splitting inside a batch would serve
    one VBP pass from two different networks); the fraction therefore
    holds in expectation over batches.  Each batch's verdicts are the
    routed scorer's own, so they carry that model's version.  Exposes the
    primary's ``image_shape`` / ``dtype`` / ``replicas`` /
    ``model_version`` so it drops into a running
    :class:`~repro.serving.ServingEngine` via
    :meth:`~repro.serving.ServingEngine.set_scorer`.
    """

    def __init__(
        self,
        primary: Scorer,
        candidate: Scorer,
        fraction: float = 0.25,
        seed: int = 0,
    ) -> None:
        if not 0.0 < fraction < 1.0:
            raise ConfigurationError(
                f"canary fraction must be in (0, 1), got {fraction}"
            )
        self.primary = primary
        self.candidate = candidate
        self.fraction = float(fraction)
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._counts = {
            "primary_batches": 0,
            "candidate_batches": 0,
            "candidate_errors": 0,
        }

    @property
    def replicas(self) -> int:
        return self.primary.replicas

    @property
    def image_shape(self):
        return self.primary.image_shape

    @property
    def dtype(self):
        return self.primary.dtype

    @property
    def model_version(self):
        """The primary's version, the model most traffic still reaches."""
        return self.primary.model_version

    def score_batch(self, frames: np.ndarray) -> BatchVerdicts:
        """Score on the routed model; candidate sickness raises loudly."""
        with self._lock:
            to_candidate = self._rng.random() < self.fraction
            key = "candidate_batches" if to_candidate else "primary_batches"
            self._counts[key] += 1
        scorer = self.candidate if to_candidate else self.primary
        telem = get_telemetry()
        if to_candidate:
            telem.counter("deploy.canary_batches").inc()
        try:
            verdicts = scorer.score_batch(frames)
            if to_candidate and not np.all(
                np.isfinite(np.asarray(verdicts.scores, dtype=float))
            ):
                raise RolloutError("canary model returned non-finite scores")
        except Exception:
            if to_candidate:
                with self._lock:
                    self._counts["candidate_errors"] += 1
                telem.counter("deploy.canary_errors").inc()
            raise
        return verdicts

    def stats(self) -> Dict[str, Any]:
        """Routing counts plus the candidate's observed error rate."""
        with self._lock:
            counts = dict(self._counts)
        candidate = counts["candidate_batches"]
        counts["candidate_error_rate"] = (
            counts["candidate_errors"] / candidate if candidate else 0.0
        )
        return counts

    def close(self) -> None:
        """Close both sides (the engine-shutdown-while-split path)."""
        self.primary.close()
        self.candidate.close()


GateCheck = Callable[[], Optional[str]]


@dataclass
class RolloutGates:
    """Named health checks whose union gates promotion.

    Each check returns ``None`` (healthy) or a failure reason string;
    :meth:`evaluate` collects every current failure.  Constructors exist
    for each signal source the canary decision is specified over —
    monitor health, score drift, breaker state, shadow agreement, and the
    canary split's error ledger — plus :meth:`add` for anything else.
    """

    checks: List[Tuple[str, GateCheck]] = field(default_factory=list)

    def add(self, name: str, check: GateCheck) -> "RolloutGates":
        """Attach one named check; returns self for chaining."""
        self.checks.append((str(name), check))
        return self

    def add_monitor(self, monitor: Any) -> "RolloutGates":
        """Gate on :meth:`StreamMonitor.health`: an active persistence
        alarm (``healthy: False``) blocks promotion."""

        def check() -> Optional[str]:
            health = monitor.health()
            if not health.get("healthy", False):
                return (
                    f"stream monitor unhealthy (alarm_active="
                    f"{health.get('alarm_active')}, degraded_frames="
                    f"{health.get('degraded_frames')})"
                )
            return None

        return self.add("monitor", check)

    def add_drift(self, detector: Any) -> "RolloutGates":
        """Gate on a :class:`~repro.novelty.drift.CusumDetector` (or any
        object with a ``drifted`` flag): signalled drift blocks promotion."""

        def check() -> Optional[str]:
            if getattr(detector, "drifted", False):
                index = getattr(detector, "drift_index", None)
                return f"score drift signalled (cusum fired at index {index})"
            return None

        return self.add("drift", check)

    def add_breaker(self, breaker: Any) -> "RolloutGates":
        """Gate on circuit-breaker state: an open breaker blocks promotion."""

        def check() -> Optional[str]:
            if breaker is None:
                return None
            state = getattr(breaker, "state", None)
            if state == "open":
                return "circuit breaker open"
            return None

        return self.add("breaker", check)

    def add_shadow(
        self,
        runner: ShadowRunner,
        min_agreement: float = 0.9,
        min_compared: int = 10,
    ) -> "RolloutGates":
        """Gate on shadow verdict agreement once enough frames compared."""

        def check() -> Optional[str]:
            stats = runner.stats()
            compared = stats["compared"]
            if compared < min_compared:
                return None  # not enough evidence to fail on yet
            rate = stats["agreement_rate"]
            if rate is not None and rate < min_agreement:
                return (
                    f"shadow agreement {rate:.3f} below {min_agreement} "
                    f"over {compared} frames"
                )
            return None

        return self.add("shadow", check)

    def add_split(
        self,
        split: CanarySplitScorer,
        max_error_rate: float = 0.0,
        min_batches: int = 1,
    ) -> "RolloutGates":
        """Gate on the canary split's error ledger (NaN scores, raises)."""

        def check() -> Optional[str]:
            stats = split.stats()
            if stats["candidate_batches"] < min_batches:
                return None
            rate = stats["candidate_error_rate"]
            if rate > max_error_rate:
                return (
                    f"canary error rate {rate:.3f} over "
                    f"{stats['candidate_batches']} batches "
                    f"(limit {max_error_rate})"
                )
            return None

        return self.add("canary_errors", check)

    def evaluate(self) -> List[str]:
        """Run every check; returns ``"name: reason"`` per current failure."""
        failures = []
        for name, check in self.checks:
            reason = check()
            if reason is not None:
                failures.append(f"{name}: {reason}")
        return failures


@dataclass(frozen=True)
class CanaryConfig:
    """Rollout policy knobs for one :class:`CanaryController`.

    Attributes
    ----------
    canary_fraction:
        Fraction of micro-batches routed to the candidate during canary.
    min_canary_batches:
        Candidate batches that must score cleanly before promotion.
    shadow_fraction:
        Fraction of scored requests mirrored during the shadow phase.
    seed:
        Seed for both the shadow sampler and the canary router.
    """

    canary_fraction: float = 0.25
    min_canary_batches: int = 8
    shadow_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.canary_fraction < 1.0:
            raise ConfigurationError(
                f"canary_fraction must be in (0, 1), got {self.canary_fraction}"
            )
        if self.min_canary_batches < 1:
            raise ConfigurationError(
                f"min_canary_batches must be >= 1, got {self.min_canary_batches}"
            )
        if not 0.0 < self.shadow_fraction <= 1.0:
            raise ConfigurationError(
                f"shadow_fraction must be in (0, 1], got {self.shadow_fraction}"
            )


@dataclass(frozen=True)
class RolloutDecision:
    """One :meth:`CanaryController.evaluate` verdict."""

    state: str
    failed_gates: Tuple[str, ...]
    promote_ready: bool

    @property
    def healthy(self) -> bool:
        return not self.failed_gates


class CanaryController:
    """Drives one candidate version through the rollout state machine.

    Parameters
    ----------
    engine:
        The live :class:`~repro.serving.ServingEngine`.
    registry:
        The :class:`~repro.deploy.ModelRegistry` holding the candidate
        (kept truthful at every transition).
    candidate_version:
        Registry version under rollout.
    gates:
        The :class:`RolloutGates` consulted by :meth:`evaluate`.
    config:
        Rollout policy (fractions, promotion quorum, seed).
    scorer_factory:
        Builds the candidate's scorer from ``(loaded_bundle, version)``;
        defaults to an in-process :class:`~repro.serving.PipelineScorer`.
        Chaos tests substitute a factory that wraps the scorer in a
        :class:`~repro.reliability.FaultInjector`.
    """

    def __init__(
        self,
        engine: ServingEngine,
        registry: ModelRegistry,
        candidate_version: str,
        gates: Optional[RolloutGates] = None,
        config: Optional[CanaryConfig] = None,
        scorer_factory: Optional[Callable[[Any, str], Scorer]] = None,
    ) -> None:
        self.engine = engine
        self.registry = registry
        self.candidate_version = str(candidate_version)
        self.gates = gates if gates is not None else RolloutGates()
        self.config = config or CanaryConfig()
        self._scorer_factory = scorer_factory or (
            lambda bundle, version: PipelineScorer(
                bundle.pipeline, model_version=version
            )
        )
        self.state = IDLE
        self.shadow: Optional[ShadowRunner] = None
        self.split: Optional[CanarySplitScorer] = None
        self._primary_scorer: Optional[Scorer] = None
        self._journal_sink: Optional[Callable[[], None]] = None
        # Fail fast on an unknown candidate before any traffic decisions.
        self.registry.get(self.candidate_version)

    # -- durable state ----------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the rollout state machine position."""
        return {"state": self.state, "candidate_version": self.candidate_version}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore the state machine position (e.g. after a crash).

        Only the *position* is durable — the live shadow mirror / split
        scorer are traffic plumbing rebuilt by re-running the transition
        (``start_shadow`` / ``start_canary``) once the engine is back; the
        recovery runbook in ``docs/reliability.md`` walks through it.
        Restoring mid-``shadow``/``canary`` therefore leaves the engine on
        the primary until the operator (or supervisor hook) re-attaches.
        """
        name = state.get("state")
        if name not in ROLLOUT_STATES:
            raise StateRestoreError(f"unknown rollout state {name!r} in journal")
        version = state.get("candidate_version")
        if version != self.candidate_version:
            raise StateRestoreError(
                f"rollout state was journaled for candidate {version!r} but "
                f"this controller drives {self.candidate_version!r}"
            )
        if name in (SHADOW, CANARY):
            # The traffic attachments died with the old process; the
            # durable fact is that the rollout was in flight and not yet
            # judged.  Re-entering from idle lets start_shadow/start_canary
            # rebuild them through the normal (registry-truthful) path.
            name = IDLE
        self.state = name

    def attach_journal(self, sink: Optional[Callable[[], None]]) -> None:
        """Journal the state machine position after every transition.

        ``sink`` is a zero-argument callable (typically
        ``StateJournal.sink("rollout")``).  Pass ``None`` to detach.
        """
        self._journal_sink = sink

    def _journal(self) -> None:
        sink = self._journal_sink
        if sink is not None:
            sink()

    def _candidate_scorer(self) -> Scorer:
        bundle = self.registry.load(self.candidate_version)
        # Compile the candidate's scoring plan before it sees any traffic
        # (shadowed or split) — stage-graph construction belongs to the
        # rollout transition, not to the first mirrored request.
        bundle.pipeline.plan
        return self._scorer_factory(bundle, self.candidate_version)

    def _require_state(self, *allowed: str) -> None:
        if self.state not in allowed:
            raise RolloutError(
                f"invalid transition from {self.state!r} "
                f"(allowed from: {', '.join(allowed)})"
            )

    # -- transitions -----------------------------------------------------
    def start_shadow(self) -> ShadowRunner:
        """idle → shadow: mirror live traffic onto the candidate."""
        self._require_state(IDLE)
        self.shadow = ShadowRunner(
            self._candidate_scorer(),
            fraction=self.config.shadow_fraction,
            seed=self.config.seed,
        )
        self.engine.attach_shadow(self.shadow)
        self.gates.add_shadow(self.shadow)
        self.state = SHADOW
        telem = get_telemetry()
        telem.counter("deploy.shadow_started").inc()
        telem.event(
            "deploy.shadow_started",
            model_version=self.candidate_version,
            fraction=self.config.shadow_fraction,
        )
        self._journal()
        return self.shadow

    def _detach_shadow(self) -> None:
        if self.shadow is not None:
            self.engine.attach_shadow(None)
            self.shadow.drain()
            self.shadow.close()

    def start_canary(self) -> CanarySplitScorer:
        """shadow (or idle) → canary: route real traffic to the candidate.

        Installs a :class:`CanarySplitScorer` over the engine's current
        scorer; the shadow mirror (if any) is drained and detached first —
        its agreement stats stay on the gate list as frozen evidence.
        """
        self._require_state(IDLE, SHADOW)
        self._detach_shadow()
        self._primary_scorer = self.engine.scorer
        self.split = CanarySplitScorer(
            primary=self._primary_scorer,
            candidate=self._candidate_scorer(),
            fraction=self.config.canary_fraction,
            seed=self.config.seed,
        )
        self.gates.add_split(self.split)
        self.engine.set_scorer(self.split)
        self.registry.set_status(self.candidate_version, "canary")
        self.state = CANARY
        telem = get_telemetry()
        telem.counter("deploy.canary_started").inc()
        telem.event(
            "deploy.canary_started",
            model_version=self.candidate_version,
            fraction=self.config.canary_fraction,
        )
        self._journal()
        return self.split

    def evaluate(self) -> RolloutDecision:
        """Consult every gate; no side effects (see :meth:`step`)."""
        failed = tuple(self.gates.evaluate())
        promote_ready = (
            self.state == CANARY
            and not failed
            and self.split is not None
            and self.split.stats()["candidate_batches"]
            >= self.config.min_canary_batches
        )
        return RolloutDecision(
            state=self.state, failed_gates=failed, promote_ready=promote_ready
        )

    def step(self) -> RolloutDecision:
        """Evaluate and act: auto-rollback on failed gates while the
        candidate has live traffic, auto-promote once the quorum of clean
        canary batches is in.  Returns the decision that was acted on."""
        decision = self.evaluate()
        if decision.failed_gates and self.state in (SHADOW, CANARY):
            self.rollback("; ".join(decision.failed_gates))
        elif decision.promote_ready:
            self.promote()
        return decision

    def promote(self) -> None:
        """canary → promoted: the candidate becomes *the* model.

        The engine hot-swaps fully onto the candidate (the split scorer
        is removed; requests in flight on the primary finish normally),
        the registry's serving pointer moves, and the old primary scorer
        is released.
        """
        self._require_state(CANARY)
        assert self.split is not None
        candidate_scorer = self.split.candidate
        self.engine.set_scorer(candidate_scorer)
        primary, self._primary_scorer = self._primary_scorer, None
        if primary is not None and primary is not candidate_scorer:
            primary.close()
        self.registry.promote(self.candidate_version, note="canary gates clean")
        self.state = PROMOTED
        telem = get_telemetry()
        telem.counter("deploy.promotions").inc()
        telem.event("deploy.promoted", model_version=self.candidate_version)
        self._journal()

    def rollback(self, reason: str = "") -> None:
        """shadow | canary → rolled_back: revert to the primary model.

        The engine's scorer is restored (canary) or the mirror detached
        (shadow), the candidate's scorer is closed, the registry marks the
        version ``rolled_back``, and a ``deploy.rollback`` event records
        why.  The primary never stopped serving, so there is nothing to
        re-warm.
        """
        self._require_state(SHADOW, CANARY)
        if self.state == CANARY and self.split is not None:
            assert self._primary_scorer is not None
            self.engine.set_scorer(self._primary_scorer)
            self.split.candidate.close()
        else:
            self._detach_shadow()
        self.registry.set_status(
            self.candidate_version, "rolled_back", note=reason
        )
        self.state = ROLLED_BACK
        telem = get_telemetry()
        telem.counter("deploy.rollbacks").inc()
        telem.event(
            "deploy.rollback", model_version=self.candidate_version, reason=reason
        )
        self._journal()
