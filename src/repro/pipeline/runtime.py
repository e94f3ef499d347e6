"""Compiling and executing scoring plans.

A :class:`ScoringPlan` is the compiled form of a detector's scoring path:
the ordered stage sequence, per-stage telemetry spans/counters, and
per-stage fault guards.  Each detector's ``plan`` property declares its own
stage list once, and callers execute named subsequences of it per call —
``score`` runs ``cnn_forward → saliency_cascade → reconstruct →
similarity``; the fused monitor path adds ``steering_head`` between the
forward and the cascade so steering and novelty share one CNN forward.

Execution semantics:

* Each stage runs under a ``stage.<name>`` telemetry span that inherits
  the ambient request trace, so stage spans nest under a serving batch
  automatically and ship across the worker-pool process boundary with the
  other span records.
* Each stage is wrapped in a fault guard: an unexpected exception is
  re-raised as :class:`~repro.exceptions.StageError` naming the failing
  stage, so callers (the stream monitor's degraded path) can attribute
  the fault per-stage instead of per-call.  Caller-contract errors
  (``NotFittedError``, ``ConfigurationError``) and ``StageError`` itself
  pass through unchanged.
* A plan holds no scratch state: every array a run produces is freshly
  allocated and owned by that run's :class:`StageContext`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError, StageError
from repro.pipeline.stages import Stage, StageContext
from repro.telemetry import get_telemetry

#: Exception types the fault guard re-raises unchanged: caller-contract
#: errors, not runtime faults of a stage.
_PASSTHROUGH = (StageError, NotFittedError, ConfigurationError)

#: Stage subsequences for the common entry points of a saliency pipeline.
SCORE_STAGES = ("cnn_forward", "saliency_cascade", "reconstruct", "similarity")
FUSED_STAGES = (
    "cnn_forward",
    "steering_head",
    "saliency_cascade",
    "reconstruct",
    "similarity",
)
PREPROCESS_STAGES = ("cnn_forward", "saliency_cascade")


class ScoringPlan:
    """A compiled stage sequence with spans, counters, and fault guards.

    Plans are cheap, immutable-after-compile objects: hot-swapping a model
    swaps the whole plan atomically (pipeline and plan travel together).
    """

    def __init__(self, stages: Sequence[Stage], owner: str = "pipeline") -> None:
        stages = list(stages)
        if not stages:
            raise ConfigurationError("a ScoringPlan needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate stage names in plan: {names}")
        self.stages: List[Stage] = stages
        self.owner = owner
        self._by_name = {stage.name: stage for stage in stages}
        #: Per-stage invocation/error tallies (cheap, always on).
        self.counters: Dict[str, Dict[str, int]] = {
            name: {"calls": 0, "errors": 0} for name in names
        }

    @property
    def stage_names(self) -> Tuple[str, ...]:
        """The full compiled stage sequence, in execution order."""
        return tuple(stage.name for stage in self.stages)

    def select(self, names: Optional[Iterable[str]]) -> List[Stage]:
        """Resolve a stage subsequence (``None`` = every stage), keeping
        the compiled order and rejecting unknown names."""
        if names is None:
            return list(self.stages)
        requested = list(names)
        unknown = [n for n in requested if n not in self._by_name]
        if unknown:
            raise ConfigurationError(
                f"unknown stage(s) {unknown} — plan has {list(self.stage_names)}"
            )
        wanted = set(requested)
        return [stage for stage in self.stages if stage.name in wanted]

    def run(
        self, frames: np.ndarray, stages: Optional[Iterable[str]] = None
    ) -> StageContext:
        """Execute a stage subsequence over a coerced ``(N, H, W)`` stack.

        Returns the :class:`StageContext` holding every intermediate the
        selected stages produced.
        """
        selected = self.select(stages)
        ctx = StageContext(frames=frames)
        telem = get_telemetry()
        n = int(np.asarray(frames).shape[0])
        for stage in selected:
            tallies = self.counters[stage.name]
            tallies["calls"] += 1
            try:
                with telem.span(f"stage.{stage.name}", trace=None, frames=n):
                    stage.run(frames, ctx)
            except _PASSTHROUGH:
                tallies["errors"] += 1
                raise
            except Exception as exc:
                tallies["errors"] += 1
                raise StageError(
                    f"stage {stage.name!r} failed: {exc}", stage=stage.name
                ) from exc
        return ctx

    def describe(self) -> str:
        """Human-readable stage graph (the ``repro plan`` CLI output)."""
        lines = [f"ScoringPlan[{self.owner}]  stages={len(self.stages)}"]
        for i, stage in enumerate(self.stages, start=1):
            detail = ""
            describe = getattr(stage, "describe", None)
            if describe is not None:
                detail = f"  ({describe()})"
            tallies = self.counters[stage.name]
            lines.append(
                f"  {i}. {stage.name:<18}{detail}"
                f"  [calls={tallies['calls']} errors={tallies['errors']}]"
            )
        return "\n".join(lines)


def compute_saliency(method, frames: np.ndarray) -> np.ndarray:
    """The blessed out-of-plan entry point for saliency masks.

    Everything inside the library scores through a compiled plan (whose
    ``saliency_cascade`` stage reuses the plan's cached CNN forward);
    tools that need bare masks — the mask-export CLI, the figure
    experiments, the timing benchmark — call this instead of
    ``SaliencyMethod.saliency`` directly, which a lint test bans outside
    the stage runtime so ad-hoc duplicate forwards cannot creep back in.
    """
    return method.saliency(frames)
