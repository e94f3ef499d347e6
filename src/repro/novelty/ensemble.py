"""Ensembles of novelty detectors.

A single autoencoder's reconstruction quality depends on its random
initialization and batch order; averaging the novelty scores of several
independently seeded members reduces that variance — the standard
deep-ensemble recipe applied to the paper's one-class stage.  An ensemble
exposes the same interface as a single pipeline (``score`` /
``similarity`` / ``predict_novel`` and the nested threshold detector), so
it plugs into :func:`repro.novelty.evaluate_detector` and
:class:`repro.novelty.StreamMonitor` unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError
from repro.novelty.detector import NoveltyDetector
from repro.pipeline import AggregateStage, MemberScoresStage, ScoringPlan, VerdictStage


@dataclass
class _OneClassView:
    """Adapter giving the ensemble the ``.one_class.detector`` path the
    evaluation helpers expect from single pipelines."""

    detector: NoveltyDetector


class EnsembleDetector:
    """Score-averaging ensemble of pipeline-like detectors.

    Parameters
    ----------
    members:
        Detector instances sharing a score convention (all loss-oriented —
        which every pipeline in this library is).  They may be unfitted;
        :meth:`fit` fits each member and then the ensemble threshold.
    percentile:
        Threshold percentile for the ensemble's own decision rule.
    """

    def __init__(self, members: Sequence, percentile: float = 99.0) -> None:
        members = list(members)
        if len(members) < 2:
            raise ConfigurationError(
                f"an ensemble needs at least 2 members, got {len(members)}"
            )
        self.members = members
        self.detector = NoveltyDetector(percentile=percentile, higher_is_novel=True)
        self.one_class = _OneClassView(detector=self.detector)
        self._plan: Optional[ScoringPlan] = None

    @property
    def plan(self) -> ScoringPlan:
        """Compiled scoring plan (``member_scores → aggregate → verdict``)
        — the ensemble runs on the same stage runtime as the pipelines."""
        if self._plan is None:
            self._plan = ScoringPlan(
                [
                    MemberScoresStage(self.members),
                    AggregateStage(),
                    VerdictStage(self.detector),
                ],
                owner=type(self).__name__,
            )
        return self._plan

    @classmethod
    def build(
        cls,
        factory: Callable[[int], object],
        n_members: int,
        percentile: float = 99.0,
    ) -> "EnsembleDetector":
        """Construct members via ``factory(seed)`` for seeds ``0..n-1``."""
        if n_members < 2:
            raise ConfigurationError(f"n_members must be >= 2, got {n_members}")
        return cls([factory(seed) for seed in range(n_members)], percentile=percentile)

    @property
    def is_fitted(self) -> bool:
        """Whether the ensemble threshold has been fitted."""
        return self.detector.is_fitted

    def fit(self, frames: np.ndarray) -> "EnsembleDetector":
        """Fit every member, then the ensemble threshold on mean scores."""
        for member in self.members:
            if not getattr(member, "is_fitted", False):
                member.fit(frames)
        self.detector.fit(self.score(frames))
        return self

    def member_scores(self, frames: np.ndarray) -> np.ndarray:
        """Per-member score matrix of shape ``(n_members, n_frames)``."""
        return self.plan.run(frames, stages=("member_scores",)).member_scores

    def score(self, frames: np.ndarray) -> np.ndarray:
        """Mean member score (higher = more novel)."""
        return self.plan.run(frames, stages=("member_scores", "aggregate")).scores

    def score_std(self, frames: np.ndarray) -> np.ndarray:
        """Member disagreement per frame — itself a useful uncertainty cue."""
        return self.member_scores(frames).std(axis=0)

    def similarity(self, frames: np.ndarray) -> np.ndarray:
        """Mean member similarity (the paper's reporting convention)."""
        return np.stack(
            [member.similarity(frames) for member in self.members]
        ).mean(axis=0)

    def predict_novel(self, frames: np.ndarray) -> np.ndarray:
        """Boolean decisions under the ensemble's fitted threshold."""
        if not self.detector.is_fitted:
            raise NotFittedError("EnsembleDetector used before fit()")
        return self.plan.run(
            frames, stages=("member_scores", "aggregate", "verdict")
        ).is_novel
