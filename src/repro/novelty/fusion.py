"""Score fusion across heterogeneous detectors.

The experiments expose *complementary* strengths: the VBP+SSIM pipeline
separates unseen driving domains almost perfectly but is blind to additive
sensor noise (its saliency masks are noise-robust), while the raw-image MSE
baseline detects noise trivially but separates domains worse.  A deployed
system wants both.

:class:`ScoreFusionDetector` combines detectors with *different score
scales* (an SSIM loss in [0, 2], an MSE in [0, 1], ...) by standardizing
each member's score against its own training distribution (a z-score) and
averaging.  This differs from :class:`repro.novelty.EnsembleDetector`,
which averages raw scores and therefore requires members that share one
convention — fusion is for heterogeneous members, ensembling for
same-recipe members.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError
from repro.nn.backend.policy import as_tensor
from repro.novelty.detector import NoveltyDetector
from repro.novelty.ensemble import _OneClassView
from repro.pipeline import MemberScoresStage, ScoringPlan, StandardizeStage, VerdictStage


class ScoreFusionDetector:
    """Z-score fusion of heterogeneous loss-oriented detectors.

    Parameters
    ----------
    members:
        Detector instances (fitted or not) whose scores all orient
        higher-is-novel — every pipeline/baseline in this library does.
    weights:
        Optional per-member weights (normalized internally); default equal.
    percentile:
        Threshold percentile for the fused decision rule.
    """

    def __init__(
        self,
        members: Sequence,
        weights: Optional[Sequence[float]] = None,
        percentile: float = 99.0,
    ) -> None:
        members = list(members)
        if len(members) < 2:
            raise ConfigurationError(
                f"fusion needs at least 2 members, got {len(members)}"
            )
        if weights is None:
            weights = [1.0] * len(members)
        weights = as_tensor(list(weights))
        if weights.shape != (len(members),):
            raise ConfigurationError(
                f"need one weight per member ({len(members)}), got {weights.shape}"
            )
        if np.any(weights < 0) or weights.sum() == 0:
            raise ConfigurationError("weights must be non-negative and not all zero")
        self.members = members
        self.weights = weights / weights.sum()
        self.detector = NoveltyDetector(percentile=percentile, higher_is_novel=True)
        self.one_class = _OneClassView(detector=self.detector)
        self._means: Optional[np.ndarray] = None
        self._stds: Optional[np.ndarray] = None
        self._plan: Optional[ScoringPlan] = None

    @property
    def plan(self) -> ScoringPlan:
        """Compiled scoring plan (``member_scores → standardize →
        verdict``) — fusion runs on the same stage runtime as the
        pipelines and ensembles."""
        if self._plan is None:
            self._plan = ScoringPlan(
                [
                    MemberScoresStage(self.members),
                    StandardizeStage(self),
                    VerdictStage(self.detector),
                ],
                owner=type(self).__name__,
            )
        return self._plan

    @property
    def is_fitted(self) -> bool:
        """Whether standardization statistics and threshold are fitted."""
        return self._means is not None and self.detector.is_fitted

    def fit(self, frames: np.ndarray) -> "ScoreFusionDetector":
        """Fit members (if needed), standardization stats, and threshold."""
        for member in self.members:
            if not getattr(member, "is_fitted", False):
                member.fit(frames)
        raw = np.stack([member.score(frames) for member in self.members])
        self._means = raw.mean(axis=1)
        stds = raw.std(axis=1)
        # A member with constant training scores carries no signal; a unit
        # divisor keeps it harmless instead of exploding the z-scores.
        self._stds = np.where(stds > 1e-12, stds, 1.0)
        self.detector.fit(self.score(frames))
        return self

    def _fused(self, frames: np.ndarray):
        """One plan run through ``member_scores → standardize``."""
        if self._means is None:
            raise NotFittedError("ScoreFusionDetector used before fit()")
        return self.plan.run(frames, stages=("member_scores", "standardize"))

    def score(self, frames: np.ndarray) -> np.ndarray:
        """Weighted mean of member z-scores (higher = more novel)."""
        return self._fused(frames).scores

    def similarity(self, frames: np.ndarray) -> np.ndarray:
        """Negated fused score (for orientation-uniform reporting)."""
        return self._fused(frames).similarity

    def member_zscores(self, frames: np.ndarray) -> np.ndarray:
        """Per-member standardized scores, shape ``(n_members, n_frames)``.

        Useful for attributing an alarm to the member that raised it.
        """
        return self._fused(frames).extras["member_zscores"]

    def predict_novel(self, frames: np.ndarray) -> np.ndarray:
        """Boolean decisions under the fused threshold."""
        if not self.detector.is_fitted:
            raise NotFittedError("ScoreFusionDetector used before fit()")
        return self.plan.run(
            frames, stages=("member_scores", "standardize", "verdict")
        ).is_novel
