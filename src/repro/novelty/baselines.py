"""Comparison systems from the paper's evaluation.

* :class:`RichterRoyBaseline` — the prior work (Richter & Roy, RSS 2017):
  a stand-alone autoencoder trained with pixel-wise MSE directly on the
  raw camera images, thresholded at the 99th percentile.  This is the
  left panel of the paper's Figure 5.
* :class:`VbpMseBaseline` — the ablation in Figure 5's middle panel: VBP
  preprocessing (so the autoencoder sees saliency masks) but still MSE
  loss.  Isolates how much of the win comes from VBP vs from SSIM.

Both expose the same interface as
:class:`repro.novelty.SaliencyNoveltyPipeline` so the evaluation harness
treats all three systems uniformly.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ShapeError
from repro.nn.backend.policy import as_tensor
from repro.nn.model import Sequential
from repro.novelty.framework import AutoencoderConfig, OneClassAutoencoder, SaliencyNoveltyPipeline
from repro.pipeline import ReconstructStage, ScoringPlan, SimilarityStage, VerdictStage
from repro.utils.seeding import RngLike


class RichterRoyBaseline:
    """Stand-alone MSE autoencoder on raw images (no saliency stage)."""

    def __init__(
        self,
        image_shape: Tuple[int, int],
        config: AutoencoderConfig = None,
        rng: RngLike = None,
    ) -> None:
        self.one_class = OneClassAutoencoder(
            image_shape, loss="mse", config=config, rng=rng
        )
        self.image_shape = self.one_class.image_shape
        self._plan: Optional[ScoringPlan] = None

    @property
    def plan(self) -> ScoringPlan:
        """Compiled scoring plan (``reconstruct → similarity → verdict``
        over raw frames — no saliency stage, by design)."""
        if self._plan is None:
            one_class = self.one_class
            self._plan = ScoringPlan(
                [
                    ReconstructStage(one_class),
                    SimilarityStage(one_class),
                    VerdictStage(one_class.detector),
                ],
                owner=type(self).__name__,
            )
        return self._plan

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self.one_class.is_fitted

    def preprocess(self, frames: np.ndarray) -> np.ndarray:
        """Identity — the baseline consumes raw frames."""
        frames = as_tensor(frames)
        h, w = self.image_shape
        if frames.ndim != 3 or frames.shape[1:] != (h, w):
            raise ShapeError(f"expected (N, {h}, {w}) frames, got {frames.shape}")
        return frames

    def fit(self, frames: np.ndarray) -> "RichterRoyBaseline":
        """Train the autoencoder and threshold on raw frames."""
        self.one_class.fit(self.preprocess(frames))
        return self

    def score(self, frames: np.ndarray) -> np.ndarray:
        """Per-frame MSE reconstruction loss (higher = more novel)."""
        return self.plan.run(
            self.preprocess(frames), stages=("reconstruct", "similarity")
        ).scores

    def score_batch(self, frames: np.ndarray) -> np.ndarray:
        """Vectorized stack scoring, mirroring
        :meth:`SaliencyNoveltyPipeline.score_batch` so the stream monitor
        and serving engine treat all detector systems uniformly."""
        frames = as_tensor(frames)
        if frames.ndim != 3:
            raise ShapeError(
                f"score_batch expects an (N, H, W) stack, got {frames.shape}"
            )
        return self.score(frames)

    def similarity(self, frames: np.ndarray) -> np.ndarray:
        """Negated MSE, for orientation-uniform reporting."""
        return self.plan.run(
            self.preprocess(frames), stages=("reconstruct", "similarity")
        ).similarity

    def predict_novel(self, frames: np.ndarray) -> np.ndarray:
        """Boolean novelty decisions under the 99th-percentile rule."""
        from repro.exceptions import NotFittedError

        if not self.one_class.detector.is_fitted:
            raise NotFittedError("OneClassAutoencoder used before fit()")
        return self.plan.run(
            self.preprocess(frames),
            stages=("reconstruct", "similarity", "verdict"),
        ).is_novel

    def reconstruct(self, frames: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(inputs, reconstructions)`` for Figure 6 comparisons."""
        inputs = self.preprocess(frames)
        ctx = self.plan.run(inputs, stages=("reconstruct",))
        return inputs, ctx.recon


class VbpMseBaseline(SaliencyNoveltyPipeline):
    """VBP preprocessing with MSE reconstruction loss (ablation).

    Identical to the proposed pipeline except for the loss, so any
    performance difference against :class:`SaliencyNoveltyPipeline` is
    attributable to SSIM, and any difference against
    :class:`RichterRoyBaseline` to the VBP stage.
    """

    def __init__(
        self,
        prediction_model: Sequential,
        image_shape: Tuple[int, int],
        config: AutoencoderConfig = None,
        rng: RngLike = None,
    ) -> None:
        super().__init__(
            prediction_model, image_shape, loss="mse", config=config, rng=rng
        )
