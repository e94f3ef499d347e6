"""Explanations for individual novelty decisions.

The paper's purpose is *trust*: when the detector flags a frame, an
operator will ask "why?".  For the SSIM-autoencoder pipeline the answer is
spatially localized by construction — the per-window SSIM map between the
VBP image and its reconstruction shows exactly *where* the autoencoder
failed to recognize the saliency structure.  :func:`explain_frame`
assembles those artifacts into one :class:`FrameExplanation`, renderable
as text or exportable as images via :mod:`repro.viz`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.exceptions import NotFittedError, ShapeError
from repro.nn.backend.policy import as_tensor
from repro.metrics.ssim import ssim_map


@dataclass(frozen=True)
class FrameExplanation:
    """Everything behind one novelty decision.

    Attributes
    ----------
    frame:
        The input camera frame.
    vbp_image:
        Its saliency mask — what the prediction model looked at.
    reconstruction:
        The one-class autoencoder's reconstruction of that mask.
    ssim_map:
        Per-pixel structural similarity between mask and reconstruction
        (low = the autoencoder did not recognize this structure).
    score, threshold, is_novel:
        The scalar decision ingredients.
    worst_regions:
        Centers ``(row, col)`` of the least-similar windows, most anomalous
        first — where an operator should look.
    """

    frame: np.ndarray
    vbp_image: np.ndarray
    reconstruction: np.ndarray
    ssim_map: np.ndarray
    score: float
    threshold: float
    is_novel: bool
    worst_regions: List[Tuple[int, int]]

    @property
    def margin(self) -> float:
        """How far past (positive) or inside (negative) the threshold."""
        return self.score - self.threshold

    def render(self) -> str:
        """Short operator-facing text summary."""
        verdict = "NOVEL" if self.is_novel else "in-distribution"
        regions = ", ".join(f"({r}, {c})" for r, c in self.worst_regions)
        return (
            f"verdict: {verdict}  score={self.score:.4f}  "
            f"threshold={self.threshold:.4f}  margin={self.margin:+.4f}\n"
            f"least-recognized regions (row, col): {regions}\n"
            f"mean map SSIM: {float(self.ssim_map.mean()):.3f}"
        )


def _local_minima_centers(
    smap: np.ndarray, k: int, suppression: int
) -> List[Tuple[int, int]]:
    """Greedy non-maximum-suppressed selection of the k lowest map values."""
    working = smap.copy()
    centers: List[Tuple[int, int]] = []
    h, w = working.shape
    for _ in range(k):
        index = int(np.argmin(working))
        row, col = divmod(index, w)
        centers.append((row, col))
        r0, r1 = max(row - suppression, 0), min(row + suppression + 1, h)
        c0, c1 = max(col - suppression, 0), min(col + suppression + 1, w)
        working[r0:r1, c0:c1] = np.inf
        if not np.isfinite(working).any():
            break
    return centers


def explain_frame(
    pipeline,
    frame: np.ndarray,
    top_k: int = 3,
) -> FrameExplanation:
    """Explain the pipeline's decision for one camera frame.

    Parameters
    ----------
    pipeline:
        A fitted :class:`repro.novelty.SaliencyNoveltyPipeline`.
    frame:
        One ``(H, W)`` grayscale frame in [0, 1].
    top_k:
        Number of least-similar regions to report.
    """
    if not getattr(pipeline, "is_fitted", False):
        raise NotFittedError("explain_frame requires a fitted pipeline")
    frame = as_tensor(frame)
    if frame.ndim != 2:
        raise ShapeError(f"explain_frame expects one (H, W) frame, got {frame.shape}")

    # One plan run caches mask, reconstruction, and score together — one
    # CNN forward, one saliency cascade, one autoencoder pass.
    ctx = pipeline.run_plan(frame[None])
    vbp_image = ctx.masks[0]
    reconstruction = ctx.recon[0]
    score = float(ctx.scores[0])
    loss = pipeline.one_class._loss
    window = getattr(loss, "window_size", 7)
    window = min(window, min(frame.shape))
    if window % 2 == 0:
        window -= 1
    smap = ssim_map(vbp_image, reconstruction, window_size=max(window, 3))
    detector = pipeline.one_class.detector
    return FrameExplanation(
        frame=frame,
        vbp_image=vbp_image,
        reconstruction=reconstruction,
        ssim_map=smap,
        score=score,
        threshold=detector.threshold,
        is_novel=bool(detector.predict(np.array([score]))[0]),
        worst_regions=_local_minima_centers(smap, top_k, suppression=max(window, 3)),
    )
