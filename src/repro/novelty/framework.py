"""The paper's two-layer novelty-detection framework (Figure 1).

:class:`OneClassAutoencoder` packages the second layer — the paper's dense
64-16-64 autoencoder, a reconstruction loss (SSIM or MSE), and the
percentile threshold rule — behind a scikit-learn-ish ``fit`` / ``score`` /
``predict_novel`` interface.

:class:`SaliencyNoveltyPipeline` composes the full framework: a trained
steering CNN's VisualBackProp masks are the autoencoder's inputs at both
training and test time.  With ``loss="ssim"`` this is exactly the paper's
proposed method; the baselines module derives the comparison systems from
the same pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.models.autoencoder import ConvAutoencoder, DenseAutoencoder
from repro.nn.backend.policy import as_tensor, resolve_dtype
from repro.nn.data import ArrayDataset, DataLoader
from repro.nn.layers import Flatten
from repro.nn.losses import Loss, MSELoss, MSSSIMLoss, SSIMLoss
from repro.nn.model import Sequential
from repro.nn.optim import Adam
from repro.nn.trainer import Trainer, TrainingHistory
from repro.novelty.detector import NoveltyDetector
from repro.pipeline import (
    FUSED_STAGES,
    PREPROCESS_STAGES,
    SCORE_STAGES,
    CnnForwardStage,
    ReconstructStage,
    SaliencyCascadeStage,
    ScoringPlan,
    SimilarityStage,
    StageContext,
    SteeringHeadStage,
    VerdictStage,
)
from repro.saliency.base import SaliencyMethod
from repro.saliency.gradient import GradientSaliency
from repro.saliency.lrp import LayerwiseRelevancePropagation
from repro.saliency.vbp import VisualBackProp
from repro.telemetry import get_telemetry
from repro.utils.seeding import RngLike, derive_rng
from repro.utils.validation import require_finite


@dataclass(frozen=True)
class AutoencoderConfig:
    """Training configuration for the one-class autoencoder.

    Defaults follow the paper: 64-16-64 hidden layers, mini-batches of 32,
    a 99th-percentile threshold, and an 11x11 SSIM window.
    """

    hidden: Tuple[int, ...] = (64, 16, 64)
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 1e-3
    percentile: float = 99.0
    ssim_window: int = 11

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigurationError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ConfigurationError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )


class OneClassAutoencoder:
    """Autoencoder-based one-class classifier with a threshold rule.

    Parameters
    ----------
    image_shape:
        ``(H, W)`` of the (grayscale, [0, 1]) input images.
    loss:
        ``"ssim"`` (the paper's choice), ``"mse"`` (the baseline's), or
        ``"msssim"`` (multi-scale SSIM, an extension used by the loss
        ablation).  Scores returned by :meth:`score` are loss-oriented in
        every case (``1 - (MS-)SSIM`` or MSE), so *higher always means
        more novel*.
    config:
        Training hyperparameters.
    architecture:
        ``"dense"`` (the paper's 64-16-64 feedforward network, default) or
        ``"conv"`` — a convolutional encoder/decoder used by the
        architecture-ablation experiments.  The conv variant requires both
        image dimensions to be divisible by 4.
    rng:
        Seed for weight init and batch shuffling.
    """

    def __init__(
        self,
        image_shape: Tuple[int, int],
        loss: str = "ssim",
        config: AutoencoderConfig = None,
        architecture: str = "dense",
        rng: RngLike = None,
    ) -> None:
        if loss not in ("ssim", "mse", "msssim"):
            raise ConfigurationError(
                f"loss must be 'ssim', 'mse' or 'msssim', got {loss!r}"
            )
        if architecture not in ("dense", "conv"):
            raise ConfigurationError(
                f"architecture must be 'dense' or 'conv', got {architecture!r}"
            )
        self.image_shape = (int(image_shape[0]), int(image_shape[1]))
        self.loss_name = loss
        self.architecture = architecture
        self.config = config or AutoencoderConfig()
        self._rng = derive_rng(rng, stream="one_class_ae")
        if architecture == "dense":
            self.autoencoder: Sequential = DenseAutoencoder(
                self.image_shape, hidden=self.config.hidden, rng=self._rng
            )
        else:
            # Append a Flatten so both architectures emit (N, H*W) vectors
            # and the loss/scoring paths below stay identical.
            conv = ConvAutoencoder(self.image_shape, rng=self._rng)
            self.autoencoder = Sequential(list(conv.layers) + [Flatten()])
        self.detector = NoveltyDetector(
            percentile=self.config.percentile, higher_is_novel=True
        )
        self._loss = self._build_loss()
        self.history: Optional[TrainingHistory] = None

    def _build_loss(self) -> Loss:
        if self.loss_name == "mse":
            return MSELoss()
        window = min(self.config.ssim_window, min(self.image_shape))
        if window % 2 == 0:
            window -= 1
        if window < 3:
            raise ConfigurationError(
                f"image {self.image_shape} too small for SSIM windows"
            )
        if self.loss_name == "ssim":
            return SSIMLoss(self.image_shape, window_size=window)
        # Multi-scale: use as many 2x levels as the window still fits into.
        scales = 1
        h, w = self.image_shape
        while scales < 3 and min(h, w) // 2 >= window:
            h, w = h // 2, w // 2
            scales += 1
        return MSSSIMLoss(self.image_shape, scales=scales, window_size=window)

    @property
    def dtype(self) -> np.dtype:
        """The autoencoder's policy dtype (float64 unless re-policied)."""
        return self.autoencoder.dtype

    def set_inference_dtype(self, dtype) -> "OneClassAutoencoder":
        """Recast the fitted autoencoder for inference at a policy dtype.

        Intended for a *fitted* model: training always runs at float64 (the
        gradcheck-grade default); switching to float32 halves the scoring
        path's memory traffic while the detector keeps its float64
        threshold.
        """
        self.autoencoder.set_policy(dtype)
        return self

    def _flatten(self, images: np.ndarray) -> np.ndarray:
        images = as_tensor(images, self.dtype)
        h, w = self.image_shape
        if images.ndim != 3 or images.shape[1:] != (h, w):
            raise ShapeError(f"expected (N, {h}, {w}) images, got {images.shape}")
        # A NaN frame would silently poison window statistics and training;
        # fail loudly at the boundary instead.
        require_finite(images, "one-class input images")
        return images.reshape(images.shape[0], -1)

    def _model_input(self, images: np.ndarray) -> np.ndarray:
        """Images in the form the autoencoder consumes.

        The dense network takes flattened vectors; the conv network takes
        ``(N, 1, H, W)`` batches.  Both emit flat ``(N, H*W)`` vectors, so
        everything downstream of the forward pass is architecture-agnostic.
        """
        flat = self._flatten(images)
        if self.architecture == "dense":
            return flat
        h, w = self.image_shape
        return flat.reshape(flat.shape[0], 1, h, w)

    def fit(self, images: np.ndarray) -> "OneClassAutoencoder":
        """Train the autoencoder on target-class images, then fit the
        threshold on the training scores."""
        flat = self._flatten(images)
        loader = DataLoader(
            ArrayDataset(self._model_input(images), flat),
            batch_size=self.config.batch_size,
            shuffle=True,
            rng=self._rng,
        )
        trainer = Trainer(
            self.autoencoder,
            self._loss,
            Adam(self.autoencoder.parameters(), lr=self.config.learning_rate),
            gradient_clip=5.0,
        )
        self.history = trainer.fit(loader, epochs=self.config.epochs)
        self.detector.fit(self.score(images))
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self.detector.is_fitted

    def reconstruct(self, images: np.ndarray) -> np.ndarray:
        """Reconstructed images, shaped like the input batch."""
        recon = self.autoencoder.predict(self._model_input(images))
        return recon.reshape(np.asarray(images).shape)

    def score(self, images: np.ndarray) -> np.ndarray:
        """Per-image novelty score (reconstruction loss; higher = more novel)."""
        with get_telemetry().span("one_class.score", frames=int(np.asarray(images).shape[0])):
            recon = self.autoencoder.predict(self._model_input(images))
            return self._loss.per_sample(recon, self._flatten(images))

    def similarity(self, images: np.ndarray) -> np.ndarray:
        """Per-image similarity in the paper's reporting convention.

        SSIM in [-1, 1] when trained with SSIM loss (Figure 5's right
        panel); negated MSE otherwise.
        """
        scores = self.score(images)
        if self.loss_name in ("ssim", "msssim"):
            return 1.0 - scores
        return -scores

    def predict_novel(self, images: np.ndarray) -> np.ndarray:
        """Boolean novelty decisions under the fitted threshold."""
        if not self.detector.is_fitted:
            raise NotFittedError("OneClassAutoencoder used before fit()")
        return self.detector.predict(self.score(images))


class SaliencyNoveltyPipeline:
    """The paper's full framework: prediction CNN → VBP → one-class AE.

    A thin facade over a compiled :class:`~repro.pipeline.ScoringPlan`:
    every scoring entry point (``score`` / ``score_batch`` / ``similarity``
    / ``predict_novel`` / ``reconstruct`` / ``score_with_steering``)
    executes a named stage subsequence of one shared plan, so the CNN
    forward, saliency cascade, autoencoder pass, and verdict each run at
    most once per call and intermediates are cached in the run's
    :class:`~repro.pipeline.StageContext`.

    Parameters
    ----------
    prediction_model:
        A *trained* steering network (:class:`repro.models.PilotNet` or any
        conv :class:`repro.nn.Sequential`).  The pipeline never modifies it.
    image_shape:
        ``(H, W)`` of input frames (and hence VBP masks).
    loss:
        Reconstruction loss for the one-class stage; ``"ssim"`` is the
        proposed method.
    saliency:
        Preprocessing saliency method: ``"vbp"`` (the paper's choice), or
        ``"lrp"`` / ``"gradient"`` for the saliency-method ablation.
    architecture:
        Autoencoder architecture, forwarded to
        :class:`OneClassAutoencoder` (``"dense"`` is the paper's).
    """

    _SALIENCY_METHODS = {
        "vbp": VisualBackProp,
        "lrp": LayerwiseRelevancePropagation,
        "gradient": GradientSaliency,
    }

    def __init__(
        self,
        prediction_model: Sequential,
        image_shape: Tuple[int, int],
        loss: str = "ssim",
        config: AutoencoderConfig = None,
        saliency: str = "vbp",
        architecture: str = "dense",
        rng: RngLike = None,
    ) -> None:
        if saliency not in self._SALIENCY_METHODS:
            known = ", ".join(sorted(self._SALIENCY_METHODS))
            raise ConfigurationError(
                f"saliency must be one of {known}, got {saliency!r}"
            )
        self.saliency_name = saliency
        self.saliency_method: SaliencyMethod = self._SALIENCY_METHODS[saliency](
            prediction_model
        )
        self.one_class = OneClassAutoencoder(
            image_shape, loss=loss, config=config, architecture=architecture, rng=rng
        )
        self.image_shape = self.one_class.image_shape
        self._plan: Optional[ScoringPlan] = None

    @property
    def plan(self) -> ScoringPlan:
        """The compiled six-stage :class:`~repro.pipeline.ScoringPlan` (lazy).

        Compiled once per pipeline and reused for every call; the plan's
        stages hold references to the live model/autoencoder objects, so
        :meth:`set_inference_dtype` needs no recompile.
        """
        if self._plan is None:
            one_class = self.one_class
            self._plan = ScoringPlan(
                [
                    CnnForwardStage(self.saliency_method.model),
                    SteeringHeadStage(),
                    SaliencyCascadeStage(self.saliency_method),
                    ReconstructStage(one_class),
                    SimilarityStage(one_class),
                    VerdictStage(one_class.detector),
                ],
                owner=type(self).__name__,
            )
        return self._plan

    @property
    def vbp(self) -> SaliencyMethod:
        """The preprocessing saliency method (named for the default choice)."""
        return self.saliency_method

    def shares_model_with(self, model) -> bool:
        """Whether this pipeline's saliency stage runs on ``model``.

        When true, the fused ``score_with_steering`` path can serve a
        steering policy and the novelty monitor from one CNN forward.
        """
        return self.saliency_method.model is model

    @property
    def dtype(self) -> np.dtype:
        """The dtype the scoring path runs at (the one-class stage's)."""
        return self.one_class.dtype

    def set_inference_dtype(self, dtype) -> "SaliencyNoveltyPipeline":
        """Switch the whole scoring path to a policy dtype.

        Recasts the prediction model (and with it the saliency cascade) and
        the one-class autoencoder; frames are then coerced once at the
        pipeline boundary and stay in that dtype through VBP, the
        autoencoder and the SSIM scoring loss.  The novelty threshold is
        untouched — scores are upcast exactly for the verdict comparison.
        Use on a *fitted* pipeline; refitting at float32 is refused by the
        gradcheck guard rather than silently training at low precision.
        """
        resolved = resolve_dtype(dtype)
        self.saliency_method.model.set_policy(resolved)
        self.one_class.set_inference_dtype(resolved)
        return self

    @property
    def is_fitted(self) -> bool:
        """Whether the one-class stage has been fitted."""
        return self.one_class.is_fitted

    def _coerce_frames(self, frames: np.ndarray) -> np.ndarray:
        """Coerce and validate a frame batch to the plan's ``(N, H, W)``.

        Accepts ``(N, H, W, 1)`` channel-last batches (common for camera
        feeds exported from image pipelines) by squeezing the trailing
        channel dimension.
        """
        frames = as_tensor(frames, self.dtype)
        h, w = self.image_shape
        if frames.ndim == 4 and frames.shape[1:] == (h, w, 1):
            frames = frames[:, :, :, 0]
        if frames.ndim != 3 or frames.shape[1:] != (h, w):
            raise ShapeError(f"expected (N, {h}, {w}) frames, got {frames.shape}")
        return frames

    def run_plan(self, frames: np.ndarray, stages=None) -> StageContext:
        """Execute plan stages over coerced frames; returns the
        :class:`~repro.pipeline.StageContext` with every intermediate.

        ``stages=None`` runs the scoring prefix plus the verdict when the
        detector is fitted — one forward, one saliency cascade, one
        autoencoder pass, with masks/reconstruction/scores all cached in
        the returned context (what :func:`repro.novelty.explain_frame`
        consumes).
        """
        if stages is None:
            stages = SCORE_STAGES + (("verdict",) if self.is_fitted else ())
        return self.plan.run(self._coerce_frames(frames), stages=stages)

    def preprocess(self, frames: np.ndarray) -> np.ndarray:
        """VBP masks ("VBP images") for a batch of frames."""
        return self.run_plan(frames, stages=PREPROCESS_STAGES).masks

    def fit(self, frames: np.ndarray) -> "SaliencyNoveltyPipeline":
        """Fit the one-class stage on the VBP images of training frames."""
        self.one_class.fit(self.preprocess(frames))
        return self

    def score(self, frames: np.ndarray) -> np.ndarray:
        """Novelty scores (reconstruction loss of the VBP image)."""
        with get_telemetry().span(
            "pipeline.score",
            frames=int(np.asarray(frames).shape[0]),
            saliency=self.saliency_name,
        ):
            return self.run_plan(frames, stages=SCORE_STAGES).scores

    def score_batch(self, frames: np.ndarray) -> np.ndarray:
        """Vectorized scoring fast path over a whole ``(N, H, W)`` stack.

        Scores are bit-identical to :meth:`score`; the difference is the
        contract: one plan invocation — one CNN forward, one saliency
        cascade, one autoencoder pass — for the entire stack, under a
        single ``pipeline.score_batch`` telemetry span (containing the
        per-stage spans) with no per-frame instrumentation.  This is the
        substrate :meth:`StreamMonitor.observe_batch
        <repro.novelty.StreamMonitor.observe_batch>` builds on — batched
        numpy matmuls are where the throughput is.  Serving runs the same
        plan one stage further, through ``verdict``
        (:class:`~repro.serving.PipelineScorer`).
        """
        frames = as_tensor(frames, self.dtype)
        if frames.ndim != 3:
            raise ShapeError(
                f"score_batch expects an (N, H, W) stack, got {frames.shape}"
            )
        with get_telemetry().span(
            "pipeline.score_batch",
            frames=int(frames.shape[0]),
            saliency=self.saliency_name,
        ):
            return self.run_plan(frames, stages=SCORE_STAGES).scores

    def score_with_steering(
        self, frames: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(scores, steering_angles)`` from one shared CNN forward.

        The fused monitor/closed-loop path: the plan's ``steering_head``
        and ``saliency_cascade`` stages both consume the cached
        ``cnn_forward`` activations, so guarding a steering model costs
        one forward per frame instead of two.  Scores are identical to
        :meth:`score_batch`; angles to
        :meth:`~repro.models.PilotNet.predict_angles`.
        """
        with get_telemetry().span(
            "pipeline.score_with_steering",
            frames=int(np.asarray(frames).shape[0]),
            saliency=self.saliency_name,
        ):
            ctx = self.run_plan(frames, stages=FUSED_STAGES)
            return ctx.scores, ctx.angles

    def similarity(self, frames: np.ndarray) -> np.ndarray:
        """Similarity scores in the paper's convention (see
        :meth:`OneClassAutoencoder.similarity`)."""
        return self.run_plan(frames, stages=SCORE_STAGES).similarity

    def predict_novel(self, frames: np.ndarray) -> np.ndarray:
        """Boolean novelty decisions for a batch of frames."""
        if not self.one_class.detector.is_fitted:
            raise NotFittedError("OneClassAutoencoder used before fit()")
        return self.run_plan(frames, stages=SCORE_STAGES + ("verdict",)).is_novel

    def reconstruct(
        self, frames: np.ndarray, masks: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(vbp_images, reconstructions)`` for inspection (Figure 6).

        ``masks`` accepts saliency masks already computed by a plan run
        (e.g. the stage cache of a frame just scored), skipping the CNN
        forward and saliency cascade entirely — the explain/demo path
        previously recomputed both on frames it had just scored.
        """
        if masks is None:
            ctx = self.run_plan(
                frames, stages=PREPROCESS_STAGES + ("reconstruct",)
            )
            return ctx.masks, ctx.recon
        masks = as_tensor(masks, self.dtype)
        ctx = self.plan.run(masks, stages=("reconstruct",))
        return masks, ctx.recon


def save_pipeline_state(pipeline: "SaliencyNoveltyPipeline", path) -> None:
    """Persist a fitted pipeline's one-class stage to one ``.npz`` file.

    Saved: the autoencoder weights, the detector's training-score sample
    (from which threshold/CDF are refit exactly), and the configuration
    needed to rebuild the stage.  The *prediction model* is saved
    separately with :func:`repro.nn.save_model` — it usually already has a
    home in the deployment — and is supplied again at load time.
    """
    from pathlib import Path

    from repro.exceptions import SerializationError

    if not pipeline.is_fitted:
        raise NotFittedError("save_pipeline_state requires a fitted pipeline")
    one_class = pipeline.one_class
    state = {f"ae/{k}": v for k, v in one_class.autoencoder.state_dict().items()}
    state["meta/image_shape"] = np.array(pipeline.image_shape)
    state["meta/loss"] = np.array(one_class.loss_name)
    state["meta/architecture"] = np.array(one_class.architecture)
    state["meta/saliency"] = np.array(pipeline.saliency_name)
    state["meta/hidden"] = np.array(one_class.config.hidden)
    state["meta/percentile"] = np.array(one_class.config.percentile)
    state["meta/ssim_window"] = np.array(one_class.config.ssim_window)
    state["detector/train_scores"] = one_class.detector.training_cdf.samples

    from repro.utils.fileio import atomic_write, npz_path

    path = npz_path(path)
    try:
        # Atomic (temp + fsync + rename): a crash mid-save cannot truncate
        # an existing pipeline state file.
        with atomic_write(path) as handle:
            np.savez(handle, **state)
    except OSError as exc:
        raise SerializationError(f"failed to save pipeline to {path}: {exc}") from exc


def load_pipeline_state(path, prediction_model: Sequential) -> "SaliencyNoveltyPipeline":
    """Rebuild a fitted pipeline saved by :func:`save_pipeline_state`.

    ``prediction_model`` must be the same (or identically trained) steering
    network the pipeline was built around — saliency masks, and therefore
    scores, depend on it.
    """
    from pathlib import Path

    from repro.exceptions import SerializationError

    path = Path(path)
    if not path.exists():
        raise SerializationError(f"pipeline file {path} does not exist")
    with np.load(path) as data:
        required = {"meta/image_shape", "meta/loss", "meta/hidden",
                    "detector/train_scores"}
        if not required <= set(data.files):
            raise SerializationError(f"{path} is not a saved pipeline state")
        image_shape = tuple(int(v) for v in data["meta/image_shape"])
        loss = str(data["meta/loss"])
        architecture = str(data["meta/architecture"]) if "meta/architecture" in data.files else "dense"
        saliency = str(data["meta/saliency"]) if "meta/saliency" in data.files else "vbp"
        hidden = tuple(int(v) for v in data["meta/hidden"])
        percentile = float(data["meta/percentile"])
        ssim_window = int(data["meta/ssim_window"])
        ae_state = {
            key[len("ae/"):]: data[key]
            for key in data.files
            if key.startswith("ae/")
        }
        train_scores = data["detector/train_scores"]

    config = AutoencoderConfig(
        hidden=hidden, percentile=percentile, ssim_window=ssim_window
    )
    pipeline = SaliencyNoveltyPipeline(
        prediction_model,
        image_shape,
        loss=loss,
        config=config,
        saliency=saliency,
        architecture=architecture,
    )
    pipeline.one_class.autoencoder.load_state_dict(ae_state)
    pipeline.one_class.detector.fit(train_scores)
    return pipeline
