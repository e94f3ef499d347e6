"""Tests for the compiled stage-graph scoring runtime (repro.pipeline).

The pipeline facade, baselines, ensembles, and fusion all execute through
one compiled :class:`~repro.pipeline.ScoringPlan`; these tests pin the
plan's compilation, execution semantics (stage selection, fault guards,
context caching), and the facade equalities that make the refactor
invisible to callers — identical scores, angles, masks, and verdicts.
"""

import copy

import numpy as np
import pytest

from repro.config import CI
from repro.exceptions import ConfigurationError, NotFittedError, ShapeError, StageError
from repro.novelty import SaliencyNoveltyPipeline, StreamMonitor
from repro.novelty.detector import NoveltyDetector
from repro.pipeline import (
    FUSED_STAGES,
    PREPROCESS_STAGES,
    SCORE_STAGES,
    ScoringPlan,
    compute_saliency,
)

SHAPE = CI.image_shape


class _BoomStage:
    name = "boom"

    def run(self, batch, ctx):
        raise ValueError("kaput")


class _UnfittedStage:
    name = "unfitted"

    def run(self, batch, ctx):
        raise NotFittedError("used before fit()")


class _OkStage:
    name = "ok"

    def run(self, batch, ctx):
        ctx.scores = np.zeros(batch.shape[0])


class TestPlanCompilation:
    def test_pipeline_compiles_six_stages(self, fitted_pipeline):
        assert fitted_pipeline.plan.stage_names == (
            "cnn_forward",
            "steering_head",
            "saliency_cascade",
            "reconstruct",
            "similarity",
            "verdict",
        )

    def test_plan_is_compiled_once(self, fitted_pipeline):
        assert fitted_pipeline.plan is fitted_pipeline.plan

    def test_unknown_stage_rejected(self, fitted_pipeline):
        with pytest.raises(ConfigurationError, match="unknown stage"):
            fitted_pipeline.plan.run(np.zeros((1,) + SHAPE), stages=("warp",))

    def test_duplicate_stage_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            ScoringPlan([_OkStage(), _OkStage()])

    def test_empty_plan_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one stage"):
            ScoringPlan([])

    def test_describe_names_every_stage(self, fitted_pipeline):
        text = fitted_pipeline.plan.describe()
        for name in fitted_pipeline.plan.stage_names:
            assert name in text
        assert "dtype" in text


class TestFaultGuards:
    def test_unexpected_error_wrapped_as_stage_error(self):
        plan = ScoringPlan([_BoomStage()])
        with pytest.raises(StageError, match="kaput") as excinfo:
            plan.run(np.zeros((2, 4, 4)))
        assert excinfo.value.stage == "boom"
        assert isinstance(excinfo.value.__cause__, ValueError)
        assert plan.counters["boom"] == {"calls": 1, "errors": 1}

    def test_contract_errors_pass_through_unwrapped(self):
        plan = ScoringPlan([_UnfittedStage()])
        with pytest.raises(NotFittedError):
            plan.run(np.zeros((2, 4, 4)))

    def test_counters_tally_successful_calls(self):
        plan = ScoringPlan([_OkStage()])
        plan.run(np.zeros((2, 4, 4)))
        plan.run(np.zeros((2, 4, 4)))
        assert plan.counters["ok"] == {"calls": 2, "errors": 0}

    def test_missing_dependency_is_a_stage_error(self, fitted_pipeline):
        # The verdict stage needs scores; running it alone must fail loudly
        # and name itself, not crash on a None.
        with pytest.raises(StageError) as excinfo:
            fitted_pipeline.run_plan(
                np.zeros((1,) + SHAPE), stages=("verdict",)
            )
        assert excinfo.value.stage == "verdict"


class TestFacadeEqualities:
    """The refactor must be score-invisible: every entry point agrees."""

    def test_score_batch_equals_score(self, fitted_pipeline, dsu_test):
        frames = dsu_test.frames[:6]
        np.testing.assert_array_equal(
            fitted_pipeline.score_batch(frames), fitted_pipeline.score(frames)
        )

    def test_fused_scores_match_score_batch(self, fitted_pipeline, dsu_test):
        frames = dsu_test.frames[:6]
        scores, _ = fitted_pipeline.score_with_steering(frames)
        np.testing.assert_allclose(
            scores, fitted_pipeline.score_batch(frames), atol=1e-9
        )

    def test_fused_angles_match_predict_angles(
        self, fitted_pipeline, trained_pilotnet, dsu_test
    ):
        frames = dsu_test.frames[:6]
        _, angles = fitted_pipeline.score_with_steering(frames)
        np.testing.assert_allclose(
            angles, trained_pilotnet.predict_angles(frames), atol=1e-9
        )

    def test_one_run_caches_every_intermediate(self, fitted_pipeline, dsu_test):
        ctx = fitted_pipeline.run_plan(dsu_test.frames[:4], stages=FUSED_STAGES)
        assert ctx.model_output is not None
        assert ctx.activations is not None
        assert ctx.angles.shape == (4,)
        assert ctx.masks.shape == (4,) + SHAPE
        assert ctx.recon.shape == (4,) + SHAPE
        assert ctx.scores.shape == (4,)

    def test_preprocess_matches_compute_saliency(self, fitted_pipeline, dsu_test):
        frames = dsu_test.frames[:4]
        np.testing.assert_allclose(
            fitted_pipeline.preprocess(frames),
            compute_saliency(fitted_pipeline.saliency_method, frames),
            atol=1e-12,
        )

    def test_reconstruct_accepts_precomputed_masks(self, fitted_pipeline, dsu_test):
        frames = dsu_test.frames[:4]
        masks, recon = fitted_pipeline.reconstruct(frames)
        masks_again, recon_again = fitted_pipeline.reconstruct(frames, masks=masks)
        np.testing.assert_array_equal(masks_again, masks)
        np.testing.assert_allclose(recon_again, recon, atol=1e-12)

    @pytest.mark.parametrize("saliency", ["lrp", "gradient"])
    def test_ablation_methods_run_through_the_runtime(
        self, trained_pilotnet, dsu_test, saliency
    ):
        pipeline = SaliencyNoveltyPipeline(
            trained_pilotnet, SHAPE, saliency=saliency, rng=0
        )
        frames = dsu_test.frames[:4]
        direct = compute_saliency(pipeline.saliency_method, frames)
        np.testing.assert_allclose(pipeline.preprocess(frames), direct, atol=1e-12)

    def test_channel_last_frames_squeezed(self, fitted_pipeline, dsu_test):
        """(N, H, W, 1) camera exports score identically to (N, H, W)."""
        frames = dsu_test.frames[:4]
        np.testing.assert_array_equal(
            fitted_pipeline.score(frames[..., None]), fitted_pipeline.score(frames)
        )

    def test_wrong_trailing_channel_still_rejected(self, fitted_pipeline):
        h, w = SHAPE
        with pytest.raises(ShapeError, match="expected"):
            fitted_pipeline.score(np.zeros((2, h, w, 3)))


class _StubMember:
    """A fitted, deterministic detector member for ensemble/fusion plans."""

    is_fitted = True

    def __init__(self, scale: float) -> None:
        self.scale = scale

    def fit(self, frames):
        return self

    def score(self, frames):
        return self.scale * np.asarray(frames).mean(axis=(1, 2))

    def similarity(self, frames):
        return -self.score(frames)


class TestEnsembleAndFusionPlans:
    def test_ensemble_scores_are_member_means(self, rng):
        from repro.novelty import EnsembleDetector

        frames = rng.random((12, 4, 4))
        ensemble = EnsembleDetector([_StubMember(1.0), _StubMember(3.0)])
        ensemble.fit(frames)
        assert ensemble.plan.stage_names == ("member_scores", "aggregate", "verdict")
        expected = np.stack([m.score(frames) for m in ensemble.members]).mean(axis=0)
        np.testing.assert_allclose(ensemble.score(frames), expected)
        assert ensemble.predict_novel(frames).shape == (12,)

    def test_fusion_scores_are_weighted_zscores(self, rng):
        from repro.novelty import ScoreFusionDetector

        frames = rng.random((12, 4, 4))
        fusion = ScoreFusionDetector(
            [_StubMember(1.0), _StubMember(3.0)], weights=[1.0, 3.0]
        )
        fusion.fit(frames)
        assert fusion.plan.stage_names == ("member_scores", "standardize", "verdict")
        raw = np.stack([m.score(frames) for m in fusion.members])
        z = (raw - fusion._means[:, None]) / fusion._stds[:, None]
        np.testing.assert_allclose(
            fusion.score(frames), np.einsum("m,mn->n", fusion.weights, z)
        )
        np.testing.assert_allclose(fusion.member_zscores(frames), z)

    def test_fusion_before_fit_raises_not_fitted(self, rng):
        from repro.novelty import ScoreFusionDetector

        fusion = ScoreFusionDetector([_StubMember(1.0), _StubMember(2.0)])
        with pytest.raises(NotFittedError):
            fusion.score(rng.random((3, 4, 4)))


class _StageFailingDetector:
    """Duck-typed detector whose scoring path dies in a named stage."""

    is_fitted = True
    image_shape = (4, 4)

    def __init__(self) -> None:
        self.one_class = type(
            "OC", (), {"detector": NoveltyDetector(higher_is_novel=True).fit([0.1, 0.2, 0.3])}
        )()

    def score(self, frames):
        raise StageError("stage 'saliency_cascade' failed: kaput", stage="saliency_cascade")

    score_batch = score


class TestMonitorStageDegradation:
    def test_stage_failure_degrades_with_stage_name(self):
        monitor = StreamMonitor(_StageFailingDetector(), window=3, min_consecutive=2)
        verdicts = monitor.observe_batch(np.zeros((3, 4, 4)))
        assert [v.state for v in verdicts] == ["stage:saliency_cascade"] * 3
        assert all(v.degraded for v in verdicts)
        assert all(np.isnan(v.score) for v in verdicts)
        # fail_safe="novel": stage faults count toward the persistence alarm.
        assert verdicts[-1].alarm
        assert monitor.degraded_counts() == {"stage:saliency_cascade": 3}

    def test_observe_with_steering_returns_angle_on_clean_frame(
        self, fitted_pipeline, trained_pilotnet, dsu_test
    ):
        monitor = StreamMonitor(fitted_pipeline, window=3, min_consecutive=2)
        frame = dsu_test.frames[0]
        verdict, angle = monitor.observe_with_steering(frame)
        assert verdict.state == "ok"
        assert angle == pytest.approx(
            float(trained_pilotnet.predict_angles(frame[None])[0])
        )
        assert monitor.frames_seen == 1

    def test_observe_with_steering_matches_observe_verdicts(
        self, fitted_pipeline, dsu_test, dsi_novel
    ):
        frames = np.concatenate([dsu_test.frames[:3], dsi_novel.frames[:3]])
        plain = StreamMonitor(fitted_pipeline, window=3, min_consecutive=2)
        fused = StreamMonitor(fitted_pipeline, window=3, min_consecutive=2)
        for frame in frames:
            expected = plain.observe(frame)
            verdict, angle = fused.observe_with_steering(frame)
            assert verdict.is_novel == expected.is_novel
            assert verdict.alarm == expected.alarm
            assert verdict.score == pytest.approx(expected.score)
            assert angle is not None

    def test_observe_with_steering_degrades_on_nan_frame(self, fitted_pipeline):
        monitor = StreamMonitor(fitted_pipeline, window=3, min_consecutive=2)
        verdict, angle = monitor.observe_with_steering(np.full(SHAPE, np.nan))
        assert verdict.state == "non_finite_frame"
        assert angle is None


def _uncompiled_copy(pipeline):
    """A deep copy of ``pipeline`` whose scoring plan is not compiled yet.

    Earlier tests have already compiled the plan of the session-scoped
    ``fitted_pipeline`` fixture, so a check on it directly would pass
    whether or not compilation is eager.
    """
    clone = copy.deepcopy(pipeline)
    clone._plan = None
    return clone


class TestServingPlanSwap:
    def test_scorer_compiles_plan_eagerly(self, fitted_pipeline, dsu_test):
        from repro.serving import PipelineScorer

        pipeline = _uncompiled_copy(fitted_pipeline)
        scorer = PipelineScorer(pipeline)
        plan = pipeline._plan
        assert plan is not None, "construction did not compile the plan"
        assert all(t["calls"] == 0 for t in plan.counters.values())
        scorer.score_batch(dsu_test.frames[:2])
        assert pipeline.plan is plan
        assert plan.counters["verdict"]["calls"] == 1

    def test_reload_swaps_plan_with_pipeline(self, fitted_pipeline, dsu_test):
        from repro.serving import PipelineScorer

        scorer = PipelineScorer(fitted_pipeline, model_version="v1")
        candidate = _uncompiled_copy(fitted_pipeline)
        scorer.reload(candidate, model_version="v2")
        assert scorer.pipeline is candidate
        plan = candidate._plan
        assert plan is not None, "reload did not compile the candidate's plan"
        assert plan is not fitted_pipeline.plan
        assert all(t["calls"] == 0 for t in plan.counters.values())
        verdicts = scorer.score_batch(dsu_test.frames[:4])
        assert plan.counters["verdict"]["calls"] == 1
        np.testing.assert_allclose(
            verdicts.scores, fitted_pipeline.score_batch(dsu_test.frames[:4])
        )
        assert verdicts.model_version == "v2"

    def test_scorer_verdicts_match_detector_rule(self, fitted_pipeline, dsu_test):
        from repro.serving import PipelineScorer

        scorer = PipelineScorer(fitted_pipeline)
        frames = dsu_test.frames[:6]
        verdicts = scorer.score_batch(frames)
        detector = fitted_pipeline.one_class.detector
        np.testing.assert_array_equal(
            verdicts.is_novel, detector.predict(verdicts.scores)
        )
        np.testing.assert_allclose(
            verdicts.margins, detector.novelty_margin(verdicts.scores)
        )


class TestPlanCli:
    def test_plan_command_prints_stage_graph(self, bundle_dir, capsys):
        from repro.cli import main

        assert main(["plan", "--bundle", str(bundle_dir)]) == 0
        out = capsys.readouterr().out
        for name in ("cnn_forward", "steering_head", "saliency_cascade",
                     "reconstruct", "similarity", "verdict"):
            assert name in out
        assert "dtype" in out

    def test_plan_command_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["plan", "--scale", "ci"])
        assert args.command == "plan"
        assert args.bundle is None
