"""Zero-downtime hot-swap: scorer reload, engine reload, rolling pool swap."""

import time

import numpy as np
import pytest

from repro.exceptions import DeploymentError, NotFittedError, ServingError
from repro.serving import (
    EngineConfig,
    PipelineScorer,
    Scorer,
    ServingEngine,
    WorkerPool,
    load_bundle,
    save_bundle,
)
from repro.telemetry import MemorySink, telemetry_session


@pytest.fixture(scope="module")
def swap_bundle_dir(fitted_pipeline, tmp_path_factory):
    """A second saved artifact of the same pipeline to swap onto."""
    time.sleep(0.01)
    return save_bundle(fitted_pipeline, tmp_path_factory.mktemp("swap") / "candidate")


class TestPipelineScorerReload:
    def test_swaps_pipeline_and_version(self, fitted_pipeline, bundle_dir):
        scorer = PipelineScorer(fitted_pipeline, model_version="v1")
        bundle = load_bundle(bundle_dir)
        scorer.reload(bundle.pipeline, model_version="v2")
        assert scorer.model_version == "v2"
        assert scorer.pipeline is bundle.pipeline

    def test_rejects_an_unfitted_pipeline(self, fitted_pipeline, trained_pilotnet):
        from repro.config import CI
        from repro.novelty import SaliencyNoveltyPipeline

        scorer = PipelineScorer(fitted_pipeline)
        unfitted = SaliencyNoveltyPipeline(trained_pilotnet, CI.image_shape)
        with pytest.raises(NotFittedError):
            scorer.reload(unfitted)

    def test_rejects_a_shape_mismatch(self, fitted_pipeline):
        scorer = PipelineScorer(fitted_pipeline)

        class WrongShape:
            is_fitted = True
            image_shape = (99, 99)

        with pytest.raises(DeploymentError, match="shape mismatch"):
            scorer.reload(WrongShape())

    def test_verdicts_carry_the_new_version(self, fitted_pipeline, dsu_test):
        scorer = PipelineScorer(fitted_pipeline, model_version="v1")
        assert scorer.score_batch(dsu_test.frames[:2]).model_version == "v1"
        scorer.reload(fitted_pipeline, model_version="v2")
        assert scorer.score_batch(dsu_test.frames[:2]).model_version == "v2"


class TestEngineReload:
    def test_outcomes_stamp_the_serving_version(self, fitted_pipeline, dsu_test):
        engine = ServingEngine(PipelineScorer(fitted_pipeline, model_version="v1"))
        try:
            before = engine.infer(dsu_test.frames[0])
            assert before.status == "ok"
            assert before.model_version == "v1"
            engine.reload(fitted_pipeline, model_version="v2")
            after = engine.infer(dsu_test.frames[0])
            assert after.model_version == "v2"
        finally:
            engine.close()

    def test_reload_under_load_drops_nothing(
        self, fitted_pipeline, bundle_dir, dsu_test, run_bounded
    ):
        """Every admitted request resolves Scored while the model swaps."""
        engine = ServingEngine(
            PipelineScorer(fitted_pipeline, model_version="v1"),
            EngineConfig(max_batch_size=4, queue_capacity=256),
        )
        bundle = load_bundle(bundle_dir)

        def drive():
            pendings = []
            for i in range(60):
                pendings.append(engine.submit(dsu_test.frames[i % len(dsu_test.frames)]))
                if i == 20:
                    engine.reload(bundle.pipeline, model_version="v2")
            return [p.result(60.0) for p in pendings]

        try:
            outcomes = run_bounded(drive, timeout_s=120.0)
        finally:
            engine.close()
        assert all(o.status == "ok" for o in outcomes)
        versions = {o.model_version for o in outcomes}
        assert versions <= {"v1", "v2"}
        assert "v2" in versions  # the swap actually took effect
        assert engine.stats()["reloads"] == 1

    def test_stats_expose_version_and_dtype(self, fitted_pipeline):
        engine = ServingEngine(PipelineScorer(fitted_pipeline, model_version="v7"))
        try:
            stats = engine.stats()
            assert stats["model_version"] == "v7"
            assert stats["dtype"] == np.dtype(fitted_pipeline.dtype).name
        finally:
            engine.close()

    def test_reload_requires_a_reloadable_scorer(self, fitted_pipeline):
        class Fixed(Scorer):
            image_shape = fitted_pipeline.image_shape
            dtype = fitted_pipeline.dtype

            def score_batch(self, frames):  # pragma: no cover - never scored
                raise AssertionError

        engine = ServingEngine(Fixed())
        try:
            with pytest.raises(DeploymentError, match="does not support hot-swap"):
                engine.reload(fitted_pipeline)
        finally:
            engine.close()

    def test_set_scorer_rejects_a_shape_mismatch(self, fitted_pipeline):
        engine = ServingEngine(PipelineScorer(fitted_pipeline))

        class WrongShape(Scorer):
            image_shape = (99, 99)
            dtype = fitted_pipeline.dtype

            def score_batch(self, frames):  # pragma: no cover - never scored
                raise AssertionError

        try:
            with pytest.raises(DeploymentError, match="shape mismatch"):
                engine.set_scorer(WrongShape())
        finally:
            engine.close()

    def test_set_scorer_refuses_a_non_scorer(self, fitted_pipeline):
        engine = ServingEngine(PipelineScorer(fitted_pipeline))
        try:
            with pytest.raises(DeploymentError, match="needs a Scorer"):
                engine.set_scorer(object())
        finally:
            engine.close()

    def test_reload_emits_swap_telemetry(self, fitted_pipeline):
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            engine = ServingEngine(PipelineScorer(fitted_pipeline, model_version="v1"))
            try:
                engine.reload(fitted_pipeline, model_version="v2")
            finally:
                engine.close()
            events = [
                r for r in sink.records
                if r.get("type") == "event" and r.get("name") == "deploy.swap"
            ]
            assert len(events) == 1
            assert events[0]["fields"]["model_version"] == "v2"
            spans = [r for r in sink.records if r.get("name") == "deploy.swap"
                     and r.get("type") == "span"]
            assert len(spans) == 1


class TestWorkerPoolReload:
    def test_rolling_swap_keeps_scoring(self, bundle_dir, swap_bundle_dir, dsu_test):
        with WorkerPool(
            bundle_dir, workers=2, request_timeout_s=120.0, model_version="v1"
        ) as pool:
            assert pool.score_batch(dsu_test.frames[:2]).model_version == "v1"
            pool.reload(swap_bundle_dir, model_version="v2")
            verdicts = pool.score_batch(dsu_test.frames[:2])
            assert verdicts.model_version == "v2"
            assert np.all(np.isfinite(np.asarray(verdicts.scores, dtype=float)))
            stats = pool.stats()
            assert stats["swaps"] == 1
            assert stats["alive"] == 2
            assert stats["model_version"] == "v2"
            assert pool.bundle_dir == swap_bundle_dir

    def test_bad_candidate_aborts_and_keeps_serving(
        self, bundle_dir, tmp_path, dsu_test
    ):
        from repro.exceptions import ArtifactError

        with WorkerPool(
            bundle_dir, workers=1, request_timeout_s=120.0, model_version="v1"
        ) as pool:
            with pytest.raises(ArtifactError):
                pool.reload(tmp_path / "not-a-bundle")
            # The original replicas are untouched and still serving v1.
            verdicts = pool.score_batch(dsu_test.frames[:2])
            assert verdicts.model_version == "v1"
            assert pool.stats()["swaps"] == 0

    def test_reload_after_close_is_refused(self, bundle_dir, swap_bundle_dir):
        pool = WorkerPool(bundle_dir, workers=1, request_timeout_s=120.0)
        pool.close()
        with pytest.raises(ServingError, match="after close"):
            pool.reload(swap_bundle_dir)
