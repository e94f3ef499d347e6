"""Tests for the multiprocess worker pool (replicas, health, restart)."""

import numpy as np
import pytest

from repro.config import CI
from repro.exceptions import ArtifactError, ConfigurationError, ServingError
from repro.nn.backend import FLOAT32
from repro.serving import PipelineScorer, WorkerPool, load_bundle


@pytest.fixture(scope="module")
def pool(bundle_dir):
    """One two-replica pool shared across this module (spawn cost)."""
    with WorkerPool(bundle_dir, workers=2, request_timeout_s=120.0) as pool:
        yield pool


def _assert_same_verdicts(pool_verdicts, bundle_dir, frames, dtype=None):
    """Pool verdicts equal in-process ``PipelineScorer`` verdicts, bitwise."""
    pipeline = load_bundle(bundle_dir).pipeline
    if dtype is not None:
        pipeline.set_inference_dtype(dtype)
    expected = PipelineScorer(pipeline).score_batch(frames)
    for field in ("scores", "is_novel", "margins"):
        np.testing.assert_array_equal(
            getattr(pool_verdicts, field), getattr(expected, field), err_msg=field
        )


class TestScoring:
    def test_matches_in_process_pipeline(self, pool, bundle_dir, dsu_test):
        frames = dsu_test.frames[:6]
        _assert_same_verdicts(pool.score_batch(frames), bundle_dir, frames)

    def test_float32_pool_matches_in_process_pipeline(self, bundle_dir, dsu_test):
        frames = dsu_test.frames[:6]
        with WorkerPool(
            bundle_dir, workers=1, request_timeout_s=120.0, dtype="float32"
        ) as pool32:
            verdicts = pool32.score_batch(frames)
        assert verdicts.scores.dtype == FLOAT32
        _assert_same_verdicts(verdicts, bundle_dir, frames, dtype="float32")

    def test_image_shape_from_manifest(self, pool):
        assert pool.image_shape == CI.image_shape

    def test_round_robin_spreads_requests(self, pool, dsu_test):
        # Several sequential batches all succeed regardless of which
        # replica serves them.
        for _ in range(4):
            assert len(pool.score_batch(dsu_test.frames[:2])) == 2


class TestHealth:
    def test_ping_all_replicas(self, pool):
        assert pool.ping() == [True, True]

    def test_killed_worker_is_restarted(self, pool, dsu_test):
        """The acceptance scenario: kill a replica, the next batch routed to
        it is retried on a fresh process and succeeds."""
        before = pool.restarts
        pool._workers[0].process.kill()
        pool._workers[0].process.join(timeout=10.0)
        results = [pool.score_batch(dsu_test.frames[:2]) for _ in range(4)]
        assert all(len(v) == 2 for v in results)
        assert pool.restarts == before + 1
        assert pool.ping() == [True, True]

    def test_ensure_healthy_respawns_dead_replica(self, pool):
        pool._workers[1].process.kill()
        pool._workers[1].process.join(timeout=10.0)
        assert pool.ensure_healthy() == 1
        assert pool.ping() == [True, True]

    def test_stats_reports_liveness(self, pool):
        stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["alive"] == 2
        assert stats["restarts"] == pool.restarts


class TestRepeatedCrashes:
    def test_ensure_healthy_survives_consecutive_crashes_of_same_replica(self, pool):
        """A crash-looping replica: kill worker 0 three times in a row;
        every ``ensure_healthy`` pass restarts exactly that one replica and
        the restart counter advances by exactly one each time."""
        for round_number in range(3):
            before = pool.restarts
            pool._workers[0].process.kill()
            pool._workers[0].process.join(timeout=10.0)
            assert pool.ensure_healthy() == 1
            assert pool.restarts == before + 1
            assert pool.ping() == [True, True]

    def test_ensure_healthy_is_noop_on_healthy_pool(self, pool):
        before = pool.restarts
        assert pool.ensure_healthy() == 0
        assert pool.restarts == before

    def test_scoring_heals_without_ensure_healthy(self, pool, dsu_test):
        """Back-to-back kills absorbed by the scoring path alone: each batch
        routed to the dead replica restarts it and retries transparently."""
        before = pool.restarts
        for _ in range(2):
            pool._workers[1].process.kill()
            pool._workers[1].process.join(timeout=10.0)
            results = [pool.score_batch(dsu_test.frames[:2]) for _ in range(2)]
            assert all(len(v) == 2 for v in results)
        assert pool.restarts == before + 2
        assert pool.ping() == [True, True]

    def test_round_robin_keeps_spreading_after_restarts(self, pool, dsu_test):
        """Mid-restart round-robin: with one replica freshly killed, four
        consecutive batches (which round-robin across both replicas) all
        succeed."""
        pool._workers[0].process.kill()
        pool._workers[0].process.join(timeout=10.0)
        for _ in range(4):
            assert len(pool.score_batch(dsu_test.frames[:3])) == 3
        assert pool.stats()["alive"] == 2


class TestLifecycleAndValidation:
    def test_bad_bundle_path_fails_fast(self, tmp_path):
        with pytest.raises(ArtifactError):
            WorkerPool(tmp_path / "nope", workers=1)

    def test_invalid_worker_count(self, bundle_dir):
        with pytest.raises(ConfigurationError):
            WorkerPool(bundle_dir, workers=0)

    def test_score_after_close_raises(self, bundle_dir, dsu_test):
        pool = WorkerPool(bundle_dir, workers=1, request_timeout_s=120.0)
        pool.close()
        with pytest.raises(ServingError):
            pool.score_batch(dsu_test.frames[:1])

    def test_close_is_idempotent(self, bundle_dir):
        pool = WorkerPool(bundle_dir, workers=1, request_timeout_s=120.0)
        pool.close()
        pool.close()
        assert pool.stats()["alive"] == 0
