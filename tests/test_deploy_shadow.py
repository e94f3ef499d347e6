"""ShadowRunner and CanarySplitScorer: mirroring, agreement, error routing."""

import numpy as np
import pytest

from repro.deploy import CanarySplitScorer, RolloutGates, ShadowRunner
from repro.exceptions import ConfigurationError, RolloutError
from repro.serving.results import BatchVerdicts, Scored, Scorer


class StubScorer(Scorer):
    """Deterministic scorer: fixed score, novelty by threshold."""

    image_shape = (4, 6)
    dtype = np.dtype("float64")

    def __init__(self, score=0.1, threshold=0.5, model_version=None, fail=False):
        self.score = score
        self.threshold = threshold
        self.model_version = model_version
        self.fail = fail
        self.calls = 0
        self.closed = False

    def score_batch(self, frames):
        self.calls += 1
        if self.fail:
            raise RolloutError("stub backend down")
        n = len(frames)
        scores = np.full(n, self.score)
        return BatchVerdicts(
            scores=scores,
            is_novel=scores > self.threshold,
            margins=scores - self.threshold,
            model_version=self.model_version,
        )

    def close(self):
        self.closed = True


def _scored(score=0.1, is_novel=False):
    return Scored(
        score=score, is_novel=is_novel, margin=score - 0.5, batch_size=1, latency_s=0.001
    )


FRAME = np.zeros((4, 6))


class TestShadowRunner:
    def test_mirrors_and_agrees(self):
        with ShadowRunner(StubScorer(score=0.1)) as shadow:
            for _ in range(8):
                shadow.offer(FRAME, _scored(score=0.12, is_novel=False))
            assert shadow.drain()
            stats = shadow.stats()
        assert stats["offered"] == 8
        assert stats["compared"] == 8
        assert stats["agreement_rate"] == 1.0
        assert stats["disagreements"] == 0
        assert stats["mean_score_delta"] == pytest.approx(-0.02)

    def test_counts_disagreements(self):
        with ShadowRunner(StubScorer(score=0.9)) as shadow:  # candidate says novel
            for _ in range(4):
                shadow.offer(FRAME, _scored(score=0.1, is_novel=False))
            assert shadow.drain()
            stats = shadow.stats()
        assert stats["agreements"] == 0
        assert stats["agreement_rate"] == 0.0
        assert stats["max_abs_score_delta"] == pytest.approx(0.8)

    def test_fraction_samples_a_subset(self):
        with ShadowRunner(StubScorer(), fraction=0.5, seed=7) as shadow:
            for _ in range(200):
                shadow.offer(FRAME, _scored())
            assert shadow.drain()
            stats = shadow.stats()
        assert 0 < stats["mirrored"] < 200
        assert stats["offered"] == 200

    def test_candidate_failures_are_data_not_crashes(self):
        with ShadowRunner(StubScorer(fail=True)) as shadow:
            assert shadow.offer(FRAME, _scored())
            assert shadow.drain()
            stats = shadow.stats()
        assert stats["errors"] == 1
        assert stats["compared"] == 0

    def test_nan_candidate_scores_count_as_errors(self):
        with ShadowRunner(StubScorer(score=np.nan)) as shadow:
            shadow.offer(FRAME, _scored())
            assert shadow.drain()
            assert shadow.stats()["errors"] == 1

    def test_full_queue_drops_instead_of_blocking(self):
        candidate = StubScorer(fail=True)
        shadow = ShadowRunner(candidate, queue_capacity=1)
        try:
            # Saturate: with capacity 1 most offers overflow harmlessly.
            for _ in range(50):
                shadow.offer(FRAME, _scored())
            stats = shadow.stats()
            assert stats["offered"] == 50
            assert stats["mirrored"] + stats["dropped"] == 50
        finally:
            shadow.close()

    def test_close_owns_the_candidate(self):
        candidate = StubScorer()
        ShadowRunner(candidate).close()
        assert candidate.closed

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            ShadowRunner(StubScorer(), fraction=0.0)
        with pytest.raises(ConfigurationError):
            ShadowRunner(StubScorer(), fraction=1.5)


class TestCanarySplitScorer:
    def test_routes_a_fraction_to_the_candidate(self):
        primary = StubScorer(model_version="v1")
        candidate = StubScorer(model_version="v2")
        split = CanarySplitScorer(primary, candidate, fraction=0.3, seed=0)
        versions = [split.score_batch(FRAME[None]).model_version for _ in range(200)]
        stats = split.stats()
        assert stats["primary_batches"] + stats["candidate_batches"] == 200
        assert 20 <= stats["candidate_batches"] <= 120  # ~60 expected
        assert versions.count("v2") == stats["candidate_batches"]

    def test_forwards_the_primary_shape_and_dtype(self):
        split = CanarySplitScorer(StubScorer(), StubScorer(), fraction=0.5)
        assert split.image_shape == (4, 6)
        assert split.dtype == np.float64
        assert split.replicas == 1

    def test_candidate_nan_scores_raise_rollout_error(self):
        primary = StubScorer(score=0.1)
        candidate = StubScorer(score=np.nan)
        split = CanarySplitScorer(primary, candidate, fraction=0.999, seed=0)
        with pytest.raises(RolloutError, match="non-finite"):
            for _ in range(50):
                split.score_batch(FRAME[None])
        assert split.stats()["candidate_errors"] == 1
        assert split.stats()["candidate_error_rate"] > 0

    def test_candidate_exceptions_are_tallied_and_reraised(self):
        split = CanarySplitScorer(
            StubScorer(), StubScorer(fail=True), fraction=0.999, seed=0
        )
        with pytest.raises(RolloutError):
            for _ in range(50):
                split.score_batch(FRAME[None])
        assert split.stats()["candidate_errors"] == 1

    def test_primary_failures_are_not_canary_errors(self):
        split = CanarySplitScorer(
            StubScorer(fail=True), StubScorer(), fraction=0.001, seed=0
        )
        with pytest.raises(RolloutError):
            for _ in range(50):
                split.score_batch(FRAME[None])
        assert split.stats()["candidate_errors"] == 0

    def test_close_closes_both_sides(self):
        primary, candidate = StubScorer(), StubScorer()
        CanarySplitScorer(primary, candidate, fraction=0.5).close()
        assert primary.closed and candidate.closed

    def test_invalid_fraction(self):
        with pytest.raises(ConfigurationError):
            CanarySplitScorer(StubScorer(), StubScorer(), fraction=1.0)


class TestRolloutGates:
    def test_empty_gates_pass(self):
        assert RolloutGates().evaluate() == []

    def test_custom_gate_failure_is_named(self):
        gates = RolloutGates().add("custom", lambda: "it broke")
        assert gates.evaluate() == ["custom: it broke"]

    def test_shadow_gate_needs_evidence_before_failing(self):
        with ShadowRunner(StubScorer(score=0.9)) as shadow:  # always disagrees
            gates = RolloutGates().add_shadow(shadow, min_agreement=0.9, min_compared=5)
            assert gates.evaluate() == []  # nothing compared yet
            for _ in range(6):
                shadow.offer(FRAME, _scored(score=0.1, is_novel=False))
            assert shadow.drain()
            failures = gates.evaluate()
        assert len(failures) == 1
        assert "agreement" in failures[0]

    def test_split_gate_fires_on_error_rate(self):
        split = CanarySplitScorer(
            StubScorer(), StubScorer(fail=True), fraction=0.999, seed=0
        )
        gates = RolloutGates().add_split(split, max_error_rate=0.0)
        assert gates.evaluate() == []  # no canary traffic yet
        with pytest.raises(RolloutError):
            split.score_batch(FRAME[None])
        failures = gates.evaluate()
        assert len(failures) == 1
        assert "error rate" in failures[0]

    def test_breaker_gate(self):
        class FakeBreaker:
            state = "open"

        gates = RolloutGates().add_breaker(FakeBreaker())
        assert gates.evaluate() == ["breaker: circuit breaker open"]
        FakeBreaker.state = "closed"
        assert gates.evaluate() == []

    def test_drift_gate(self):
        class FakeDetector:
            drifted = True
            drift_index = 17

        gates = RolloutGates().add_drift(FakeDetector())
        failures = gates.evaluate()
        assert len(failures) == 1
        assert "17" in failures[0]
