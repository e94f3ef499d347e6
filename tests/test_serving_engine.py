"""Tests for the serving engine: admission, batching, deadlines, outcomes."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, NotFittedError, ShapeError
from repro.serving import (
    BatchVerdicts,
    DeadlineExceeded,
    Degraded,
    EngineConfig,
    Failed,
    Overloaded,
    PipelineScorer,
    QosPolicy,
    RateLimit,
    Rejected,
    Scored,
    Scorer,
    ServingEngine,
)
from repro.telemetry import MemorySink, TraceContext, telemetry_session

FRAME_SHAPE = (4, 4)


class _BlockingScorer(Scorer):
    """Stub backend that parks every batch until told to proceed — lets the
    tests fill the bounded queue deterministically."""

    image_shape = FRAME_SHAPE
    dtype = np.dtype("float64")

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()
        self.batches = []

    def score_batch(self, frames):
        self.entered.set()
        self.release.wait(timeout=30.0)
        self.batches.append(len(frames))
        n = len(frames)
        return BatchVerdicts(
            scores=np.arange(n, dtype=float),
            is_novel=np.zeros(n, dtype=bool),
            margins=np.zeros(n),
        )


class _RaisingScorer(Scorer):
    image_shape = FRAME_SHAPE
    dtype = np.dtype("float64")

    def score_batch(self, frames):
        raise RuntimeError("backend exploded")


def _frame(value: float = 0.5) -> np.ndarray:
    return np.full(FRAME_SHAPE, value)


@pytest.fixture
def pipeline_engine(fitted_pipeline):
    engine = ServingEngine(
        PipelineScorer(fitted_pipeline),
        EngineConfig(max_batch_size=8, max_wait_ms=2.0, queue_capacity=64),
    )
    yield engine
    engine.close()


class TestScoring:
    def test_infer_returns_scored(self, pipeline_engine, dsu_test):
        outcome = pipeline_engine.infer(dsu_test.frames[0])
        assert isinstance(outcome, Scored)
        assert outcome.status == "ok"
        assert outcome.batch_size >= 1
        assert outcome.latency_s > 0.0

    def test_scores_match_direct_pipeline(self, pipeline_engine, fitted_pipeline, dsu_test):
        frames = dsu_test.frames[:6]
        outcomes = pipeline_engine.infer_many(frames)
        engine_scores = np.array([o.score for o in outcomes])
        np.testing.assert_allclose(engine_scores, fitted_pipeline.score_batch(frames))

    def test_verdicts_match_detector(self, pipeline_engine, fitted_pipeline, dsi_novel):
        frames = dsi_novel.frames[:6]
        outcomes = pipeline_engine.infer_many(frames)
        detector = fitted_pipeline.one_class.detector
        expected = detector.predict(fitted_pipeline.score_batch(frames))
        assert [o.is_novel for o in outcomes] == list(expected)

    def test_wrong_shape_rejected_at_submit(self, pipeline_engine):
        with pytest.raises(ShapeError):
            pipeline_engine.submit(np.zeros((3, 3)))
        with pytest.raises(ShapeError):
            pipeline_engine.submit(np.zeros(7))

    def test_engine_refuses_a_non_scorer(self):
        with pytest.raises(ConfigurationError, match="needs a Scorer"):
            ServingEngine(object())

    def test_unfitted_pipeline_rejected(self, trained_pilotnet):
        from repro.config import CI
        from repro.novelty import SaliencyNoveltyPipeline

        pipeline = SaliencyNoveltyPipeline(trained_pilotnet, CI.image_shape, rng=0)
        with pytest.raises(NotFittedError):
            PipelineScorer(pipeline)


class TestBackpressure:
    def test_overload_resolves_typed_rejection(self):
        scorer = _BlockingScorer()
        engine = ServingEngine(
            scorer, EngineConfig(max_batch_size=1, max_wait_ms=0.0, queue_capacity=2)
        )
        try:
            first = engine.submit(_frame())  # dequeued, parked in the scorer
            # Give the dispatch thread a moment to pull it off the queue.
            deadline = threading.Event()
            deadline.wait(0.2)
            backlog = [engine.submit(_frame()) for _ in range(2)]  # fills the queue
            rejected = [engine.submit(_frame()) for _ in range(3)]  # over capacity
            for pending in rejected:
                outcome = pending.result(1.0)
                assert isinstance(outcome, Overloaded)
                assert outcome.status == "overloaded"
                assert outcome.capacity == 2
            scorer.release.set()
            assert isinstance(first.result(10.0), Scored)
            for pending in backlog:
                assert isinstance(pending.result(10.0), Scored)
            stats = engine.stats()
            assert stats["rejected"] == 3
            assert stats["scored"] == 3
        finally:
            scorer.release.set()
            engine.close()

    def test_queue_never_exceeds_capacity(self):
        scorer = _BlockingScorer()
        engine = ServingEngine(
            scorer, EngineConfig(max_batch_size=1, max_wait_ms=0.0, queue_capacity=4)
        )
        try:
            pendings = [engine.submit(_frame()) for _ in range(20)]
            assert engine.stats()["queue_depth"] <= 4
            scorer.release.set()
            outcomes = [p.result(10.0) for p in pendings]
            assert sum(isinstance(o, Overloaded) for o in outcomes) >= 14
        finally:
            scorer.release.set()
            engine.close()


class TestDeadlines:
    def test_expired_request_dropped_unscored(self):
        scorer = _BlockingScorer()
        engine = ServingEngine(
            scorer, EngineConfig(max_batch_size=1, max_wait_ms=0.0, queue_capacity=8)
        )
        try:
            blocker = engine.submit(_frame())  # occupies the scorer
            expiring = engine.submit(_frame(), deadline_ms=10.0)
            threading.Event().wait(0.1)  # let the deadline lapse in the queue
            scorer.release.set()
            outcome = expiring.result(10.0)
            assert isinstance(outcome, DeadlineExceeded)
            assert outcome.waited_s >= outcome.deadline_s
            assert isinstance(blocker.result(10.0), Scored)
            assert engine.stats()["deadline_exceeded"] == 1
        finally:
            scorer.release.set()
            engine.close()

    def test_default_deadline_from_config(self):
        scorer = _BlockingScorer()
        engine = ServingEngine(
            scorer,
            EngineConfig(
                max_batch_size=1, max_wait_ms=0.0, queue_capacity=8,
                default_deadline_ms=10.0,
            ),
        )
        try:
            engine.submit(_frame())
            queued = engine.submit(_frame())  # inherits the 10 ms default
            threading.Event().wait(0.1)
            scorer.release.set()
            assert isinstance(queued.result(10.0), DeadlineExceeded)
        finally:
            scorer.release.set()
            engine.close()


class TestFailures:
    def test_backend_exception_becomes_failed(self):
        engine = ServingEngine(
            _RaisingScorer(), EngineConfig(max_batch_size=4, queue_capacity=8)
        )
        try:
            outcome = engine.infer(_frame())
            assert isinstance(outcome, Failed)
            assert "backend exploded" in outcome.error
            assert engine.stats()["failed"] == 1
        finally:
            engine.close()

    def test_close_fails_queued_requests(self):
        scorer = _BlockingScorer()
        engine = ServingEngine(
            scorer, EngineConfig(max_batch_size=1, max_wait_ms=0.0, queue_capacity=8)
        )
        engine.submit(_frame())  # parked in the scorer
        threading.Event().wait(0.1)
        queued = engine.submit(_frame())
        scorer.release.set()
        engine.close()
        outcome = queued.result(1.0)
        # Either scored in the drain race or failed by close — never lost.
        assert isinstance(outcome, (Scored, Failed))


class TestStats:
    def test_latency_percentiles_ordered(self, pipeline_engine, dsu_test):
        pipeline_engine.infer_many(dsu_test.frames[:8])
        latency = pipeline_engine.stats()["latency_ms"]
        assert 0.0 < latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]

    def test_mean_batch_size_reported(self, pipeline_engine, dsu_test):
        pipeline_engine.infer_many(dsu_test.frames[:8])
        stats = pipeline_engine.stats()
        assert stats["batches"] >= 1
        assert stats["mean_batch_size"] >= 1.0


class TestTelemetry:
    def test_serving_metrics_recorded(self, fitted_pipeline, dsu_test, tmp_path):
        from repro.telemetry import telemetry_session

        trace = tmp_path / "serve.jsonl"
        with telemetry_session(trace):
            with ServingEngine(PipelineScorer(fitted_pipeline)) as engine:
                engine.infer_many(dsu_test.frames[:4])
        text = trace.read_text()
        for name in (
            "serving.requests",
            "serving.queue_depth",
            "serving.batch_size",
            "serving.request_latency",
            "serving.batch",
        ):
            assert name in text


class TestEngineConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_batch_size": 0},
            {"queue_capacity": 0},
            {"max_wait_ms": -0.1},
            {"default_deadline_ms": 0.0},
            {"fail_safe": "explode"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            EngineConfig(**kwargs)


class _FlakyScorer(Scorer):
    """Fails its first ``failures`` batches, then scores normally."""

    image_shape = FRAME_SHAPE
    dtype = np.dtype("float64")

    def __init__(self, failures=1):
        self.failures = failures
        self.calls = 0

    def score_batch(self, frames):
        self.calls += 1
        if self.calls <= self.failures:
            raise RuntimeError(f"transient failure {self.calls}")
        n = len(frames)
        return BatchVerdicts(
            scores=np.full(n, 0.4),
            is_novel=np.zeros(n, dtype=bool),
            margins=np.full(n, -0.1),
        )


class _NaNScorer(Scorer):
    image_shape = FRAME_SHAPE
    dtype = np.dtype("float64")

    def score_batch(self, frames):
        n = len(frames)
        return BatchVerdicts(
            scores=np.full(n, np.nan),
            is_novel=np.zeros(n, dtype=bool),
            margins=np.full(n, np.nan),
        )


class TestReliability:
    """Retry / breaker / fail-safe wiring (full storms live in test_chaos)."""

    def _retry_config(self, **kwargs):
        from repro.reliability import RetryPolicy

        return EngineConfig(
            max_batch_size=4,
            queue_capacity=16,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
            **kwargs,
        )

    def test_transient_failure_retried_to_success(self):
        scorer = _FlakyScorer(failures=1)
        with ServingEngine(scorer, self._retry_config()) as engine:
            outcome = engine.infer(_frame())
        assert isinstance(outcome, Scored)
        assert outcome.retries == 1
        assert scorer.calls == 2

    def test_exhausted_retries_fail_safe_novel(self):
        scorer = _FlakyScorer(failures=10)
        with ServingEngine(scorer, self._retry_config(fail_safe="novel")) as engine:
            outcome = engine.infer(_frame())
        assert isinstance(outcome, Degraded)
        assert outcome.status == "degraded"
        assert outcome.is_novel is True
        assert "transient failure" in outcome.reason
        assert scorer.calls == 3  # max_attempts, then gave up

    def test_exhausted_retries_fail_safe_fail(self):
        with ServingEngine(_FlakyScorer(failures=10), self._retry_config()) as engine:
            outcome = engine.infer(_frame())
        assert isinstance(outcome, Failed)

    def test_nan_scores_are_a_backend_failure_with_reliability_on(self):
        with ServingEngine(_NaNScorer(), self._retry_config(fail_safe="novel")) as engine:
            outcome = engine.infer(_frame())
        assert isinstance(outcome, Degraded)
        assert "non-finite" in outcome.reason

    def test_nan_scores_fail_on_an_unconfigured_engine(self):
        """No retry, breaker or fail-safe configured: a NaN score is still a
        backend failure, never a ``Scored`` verdict."""
        with ServingEngine(_NaNScorer(), EngineConfig(max_batch_size=4)) as engine:
            outcome = engine.infer(_frame())
            stats = engine.stats()
        assert isinstance(outcome, Failed)
        assert "non-finite" in outcome.error
        assert (stats["failed"], stats["scored"]) == (1, 0)

    def test_breaker_stats_surface_in_engine_stats(self):
        from repro.reliability import BreakerConfig

        config = EngineConfig(
            max_batch_size=4,
            queue_capacity=16,
            breaker=BreakerConfig(window=8, min_calls=2, failure_threshold=0.5),
        )
        with ServingEngine(_FlakyScorer(failures=0), config) as engine:
            assert isinstance(engine.infer(_frame()), Scored)
            stats = engine.stats()
        assert stats["breaker"]["state"] == "closed"
        assert "degraded" in stats and "retries" in stats

    def test_degraded_serializes_over_the_wire(self):
        from repro.serving.service import _serialize_outcome

        payload = _serialize_outcome(
            7, Degraded(reason="circuit breaker open", is_novel=True, policy="novel")
        )
        assert payload["status"] == "degraded"
        assert payload["is_novel"] is True
        assert payload["id"] == 7


class _ZeroScorer(Scorer):
    """Scores every frame 0.0 (not novel) and counts the frames it saw."""

    image_shape = FRAME_SHAPE
    dtype = np.dtype("float64")

    def __init__(self):
        self.frames_seen = 0

    def score_batch(self, frames):
        n = len(frames)
        self.frames_seen += n
        return BatchVerdicts(
            scores=np.zeros(n), is_novel=np.zeros(n, dtype=bool), margins=np.zeros(n)
        )


def _scored(ctx):
    engine = ServingEngine(_ZeroScorer())
    try:
        return engine.submit(_frame(), trace=ctx).result(10.0), 1
    finally:
        engine.close()


def _rate_limited(ctx):
    policy = QosPolicy(client_rate_limits={"greedy": RateLimit(rate_per_s=0.5, burst=1)})
    engine = ServingEngine(_ZeroScorer(), EngineConfig(qos=policy))
    try:
        engine.infer(_frame(), client_id="greedy")
        return engine.submit(_frame(), trace=ctx, client_id="greedy").result(10.0), 2
    finally:
        engine.close()


def _overloaded(ctx):
    scorer = _BlockingScorer()
    config = EngineConfig(max_batch_size=1, max_wait_ms=0.0, queue_capacity=1)
    engine = ServingEngine(scorer, config)
    try:
        engine.submit(_frame())
        assert scorer.entered.wait(10.0)
        engine.submit(_frame())  # fills the queue
        return engine.submit(_frame(), trace=ctx).result(10.0), 3
    finally:
        scorer.release.set()
        engine.close()


def _deadline_exceeded(ctx):
    scorer = _BlockingScorer()
    engine = ServingEngine(scorer, EngineConfig(max_batch_size=1, max_wait_ms=0.0))
    try:
        engine.submit(_frame())
        assert scorer.entered.wait(10.0)
        pending = engine.submit(_frame(), trace=ctx, deadline_ms=1.0)
        time.sleep(0.05)
        scorer.release.set()
        return pending.result(10.0), 2
    finally:
        scorer.release.set()
        engine.close()


def _failed(ctx):
    engine = ServingEngine(_RaisingScorer())
    try:
        return engine.submit(_frame(), trace=ctx).result(10.0), 1
    finally:
        engine.close()


def _degraded(ctx):
    engine = ServingEngine(_RaisingScorer(), EngineConfig(fail_safe="novel"))
    try:
        return engine.submit(_frame(), trace=ctx).result(10.0), 1
    finally:
        engine.close()


def _closed(ctx):
    """A request still queued when the engine closes."""
    scorer = _BlockingScorer()
    engine = ServingEngine(scorer, EngineConfig(max_batch_size=1, max_wait_ms=0.0))
    engine.submit(_frame())
    assert scorer.entered.wait(10.0)
    pending = engine.submit(_frame(), trace=ctx)
    closer = threading.Thread(target=engine.close)
    closer.start()
    deadline = time.monotonic() + 10.0
    while not engine._batcher.closed and time.monotonic() < deadline:
        time.sleep(0.001)
    scorer.release.set()
    closer.join(10.0)
    assert not closer.is_alive()
    return pending.result(10.0), 2


class TestOneExit:
    """Every request leaves through ServingEngine._finish: exactly one
    ``serving.request`` root span per outcome, counted before it is seen."""

    @pytest.mark.parametrize(
        "scenario, outcome_type, name",
        [
            (_scored, Scored, "scored"),
            (_rate_limited, Rejected, "rejected"),
            (_overloaded, Overloaded, "overloaded"),
            (_deadline_exceeded, DeadlineExceeded, "deadline_exceeded"),
            (_failed, Failed, "failed"),
            (_degraded, Degraded, "degraded"),
            (_closed, Failed, "failed"),
        ],
        ids=["scored", "rejected", "overloaded", "deadline_exceeded", "failed",
             "degraded", "engine_closed"],
    )
    def test_each_outcome_records_one_root_span(self, scenario, outcome_type, name):
        ctx = TraceContext.new_root()
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            outcome, submitted = scenario(ctx)
        assert isinstance(outcome, outcome_type)
        roots = [
            r for r in sink.records
            if r["type"] == "span" and r["name"] == "serving.request"
        ]
        # One root per submitted request, and this request's root is its own.
        assert len(roots) == submitted
        (mine,) = [r for r in roots if r["trace_id"] == ctx.trace_id]
        assert mine["span_id"] == ctx.span_id
        assert mine["attrs"]["outcome"] == name

    def test_engine_closed_is_counted_as_failed(self):
        with telemetry_session():
            outcome, _ = _closed(TraceContext.new_root())
        assert outcome == Failed(error="engine closed")

    def test_counts_balance_on_every_stats_read(self):
        """Threads submit requests with mixed outcomes while another reads
        stats(): submitted always equals in_flight plus the outcome counts."""

        class Poisonable(_ZeroScorer):
            def score_batch(self, frames):
                time.sleep(0.001)
                if (frames[:, 0, 0] == 2.0).any():
                    raise RuntimeError("poisoned batch")
                return super().score_batch(frames)

        keys = ("scored", "rejected", "rejected_admission", "deadline_exceeded",
                "failed", "degraded")
        config = EngineConfig(
            max_batch_size=4, max_wait_ms=0.5, queue_capacity=6,
            qos=QosPolicy(shed_deadlines=False, aimd=None),
        )
        engine = ServingEngine(Poisonable(), config)
        done = threading.Event()
        reads, problems = [], []

        def read_stats():
            while not done.is_set():
                stats = engine.stats()
                in_flight = stats["admission"]["in_flight"]
                settled = sum(stats[key] for key in keys)
                reads.append(stats["submitted"])
                if in_flight < 0 or stats["submitted"] != in_flight + settled:
                    problems.append((stats["submitted"], in_flight, settled))

        def submit_mixed(pendings):
            for i in range(150):
                kind = i % 5
                frame = _frame(2.0 if kind == 2 else 0.5)
                if kind == 1:
                    frame[1, 1] = np.nan
                deadline = 0.001 if kind == 3 else None
                pendings.append(engine.submit(frame, deadline_ms=deadline))

        batches = [[] for _ in range(4)]
        submitters = [threading.Thread(target=submit_mixed, args=(b,)) for b in batches]
        reader = threading.Thread(target=read_stats)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            reader.start()
            for thread in submitters:
                thread.start()
            for thread in submitters:
                thread.join(30.0)
            outcomes = [p.result(30.0) for b in batches for p in b]
        finally:
            done.set()
            reader.join(10.0)
            sys.setswitchinterval(interval)
            engine.close()
        final = engine.stats()
        assert not any(t.is_alive() for t in submitters + [reader])
        assert problems == []
        assert len(reads) > 1
        assert final["submitted"] == len(outcomes) == 600
        assert final["admission"]["in_flight"] == 0
        assert sum(final[key] for key in keys) == 600
        for key in ("scored", "rejected_admission", "deadline_exceeded", "failed"):
            assert final[key] > 0, key


class TestNonFiniteFrames:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refused_at_submit_without_scoring(self, bad):
        scorer = _ZeroScorer()
        frame = _frame()
        frame[2, 3] = bad
        with telemetry_session() as telem:
            with ServingEngine(scorer) as engine:
                pending = engine.submit(frame, client_id="cam-1")
                assert pending.done()
                outcome = pending.result(0.0)
                stats = engine.stats()
            rejected = telem.counter("serving.admission.rejected.non_finite_frame").value
        assert outcome == Rejected(
            reason="non_finite_frame", qos_class="interactive", client_id="cam-1"
        )
        assert (stats["submitted"], stats["rejected_admission"], stats["scored"]) == (1, 1, 0)
        assert rejected == 1
        assert scorer.frames_seen == 0

    def test_all_nan_frame_is_not_scored_novel(self):
        with ServingEngine(_ZeroScorer()) as engine:
            outcome = engine.infer(np.full(FRAME_SHAPE, np.nan))
        assert isinstance(outcome, Rejected)
        assert outcome.reason == "non_finite_frame"
