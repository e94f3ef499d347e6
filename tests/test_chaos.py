"""Chaos tests: the serving and monitoring invariants under injected faults.

Every test here drives a real :class:`~repro.serving.ServingEngine` (or
:class:`~repro.novelty.StreamMonitor`) through a *seeded* fault storm and
asserts the fault-tolerance contract:

* every submitted request resolves to exactly one typed outcome;
* nothing deadlocks (the ``run_bounded`` guard bounds wall-clock);
* the circuit breaker walks closed → open → half-open → closed as faults
  clear;
* the persistence alarm still fires on a genuinely novel run even when
  faults are interleaved with it.

Marked ``chaos`` so the storm subset is selectable (``-m chaos``); the
tests run in tier 1 regardless.
"""

import numpy as np
import pytest

from repro.reliability import (
    CLOSED,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    FaultInjector,
    FaultSchedule,
    RetryPolicy,
)
from repro.serving import (
    BatchVerdicts,
    ClassPolicy,
    DeadlineExceeded,
    Degraded,
    EngineConfig,
    Failed,
    Overloaded,
    QosPolicy,
    Rejected,
    Scored,
    Scorer,
    ServingEngine,
    run_mixed_load,
)

pytestmark = pytest.mark.chaos

FRAME_SHAPE = (4, 4)
OUTCOME_TYPES = (Scored, Rejected, Overloaded, DeadlineExceeded, Degraded, Failed)


class _StubScorer(Scorer):
    """Fast deterministic backend so chaos storms don't pay for real VBP."""

    image_shape = FRAME_SHAPE
    dtype = np.dtype("float64")

    def __init__(self):
        self.calls = 0

    def score_batch(self, frames):
        self.calls += 1
        n = len(frames)
        return BatchVerdicts(
            scores=np.full(n, 0.25),
            is_novel=np.zeros(n, dtype=bool),
            margins=np.full(n, -0.25),
        )


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _frame(value=0.5):
    return np.full(FRAME_SHAPE, value)


def _chaos_engine(schedule, fail_safe="novel", breaker=None, **config_kwargs):
    injector = FaultInjector(_StubScorer(), schedule, sleep=lambda s: None)
    config = EngineConfig(
        max_batch_size=4,
        max_wait_ms=0.5,
        queue_capacity=256,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
        breaker=BreakerConfig(
            window=8, min_calls=4, failure_threshold=0.5,
            reset_timeout_s=0.05, half_open_probes=2,
        ),
        fail_safe=fail_safe,
        **config_kwargs,
    )
    return ServingEngine(injector, config, breaker=breaker), injector


class TestEngineUnderStorm:
    def test_every_request_resolves_to_one_typed_outcome(self, run_bounded):
        """The core contract: N requests in, exactly N typed outcomes out,
        within bounded wall-clock, under a mixed seeded fault storm."""
        schedule = FaultSchedule.random(
            length=64,
            rates={"exception": 0.2, "latency": 0.1, "nan_scores": 0.15},
            seed=11,
        )
        engine, injector = _chaos_engine(schedule)
        n = 80
        with engine:
            outcomes = run_bounded(
                lambda: engine.infer_many(np.stack([_frame(i / n) for i in range(n)])),
                timeout_s=60.0,
            )
        assert len(outcomes) == n
        for outcome in outcomes:
            matched = [t for t in OUTCOME_TYPES if isinstance(outcome, t)]
            assert len(matched) == 1, f"ambiguous outcome {outcome!r}"
        # The storm actually happened, and the ledger balances.
        assert injector.injected()
        counts = engine.stats()
        assert counts["submitted"] == n
        resolved = (
            counts["scored"] + counts["rejected"] + counts["deadline_exceeded"]
            + counts["failed"] + counts["degraded"]
        )
        assert resolved == n

    def test_fail_safe_novel_storm_never_fails_silently(self, run_bounded):
        """Under ``fail_safe="novel"`` an unscorable request carries the
        conservative novel verdict — no outcome is a bare Failed."""
        schedule = FaultSchedule(["exception"] * 12)  # beats max_attempts=3
        engine, _ = _chaos_engine(schedule, fail_safe="novel")
        with engine:
            outcomes = run_bounded(
                lambda: [engine.infer(_frame()) for _ in range(4)], timeout_s=30.0
            )
        degraded = [o for o in outcomes if isinstance(o, Degraded)]
        assert degraded, "exhausted retries must surface as Degraded"
        for outcome in degraded:
            assert outcome.is_novel is True
            assert outcome.policy == "novel"
            assert outcome.status == "degraded"

    def test_nan_scores_never_delivered_as_scored(self, run_bounded):
        """A NaN verdict is a backend failure, not an answer: with
        reliability configured no Scored outcome may carry a NaN score."""
        schedule = FaultSchedule.random(
            length=40, rates={"nan_scores": 0.5}, seed=3
        )
        engine, injector = _chaos_engine(schedule)
        with engine:
            outcomes = run_bounded(
                lambda: [engine.infer(_frame(i / 40)) for i in range(40)],
                timeout_s=60.0,
            )
        assert injector.injected().get("nan_scores", 0) > 0
        for outcome in outcomes:
            if isinstance(outcome, Scored):
                assert np.isfinite(outcome.score)

    def test_retries_recorded_on_scored_outcomes(self, run_bounded):
        """A request that survives via retry reports how many it spent."""
        schedule = FaultSchedule(["exception", None])  # fail once, then clean
        engine, _ = _chaos_engine(schedule)
        with engine:
            outcome = run_bounded(lambda: engine.infer(_frame()), timeout_s=30.0)
        assert isinstance(outcome, Scored)
        assert outcome.retries == 1
        assert engine.stats()["retries"] == 1


class TestMixedPriorityStorm:
    def test_critical_isolated_from_saturating_batch_traffic(self, run_bounded):
        """A saturating ``batch`` client under a fault storm must not
        starve ``critical`` traffic: critical queue delay stays bounded,
        and every request — admitted or refused — resolves to exactly one
        typed outcome (refusals are ``Rejected``, never silent drops)."""
        from repro.serving.qos import AimdConfig
        from repro.telemetry import telemetry_session

        schedule = FaultSchedule.random(
            length=256, rates={"latency": 0.1, "exception": 0.05}, seed=7
        )
        injector = FaultInjector(_StubScorer(), schedule, sleep=lambda s: None)
        policy = QosPolicy(
            classes={
                "critical": ClassPolicy(weight=16, sheddable=False),
                "interactive": ClassPolicy(weight=4),
                "batch": ClassPolicy(weight=1, queue_capacity=16),
            },
            aimd=AimdConfig(initial=16, min_limit=2),
        )
        config = EngineConfig(
            max_batch_size=4,
            max_wait_ms=0.5,
            queue_capacity=64,
            retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0),
            fail_safe="novel",
            qos=policy,
        )
        n_requests = 240
        frames = [_frame(i / 16) for i in range(16)]
        with telemetry_session() as telem:
            engine = ServingEngine(injector, config)
            with engine:
                report = run_bounded(
                    lambda: run_mixed_load(
                        lambda frame, qos_class, client_id: engine.infer(
                            frame, qos_class=qos_class, client_id=client_id
                        ),
                        frames,
                        {"critical": 10, "batch": 90},
                        clients=8,
                        requests_per_client=n_requests // 8,
                    ),
                    timeout_s=120.0,
                )
            critical_delay = telem.window_histogram("serving.queue_delay.critical")
            critical_p99_s = critical_delay.quantile(99.0)
            critical_seen = critical_delay.observed

        # The storm actually happened.
        assert injector.injected()
        # Zero silent drops: every closed-loop request came back as exactly
        # one typed outcome, and the engine's ledger balances.
        per_class = report.per_class
        assert report.requests == n_requests
        resolved = (
            report.ok + report.rejected + report.overloaded
            + report.deadline_exceeded + report.degraded + report.failed
        )
        assert resolved == n_requests
        counts = engine.stats()
        assert counts["submitted"] == n_requests
        assert counts["submitted"] == (
            counts["scored"] + counts["rejected"] + counts["rejected_admission"]
            + counts["deadline_exceeded"] + counts["failed"] + counts["degraded"]
        )
        # Critical traffic was never refused (non-sheddable, unmetered)…
        assert per_class["critical"]["rejected"] == 0
        assert per_class["critical"]["overloaded"] == 0
        # …and every critical frame that entered the queue left it fast:
        # the 16:1 drain weight keeps its queue delay bounded even while
        # batch saturates its own queue and the AIMD limit.
        assert critical_seen > 0, "no critical frame ever reached the scorer"
        assert critical_p99_s < 0.25, (
            f"critical p99 queue delay {critical_p99_s * 1e3:.1f} ms under storm"
        )


class TestBreakerLifecycle:
    def test_breaker_opens_under_faults_and_recovers_when_they_clear(
        self, run_bounded
    ):
        """closed → open under a solid fault run; half-open probes after the
        reset timeout; closed again once the backend is healthy."""
        clock = _FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(
                window=8, min_calls=2, failure_threshold=0.5,
                reset_timeout_s=5.0, half_open_probes=2,
            ),
            clock=clock,
        )
        # Exactly the first request's three retry attempts fail; the
        # breaker trips mid-retries (min_calls=2), later calls never reach
        # the backend, and by probe time the faults have cleared.
        schedule = FaultSchedule(["exception"] * 3)
        engine, injector = _chaos_engine(schedule, breaker=breaker)
        with engine:
            assert breaker.state == CLOSED
            # Two requests: each batch burns up to 3 attempts, so the
            # failure window fills and the breaker trips.
            first = run_bounded(
                lambda: [engine.infer(_frame()) for _ in range(2)], timeout_s=30.0
            )
            assert all(isinstance(o, Degraded) for o in first)
            assert breaker.state == OPEN
            # While open, requests resolve immediately without touching the
            # backend.
            calls_before = injector.calls
            refused = run_bounded(lambda: engine.infer(_frame()), timeout_s=30.0)
            assert isinstance(refused, Degraded)
            assert refused.reason == "circuit breaker open"
            assert injector.calls == calls_before
            # Faults have cleared (schedule exhausted); lapse the timeout
            # and let the half-open probes through.
            clock.advance(6.0)
            probes = run_bounded(
                lambda: [engine.infer(_frame()) for _ in range(2)], timeout_s=30.0
            )
            assert all(isinstance(o, Scored) for o in probes)
            assert breaker.state == CLOSED
            # Fully recovered: scoring flows again.
            after = run_bounded(lambda: engine.infer(_frame()), timeout_s=30.0)
            assert isinstance(after, Scored)


class TestMonitorUnderFaults:
    def test_alarm_still_fires_on_novel_run_interleaved_with_faults(
        self, fitted_pipeline, dsu_test, dsi_novel
    ):
        """The acceptance scenario: a genuinely novel run with NaN frames
        sprinkled through it must still raise the persistence alarm."""
        from repro.novelty import StreamMonitor

        nan_frame = np.full(fitted_pipeline.image_shape, np.nan)
        novel = dsi_novel.frames[:6]
        stream = np.concatenate([
            dsu_test.frames[:4],
            novel[0:2], nan_frame[None], novel[2:4], nan_frame[None], novel[4:6],
        ])
        monitor = StreamMonitor(
            fitted_pipeline, window=5, min_consecutive=3, fail_safe="novel"
        )
        verdicts = monitor.observe_batch(stream)
        assert len(verdicts) == len(stream)
        assert any(v.alarm for v in verdicts), "faults must not mask the alarm"
        assert monitor.degraded_counts() == {"non_finite_frame": 2}
        # Degraded frames carried the conservative verdict, not a crash.
        for v in verdicts:
            if v.degraded:
                assert v.is_novel is True
                assert np.isnan(v.score)


class TestPoolChaos:
    def test_worker_kills_mid_stream_are_absorbed(self, bundle_dir, run_bounded):
        """kill_worker faults SIGKILL real replicas mid-call; the pool's
        restart-and-retry plus the engine's typed outcomes absorb it."""
        from repro.serving import WorkerPool

        pool = WorkerPool(bundle_dir, workers=2, request_timeout_s=120.0)
        injector = FaultInjector(
            pool, FaultSchedule([None, "kill_worker", None, "kill_worker"])
        )
        config = EngineConfig(
            max_batch_size=2, max_wait_ms=0.5, queue_capacity=64,
            retry=RetryPolicy(max_attempts=2, base_delay_s=0.0, jitter=0.0),
            fail_safe="novel",
        )
        image = np.zeros(pool.image_shape)
        with ServingEngine(injector, config) as engine:
            outcomes = run_bounded(
                lambda: [engine.infer(image) for _ in range(6)], timeout_s=300.0
            )
            assert len(outcomes) == 6
            for outcome in outcomes:
                assert isinstance(outcome, OUTCOME_TYPES)
            assert injector.injected().get("kill_worker", 0) >= 1
            assert pool.restarts >= 1
            # The pool healed: every replica answers again.
            assert pool.ensure_healthy() == 0 or pool.ping() == [True, True]
            assert pool.ping() == [True, True]
