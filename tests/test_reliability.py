"""Unit tests for the reliability layer: retry, breaker, faults, sanitizer."""

import numpy as np
import pytest

from repro.exceptions import (
    CircuitOpenError,
    ConfigurationError,
    InjectedFaultError,
    ReliabilityError,
    ReproError,
)
from repro.reliability import (
    CLOSED,
    DEGRADED_STATES,
    FAULT_KINDS,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    FaultInjector,
    FaultSchedule,
    FrameSanitizer,
    RetryPolicy,
    call_with_retry,
    finite_scores_mask,
)
from repro.serving import BatchVerdicts, Scorer


class _FakeClock:
    """Injectable monotonic clock the breaker tests advance by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class _FlakyFn:
    """Callable that fails its first ``failures`` invocations."""

    def __init__(self, failures, exc=RuntimeError):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"failure {self.calls}")
        return "ok"


class TestRetryPolicy:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"base_delay_s": -0.1},
        {"multiplier": 0.5},
        {"jitter": 1.5},
        {"jitter": -0.1},
    ])
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_delays_grow_geometrically_and_cap(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=0.5, jitter=0.0)
        delays = [policy.delay_s(k) for k in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_jitter_stretches_within_bounds(self):
        policy = RetryPolicy(base_delay_s=0.1, multiplier=1.0, jitter=0.5)
        rng = policy.make_rng()
        for k in range(20):
            delay = policy.delay_s(0, rng)
            assert 0.1 <= delay <= 0.15

    def test_jitter_stream_is_seeded(self):
        policy = RetryPolicy(jitter=0.5, seed=7)
        a = [policy.delay_s(k, policy.make_rng()) for k in range(4)]
        b = [policy.delay_s(k, policy.make_rng()) for k in range(4)]
        assert a == b

    def test_negative_failure_index_raises(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().delay_s(-1)


class TestCallWithRetry:
    def test_first_try_success_uses_zero_retries(self):
        result, retries = call_with_retry(lambda: 42, RetryPolicy(), sleep=lambda s: None)
        assert (result, retries) == (42, 0)

    def test_recovers_after_transient_failures(self):
        fn = _FlakyFn(failures=2)
        slept = []
        result, retries = call_with_retry(
            fn, RetryPolicy(max_attempts=3, base_delay_s=0.01, jitter=0.0),
            sleep=slept.append,
        )
        assert result == "ok"
        assert retries == 2
        assert slept == pytest.approx([0.01, 0.02])

    def test_final_failure_reraises(self):
        fn = _FlakyFn(failures=5)
        with pytest.raises(RuntimeError, match="failure 3"):
            call_with_retry(fn, RetryPolicy(max_attempts=3), sleep=lambda s: None)
        assert fn.calls == 3

    def test_on_failure_fires_for_every_attempt_including_last(self):
        attempts = []
        with pytest.raises(RuntimeError):
            call_with_retry(
                _FlakyFn(failures=5),
                RetryPolicy(max_attempts=3),
                on_failure=lambda exc, attempt: attempts.append(attempt),
                sleep=lambda s: None,
            )
        assert attempts == [1, 2, 3]

    def test_non_retryable_exception_propagates_immediately(self):
        fn = _FlakyFn(failures=5, exc=ValueError)
        with pytest.raises(ValueError):
            call_with_retry(
                fn, RetryPolicy(max_attempts=3), retryable=KeyError,
                sleep=lambda s: None,
            )
        assert fn.calls == 1


class TestBreakerConfig:
    @pytest.mark.parametrize("kwargs", [
        {"window": 0},
        {"failure_threshold": 0.0},
        {"failure_threshold": 1.5},
        {"min_calls": 0},
        {"window": 4, "min_calls": 5},
        {"reset_timeout_s": 0.0},
        {"half_open_probes": 0},
    ])
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ConfigurationError):
            BreakerConfig(**kwargs)


class TestCircuitBreaker:
    def _breaker(self, **kwargs):
        clock = _FakeClock()
        defaults = dict(
            window=10, failure_threshold=0.5, min_calls=4,
            reset_timeout_s=5.0, half_open_probes=2,
        )
        defaults.update(kwargs)
        return CircuitBreaker(BreakerConfig(**defaults), clock=clock), clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self._breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_stays_closed_below_min_calls(self):
        breaker, _ = self._breaker(min_calls=4)
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED

    def test_trips_at_failure_threshold(self):
        breaker, _ = self._breaker()
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()  # 2/4 = 0.5 >= threshold with min_calls met
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_check_raises_typed_error_when_open(self):
        breaker, _ = self._breaker()
        for _ in range(4):
            breaker.record_failure()
        with pytest.raises(CircuitOpenError) as excinfo:
            breaker.check()
        assert isinstance(excinfo.value, ReliabilityError)
        assert isinstance(excinfo.value, ReproError)

    def test_half_open_after_reset_timeout(self):
        breaker, clock = self._breaker(reset_timeout_s=5.0)
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(4.9)
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_bounded_probes(self):
        breaker, clock = self._breaker(half_open_probes=2)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # probe budget exhausted

    def test_successful_probes_close_the_breaker(self):
        breaker, clock = self._breaker(half_open_probes=2)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN  # one probe is not enough
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_probe_failure_reopens_and_restarts_timeout(self):
        breaker, clock = self._breaker(reset_timeout_s=5.0)
        for _ in range(4):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(4.0)
        assert breaker.state == OPEN  # timeout restarted at re-open
        clock.advance(1.5)
        assert breaker.state == HALF_OPEN

    def test_restored_mid_half_open_does_not_reopen_on_first_success(self):
        """A breaker journaled mid-probe must resume probing after a
        restart, not treat the first post-restore success as a fresh
        failure signal and snap back open."""
        before, clock = self._breaker(half_open_probes=2, reset_timeout_s=5.0)
        for _ in range(4):
            before.record_failure()
        clock.advance(10.0)
        assert before.allow()          # probe 1 admitted...
        before.record_success()        # ...and succeeded
        assert before.state == HALF_OPEN
        state = before.state_dict()

        after, _ = self._breaker(half_open_probes=2, reset_timeout_s=5.0)
        after.load_state_dict(state)
        assert after.state == HALF_OPEN
        assert after.allow()           # exactly one probe slot remains
        after.record_success()
        assert after.state == CLOSED   # 2/2 probes succeeded across the crash
        assert after.allow()

    def test_restored_half_open_probe_failure_still_reopens(self):
        before, clock = self._breaker(half_open_probes=2, reset_timeout_s=5.0)
        for _ in range(4):
            before.record_failure()
        clock.advance(10.0)
        assert before.allow()
        state = before.state_dict()

        after, after_clock = self._breaker(half_open_probes=2, reset_timeout_s=5.0)
        after.load_state_dict(state)
        after.record_failure()
        assert after.state == OPEN
        after_clock.advance(10.0)
        assert after.state == HALF_OPEN  # the timeout restarted post-restore

    def test_old_failures_age_out_of_window(self):
        breaker, _ = self._breaker(window=4, min_calls=4)
        breaker.record_failure()
        breaker.record_failure()
        for _ in range(4):  # pushes both failures out of the window
            breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_stats_and_transitions(self):
        breaker, clock = self._breaker()
        assert breaker.stats()["state"] == CLOSED
        for _ in range(4):
            breaker.record_failure()
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
        stats = breaker.stats()
        assert stats["state"] == OPEN
        # closed -> open -> half_open -> open
        assert stats["transitions"] == 3
        assert breaker.state_code() == 1


class _StubScorer(Scorer):
    """Minimal in-process backend recording the frames it was handed."""

    image_shape = (4, 4)
    dtype = np.dtype("float64")

    def __init__(self):
        self.batches = []
        self.closed = False

    def score_batch(self, frames):
        frames = np.asarray(frames)
        self.batches.append(frames)
        n = len(frames)
        return BatchVerdicts(
            scores=np.linspace(0.1, 0.9, n),
            is_novel=np.zeros(n, dtype=bool),
            margins=np.zeros(n),
        )

    def close(self):
        self.closed = True


class TestFaultSchedule:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule(["latency", "meteor_strike"])

    def test_kind_at_past_end_is_healthy(self):
        schedule = FaultSchedule(["exception", None])
        assert schedule.kind_at(0) == "exception"
        assert schedule.kind_at(1) is None
        assert schedule.kind_at(2) is None
        assert schedule.kind_at(-1) is None

    def test_random_is_deterministic_per_seed(self):
        rates = {"exception": 0.3, "latency": 0.2}
        a = FaultSchedule.random(50, rates, seed=3)
        b = FaultSchedule.random(50, rates, seed=3)
        assert [a.kind_at(i) for i in range(50)] == [b.kind_at(i) for i in range(50)]
        c = FaultSchedule.random(50, rates, seed=4)
        assert [a.kind_at(i) for i in range(50)] != [c.kind_at(i) for i in range(50)]

    def test_random_validates_rates(self):
        with pytest.raises(ConfigurationError):
            FaultSchedule.random(10, {"exception": 0.7, "latency": 0.6})
        with pytest.raises(ConfigurationError):
            FaultSchedule.random(10, {"exception": -0.1})
        with pytest.raises(ConfigurationError):
            FaultSchedule.random(-1, {"exception": 0.1})

    def test_counts_tally_scheduled_faults(self):
        schedule = FaultSchedule(["exception", None, "exception", "latency"])
        assert schedule.counts() == {"latency": 1, "exception": 2}
        assert len(schedule) == 4


class TestFaultInjector:
    def test_healthy_schedule_is_passthrough(self):
        scorer = _StubScorer()
        injector = FaultInjector(scorer, FaultSchedule([None, None]))
        frames = np.zeros((3, 4, 4))
        verdicts = injector.score_batch(frames)
        assert len(verdicts) == 3
        assert injector.calls == 1
        assert injector.injected() == {}

    def test_exception_fault_raises_typed_error(self):
        injector = FaultInjector(_StubScorer(), FaultSchedule(["exception"]))
        with pytest.raises(InjectedFaultError):
            injector.score_batch(np.zeros((2, 4, 4)))
        assert injector.injected() == {"exception": 1}

    def test_nan_scores_fault_preserves_batch_length(self):
        injector = FaultInjector(_StubScorer(), FaultSchedule(["nan_scores"]))
        verdicts = injector.score_batch(np.zeros((3, 4, 4)))
        assert len(verdicts) == 3
        assert np.all(np.isnan(verdicts.scores))
        assert np.all(np.isnan(verdicts.margins))

    def test_corrupt_frames_fault_poisons_input(self):
        scorer = _StubScorer()
        injector = FaultInjector(scorer, FaultSchedule(["corrupt_frames"]))
        injector.score_batch(np.zeros((2, 4, 4)))
        assert np.all(np.isnan(scorer.batches[0]))

    def test_latency_fault_uses_injected_sleeper(self):
        slept = []
        injector = FaultInjector(
            _StubScorer(), FaultSchedule(["latency"]),
            latency_ms=30.0, sleep=slept.append,
        )
        injector.score_batch(np.zeros((1, 4, 4)))
        assert slept == pytest.approx([0.03])

    def test_calls_past_schedule_run_clean(self):
        injector = FaultInjector(_StubScorer(), FaultSchedule(["exception"]))
        with pytest.raises(InjectedFaultError):
            injector.score_batch(np.zeros((1, 4, 4)))
        for _ in range(3):  # faults cleared: schedule exhausted
            assert len(injector.score_batch(np.zeros((1, 4, 4)))) == 1
        assert injector.calls == 4

    def test_forwards_scorer_surface(self):
        scorer = _StubScorer()
        injector = FaultInjector(scorer, FaultSchedule([]))
        assert injector.replicas == 1
        assert injector.image_shape == (4, 4)
        injector.close()
        assert scorer.closed

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultInjector(_StubScorer(), FaultSchedule([]), latency_ms=-1.0)

    def test_fault_kinds_constant_matches_schedule_validation(self):
        # Every documented kind must be accepted by the schedule.
        FaultSchedule(list(FAULT_KINDS))


class TestFiniteScoresMask:
    def test_flags_nan_and_inf(self):
        mask = finite_scores_mask([0.5, np.nan, np.inf, -np.inf, 1.0])
        assert mask.tolist() == [True, False, False, False, True]


class TestFrameSanitizer:
    def _frame(self, value=0.5, shape=(4, 4)):
        return np.full(shape, value)

    def test_clean_frame_passes(self):
        assert FrameSanitizer(image_shape=(4, 4)).check(self._frame()) is None

    def test_bad_dtype(self):
        sanitizer = FrameSanitizer()
        assert sanitizer.check(np.array([["a", "b"], ["c", "d"]])) == "bad_dtype"
        assert sanitizer.check(np.array([[None, None]], dtype=object)) == "bad_dtype"

    def test_bad_shape(self):
        sanitizer = FrameSanitizer(image_shape=(4, 4))
        assert sanitizer.check(np.zeros((4, 5))) == "bad_shape"
        assert sanitizer.check(np.zeros((4, 4, 3))) == "bad_shape"
        assert sanitizer.check(np.zeros(16)) == "bad_shape"

    def test_any_2d_accepted_without_expected_shape(self):
        assert FrameSanitizer().check(np.zeros((7, 9))) is None

    def test_non_finite_frame(self):
        sanitizer = FrameSanitizer(image_shape=(4, 4))
        frame = self._frame()
        frame[1, 2] = np.nan
        assert sanitizer.check(frame) == "non_finite_frame"
        frame[1, 2] = np.inf
        assert sanitizer.check(frame) == "non_finite_frame"

    def test_stuck_camera_after_threshold_repeats(self):
        sanitizer = FrameSanitizer(stuck_threshold=3)
        frame = self._frame()
        assert sanitizer.check(frame) is None
        assert sanitizer.check(frame) is None
        assert sanitizer.check(frame) == "stuck_camera"
        assert sanitizer.check(frame) == "stuck_camera"  # still stuck
        assert sanitizer.consecutive_identical == 4

    def test_noise_breaks_identical_run(self):
        sanitizer = FrameSanitizer(stuck_threshold=3)
        frame = self._frame()
        sanitizer.check(frame)
        sanitizer.check(frame)
        sanitizer.check(self._frame(0.6))  # a different frame resets the run
        assert sanitizer.check(frame) is None
        assert sanitizer.consecutive_identical == 1

    def test_degraded_recovered_degraded_cycle(self):
        """stuck_camera is re-entrant: degraded -> recovered -> degraded
        again, with the repeat counter restarting from scratch each time
        a fresh frame breaks the run."""
        sanitizer = FrameSanitizer(stuck_threshold=3)
        frame = self._frame()
        assert sanitizer.check(frame) is None
        assert sanitizer.check(frame) is None
        assert sanitizer.check(frame) == "stuck_camera"      # degraded
        assert sanitizer.check(self._frame(0.6)) is None     # recovered
        assert sanitizer.consecutive_identical == 1
        assert sanitizer.check(self._frame(0.6)) is None     # 2 repeats: fine
        assert sanitizer.check(self._frame(0.6)) == "stuck_camera"  # degraded again
        assert sanitizer.check(self._frame(0.7)) is None     # and recovers again

    def test_reset_forgets_history(self):
        sanitizer = FrameSanitizer(stuck_threshold=2)
        frame = self._frame()
        sanitizer.check(frame)
        sanitizer.reset()
        assert sanitizer.check(frame) is None

    def test_stuck_detection_disabled_by_default(self):
        sanitizer = FrameSanitizer()
        frame = self._frame()
        for _ in range(10):
            assert sanitizer.check(frame) is None

    def test_invalid_stuck_threshold(self):
        with pytest.raises(ConfigurationError):
            FrameSanitizer(stuck_threshold=1)

    def test_degraded_states_cover_sanitizer_outputs(self):
        for state in ("bad_dtype", "bad_shape", "non_finite_frame", "stuck_camera"):
            assert state in DEGRADED_STATES
