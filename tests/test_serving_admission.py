"""Tests for admission control: controller decisions, weighted multi-queue,
and the engine integration (typed Rejected outcomes, accounting)."""

import threading
import time

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, StateRestoreError
from repro.serving import (
    REJECTION_REASONS,
    AdmissionController,
    AimdConfig,
    BatchVerdicts,
    ClassPolicy,
    EngineConfig,
    PendingResult,
    QosPolicy,
    QueuedRequest,
    RateLimit,
    Rejected,
    Scored,
    Scorer,
    ServingEngine,
    WeightedClassBatcher,
)
from repro.serving.admission import (
    REJECT_CONCURRENCY,
    REJECT_DEADLINE,
    REJECT_RATE_LIMITED,
)

FRAME_SHAPE = (4, 4)


class FakeClock:
    def __init__(self, t: float = 50.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _policy(**overrides) -> QosPolicy:
    defaults = dict(
        classes={
            "critical": ClassPolicy(weight=16, sheddable=False),
            "interactive": ClassPolicy(weight=4),
            "batch": ClassPolicy(weight=1),
        },
    )
    defaults.update(overrides)
    return QosPolicy(**defaults)


def _request(qos_class: str = "interactive", client_id=None) -> QueuedRequest:
    return QueuedRequest(
        frame=np.zeros(FRAME_SHAPE),
        pending=PendingResult(),
        enqueued_at=time.monotonic(),
        deadline_at=None,
        qos_class=qos_class,
        client_id=client_id,
    )


class TestAdmissionController:
    def test_resolve_class_defaults_and_validates(self):
        ctrl = AdmissionController(_policy())
        assert ctrl.resolve_class(None) == "interactive"
        assert ctrl.resolve_class("critical") == "critical"
        with pytest.raises(ConfigurationError, match="unknown priority class"):
            ctrl.resolve_class("bulk")

    def test_admits_unmetered_traffic(self):
        ctrl = AdmissionController(_policy())
        decision = ctrl.admit(None, "interactive", None, queue_depth=0, in_flight=0)
        assert decision.admitted
        assert decision.reason is None

    def test_rate_limited_client_gets_retry_after(self):
        clock = FakeClock()
        policy = _policy(
            client_rate_limits={"greedy": RateLimit(rate_per_s=2, burst=1)}
        )
        ctrl = AdmissionController(policy, clock=clock)
        assert ctrl.admit("greedy", "batch", None, 0, 0).admitted
        decision = ctrl.admit("greedy", "batch", None, 0, 0)
        assert not decision.admitted
        assert decision.reason == REJECT_RATE_LIMITED
        assert decision.retry_after_ms == pytest.approx(500.0)
        # Unlisted clients are unmetered when there is no global limit.
        assert ctrl.admit("polite", "batch", None, 0, 0).admitted

    def test_global_rate_limit_applies_to_anonymous(self):
        clock = FakeClock()
        policy = _policy(rate_limit=RateLimit(rate_per_s=10, burst=1))
        ctrl = AdmissionController(policy, clock=clock)
        assert ctrl.admit(None, "batch", None, 0, 0).admitted
        assert not ctrl.admit(None, "batch", None, 0, 0).admitted
        clock.advance(0.2)
        assert ctrl.admit(None, "batch", None, 0, 0).admitted

    def test_concurrency_limit_rejects_sheddable(self):
        policy = _policy(aimd=AimdConfig(initial=4, min_limit=2))
        ctrl = AdmissionController(policy)
        decision = ctrl.admit(None, "batch", None, queue_depth=4, in_flight=4)
        assert not decision.admitted
        assert decision.reason == REJECT_CONCURRENCY

    def test_critical_exempt_from_concurrency_limit(self):
        policy = _policy(aimd=AimdConfig(initial=4, min_limit=2))
        ctrl = AdmissionController(policy)
        decision = ctrl.admit(None, "critical", None, queue_depth=100, in_flight=100)
        assert decision.admitted

    def test_deadline_shed_uses_service_time_estimate(self):
        ctrl = AdmissionController(_policy())
        ctrl.observe_batch(seconds=0.1, frames=1)  # 100 ms/frame
        # 10 queued frames -> ~1 s predicted delay >> 50 ms deadline.
        decision = ctrl.admit(None, "batch", 0.05, queue_depth=10, in_flight=0)
        assert not decision.admitted
        assert decision.reason == REJECT_DEADLINE
        # A roomy deadline is admitted.
        assert ctrl.admit(None, "batch", 5.0, queue_depth=10, in_flight=0).admitted

    def test_replicas_divide_predicted_delay(self):
        ctrl = AdmissionController(_policy(), replicas=10)
        ctrl.observe_batch(seconds=0.1, frames=1)
        # Same scenario as above, but 10 replicas -> 100 ms predicted delay.
        decision = ctrl.admit(None, "batch", 0.2, queue_depth=10, in_flight=0)
        assert decision.admitted

    def test_no_deadline_never_shed(self):
        ctrl = AdmissionController(_policy())
        ctrl.observe_batch(seconds=10.0, frames=1)
        assert ctrl.admit(None, "batch", None, queue_depth=500, in_flight=0).admitted

    def test_overload_signal_backs_off_limit(self):
        clock = FakeClock()
        policy = _policy(aimd=AimdConfig(initial=32, decrease=0.5))
        ctrl = AdmissionController(policy, clock=clock)
        ctrl.on_overload("deadline_exceeded")
        assert ctrl.stats()["concurrency_limit"] == 16
        assert ctrl.stats()["aimd_decreases"] == 1

    def test_state_round_trip_preserves_spent_quota(self):
        clock = FakeClock()
        policy = _policy(
            client_rate_limits={"cam": RateLimit(rate_per_s=1, burst=4)},
            aimd=AimdConfig(initial=32),
        )
        ctrl = AdmissionController(policy, clock=clock)
        for _ in range(3):
            assert ctrl.admit("cam", "batch", None, 0, 0).admitted
        ctrl.on_overload("breaker_open")
        restored = AdmissionController(policy, clock=clock)
        restored.load_state_dict(ctrl.state_dict())
        # 3 of 4 burst tokens spent: exactly one admission left.
        assert restored.admit("cam", "batch", None, 0, 0).admitted
        assert not restored.admit("cam", "batch", None, 0, 0).admitted
        assert restored.stats()["concurrency_limit"] == 16

    def test_restore_drops_unmetered_clients(self):
        ctrl = AdmissionController(_policy())  # no quotas configured
        ctrl.load_state_dict({"buckets": {"ghost": {"tokens": 0.0}}})
        assert ctrl.stats()["clients_metered"] == 0
        assert ctrl.admit("ghost", "batch", None, 0, 0).admitted

    def test_restore_rejects_malformed_state(self):
        ctrl = AdmissionController(_policy())
        with pytest.raises(StateRestoreError):
            ctrl.load_state_dict({"buckets": ["nope"]})

    def test_stats_counts_every_reason(self):
        ctrl = AdmissionController(_policy())
        stats = ctrl.stats()
        assert set(stats["rejected"]) == set(REJECTION_REASONS)
        assert stats["admitted"] == 0


class TestWeightedClassBatcher:
    def test_capacity_sums_class_bounds(self):
        policy = _policy(
            classes={
                "critical": ClassPolicy(queue_capacity=8, sheddable=False),
                "batch": ClassPolicy(queue_capacity=4),
            },
            default_class="batch",
        )
        batcher = WeightedClassBatcher(policy, default_capacity=64)
        assert batcher.capacity == 12
        batcher.close()

    def test_offer_routes_and_bounds_per_class(self):
        policy = _policy(
            classes={
                "critical": ClassPolicy(sheddable=False),
                "batch": ClassPolicy(queue_capacity=2),
            },
            default_class="batch",
        )
        batcher = WeightedClassBatcher(policy, default_capacity=16)
        assert batcher.offer(_request("batch"))
        assert batcher.offer(_request("batch"))
        assert not batcher.offer(_request("batch"))  # class queue full
        assert batcher.offer(_request("critical"))  # other classes unaffected
        assert len(batcher) == 3
        assert batcher.depths() == {"critical": 1, "batch": 2}
        batcher.close()

    def test_offer_unknown_class_raises(self):
        batcher = WeightedClassBatcher(_policy())
        with pytest.raises(ConfigurationError, match="unknown priority class"):
            batcher.offer(_request("bulk"))
        batcher.close()

    def test_wrr_shares_slots_by_weight(self):
        policy = _policy(
            classes={
                "interactive": ClassPolicy(weight=3),
                "batch": ClassPolicy(weight=1),
            },
        )
        batcher = WeightedClassBatcher(policy, max_batch_size=8, max_wait_ms=0.0)
        for _ in range(12):
            assert batcher.offer(_request("interactive"))
            assert batcher.offer(_request("batch"))
        drained = []
        while len(batcher):
            drained.extend(batcher.next_batch())
        counts = {"interactive": 0, "batch": 0}
        # Under sustained contention the first 8 slots split 6/2 (3:1).
        for request in drained[:8]:
            counts[request.qos_class] += 1
        assert counts == {"interactive": 6, "batch": 2}
        batcher.close()

    def test_fifo_order_within_class(self):
        batcher = WeightedClassBatcher(_policy(), max_batch_size=4, max_wait_ms=0.0)
        requests = [_request("batch", client_id=str(i)) for i in range(4)]
        for request in requests:
            assert batcher.offer(request)
        batch = batcher.next_batch()
        assert [r.client_id for r in batch] == ["0", "1", "2", "3"]
        batcher.close()

    def test_close_returns_leftovers_and_refuses(self):
        batcher = WeightedClassBatcher(_policy())
        batcher.offer(_request("batch"))
        batcher.offer(_request("critical"))
        leftovers = batcher.close()
        assert len(leftovers) == 2
        assert batcher.closed
        assert not batcher.offer(_request("batch"))
        assert batcher.next_batch() is None


class _InstantScorer(Scorer):
    """Scores immediately; deterministic latency-free backend."""

    image_shape = FRAME_SHAPE
    dtype = np.dtype("float64")

    def score_batch(self, frames):
        n = len(frames)
        return BatchVerdicts(
            scores=np.zeros(n), is_novel=np.zeros(n, dtype=bool), margins=np.zeros(n)
        )


class _BlockingScorer(Scorer):
    image_shape = FRAME_SHAPE
    dtype = np.dtype("float64")

    def __init__(self):
        self.release = threading.Event()

    def score_batch(self, frames):
        self.release.wait(timeout=30.0)
        n = len(frames)
        return BatchVerdicts(
            scores=np.zeros(n), is_novel=np.zeros(n, dtype=bool), margins=np.zeros(n)
        )


def _frame() -> np.ndarray:
    return np.full(FRAME_SHAPE, 0.5)


class TestEngineIntegration:
    def test_rate_limited_submit_resolves_rejected(self):
        policy = _policy(
            client_rate_limits={"greedy": RateLimit(rate_per_s=0.5, burst=1)}
        )
        engine = ServingEngine(_InstantScorer(), EngineConfig(qos=policy))
        try:
            first = engine.infer(_frame(), client_id="greedy")
            assert isinstance(first, Scored)
            second = engine.infer(_frame(), client_id="greedy")
            assert isinstance(second, Rejected)
            assert second.status == "rejected"
            assert second.reason == REJECT_RATE_LIMITED
            assert second.client_id == "greedy"
            assert second.retry_after_ms > 0
            assert engine.stats()["rejected_admission"] == 1
        finally:
            engine.close()

    def test_unknown_class_raises_at_submit(self):
        engine = ServingEngine(_InstantScorer(), EngineConfig(qos=_policy()))
        try:
            with pytest.raises(ConfigurationError, match="unknown priority class"):
                engine.submit(_frame(), qos_class="bulk")
        finally:
            engine.close()

    def test_class_default_deadline_applies(self):
        policy = _policy(
            classes={
                "critical": ClassPolicy(sheddable=False),
                "interactive": ClassPolicy(default_deadline_ms=40.0),
            },
        )
        scorer = _BlockingScorer()
        engine = ServingEngine(scorer, EngineConfig(max_batch_size=1, qos=policy))
        try:
            # First request parks in the scorer; the second waits long
            # enough in queue to cross its class deadline.
            first = engine.submit(_frame())
            second = engine.submit(_frame())
            time.sleep(0.08)
            scorer.release.set()
            assert second.result(5.0).status == "deadline_exceeded"
            assert first.result(5.0).status == "ok"
        finally:
            engine.close()

    def test_accounting_balances_with_rejections(self):
        policy = _policy(
            client_rate_limits={"cam": RateLimit(rate_per_s=1, burst=2)}
        )
        engine = ServingEngine(_InstantScorer(), EngineConfig(qos=policy))
        try:
            outcomes = [engine.infer(_frame(), client_id="cam") for _ in range(6)]
            stats = engine.stats()
            statuses = [o.status for o in outcomes]
            assert statuses.count("ok") == 2
            assert statuses.count("rejected") == 4
            assert stats["submitted"] == 6
            assert stats["submitted"] == stats["scored"] + stats["rejected_admission"]
            assert stats["admission"]["rejected"]["rate_limited"] == 4
        finally:
            engine.close()

    def test_stats_expose_admission_block(self):
        engine = ServingEngine(_InstantScorer(), EngineConfig(qos=_policy()))
        try:
            engine.infer(_frame(), qos_class="critical")
            admission = engine.stats()["admission"]
            assert admission["admitted"] == 1
            assert "in_flight" in admission
            assert admission["queue_depths"] == {
                "critical": 0, "interactive": 0, "batch": 0,
            }
        finally:
            engine.close()

    def test_engine_without_policy_keeps_fifo_semantics(self):
        engine = ServingEngine(_InstantScorer(), EngineConfig())
        try:
            assert engine.admission is None
            outcome = engine.infer(_frame(), client_id="anyone", qos_class="critical")
            assert isinstance(outcome, Scored)
            assert "admission" not in engine.stats()
        finally:
            engine.close()
