"""Tests for QoS policy primitives: policy parsing, buckets, AIMD, estimator."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, StateRestoreError
from repro.serving import (
    AdmissionController,
    AimdConfig,
    AimdLimiter,
    ClassPolicy,
    QosPolicy,
    RateLimit,
    ServiceTimeEstimator,
    TokenBucket,
    WeightedClassBatcher,
    load_qos_policy,
    parse_priority_mix,
)


class FakeClock:
    """Deterministic monotonic clock the bucket/limiter tests drive by hand."""

    def __init__(self, t: float = 100.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestPolicyValidation:
    def test_rate_limit_rejects_nonpositive_rate(self):
        with pytest.raises(ConfigurationError, match="rate_per_s"):
            RateLimit(rate_per_s=0.0)

    def test_rate_limit_rejects_fractional_burst(self):
        with pytest.raises(ConfigurationError, match="burst"):
            RateLimit(rate_per_s=1.0, burst=0.5)

    def test_class_policy_rejects_bad_weight(self):
        with pytest.raises(ConfigurationError, match="weight"):
            ClassPolicy(weight=-1.0)

    def test_class_policy_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError, match="queue_capacity"):
            ClassPolicy(queue_capacity=0)

    def test_aimd_rejects_initial_outside_bounds(self):
        with pytest.raises(ConfigurationError, match="initial"):
            AimdConfig(initial=1, min_limit=2)

    def test_aimd_rejects_decrease_of_one(self):
        with pytest.raises(ConfigurationError, match="decrease"):
            AimdConfig(decrease=1.0)

    def test_policy_rejects_unknown_class(self):
        with pytest.raises(ConfigurationError, match="unknown priority class"):
            QosPolicy(classes={"express": ClassPolicy()})

    def test_policy_rejects_default_class_not_configured(self):
        with pytest.raises(ConfigurationError, match="default_class"):
            QosPolicy(classes={"batch": ClassPolicy()}, default_class="critical")

    def test_default_policy_has_three_classes(self):
        policy = QosPolicy.default()
        assert set(policy.classes) == {"critical", "interactive", "batch"}
        assert not policy.classes["critical"].sheddable
        assert policy.classes["critical"].weight > policy.classes["batch"].weight


class TestPolicySerialization:
    def test_round_trip_through_dict(self):
        policy = QosPolicy(
            classes={
                "critical": ClassPolicy(weight=10, sheddable=False),
                "batch": ClassPolicy(weight=1, queue_capacity=8, default_deadline_ms=250),
            },
            default_class="batch",
            rate_limit=RateLimit(rate_per_s=100, burst=10),
            client_rate_limits={"cam-3": RateLimit(rate_per_s=5, burst=2)},
            shed_safety_factor=1.5,
            estimator_window=32,
        )
        restored = QosPolicy.from_dict(policy.to_dict())
        assert restored == policy

    def test_from_dict_rejects_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="rate_limits"):
            QosPolicy.from_dict({"rate_limits": {}})

    def test_from_dict_rejects_unknown_class_key(self):
        with pytest.raises(ConfigurationError, match="wieght"):
            QosPolicy.from_dict({"classes": {"batch": {"wieght": 2}}})

    def test_from_dict_rejects_unknown_aimd_key(self):
        with pytest.raises(ConfigurationError, match="cool_down"):
            QosPolicy.from_dict({"aimd": {"cool_down": 1}})

    def test_from_dict_requires_rate_per_s(self):
        with pytest.raises(ConfigurationError, match="rate_per_s"):
            QosPolicy.from_dict({"rate_limit": {"burst": 4}})

    def test_from_dict_null_aimd_disables_limiter(self):
        policy = QosPolicy.from_dict({"aimd": None})
        assert policy.aimd is None

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            QosPolicy.from_dict(["critical"])


class TestLoadQosPolicy:
    def test_loads_valid_file(self, tmp_path):
        path = tmp_path / "qos.json"
        path.write_text(json.dumps({"classes": {"critical": {"weight": 8}},
                                    "default_class": "critical"}))
        policy = load_qos_policy(path)
        assert policy.classes["critical"].weight == 8

    def test_missing_file_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_qos_policy(tmp_path / "absent.json")

    def test_malformed_json_is_configuration_error(self, tmp_path):
        path = tmp_path / "qos.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_qos_policy(path)


class TestTokenBucket:
    def test_burst_then_rate_limited(self):
        clock = FakeClock()
        bucket = TokenBucket(RateLimit(rate_per_s=10, burst=3), clock=clock)
        assert [bucket.try_take() for _ in range(4)] == [True, True, True, False]

    def test_refills_at_configured_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(RateLimit(rate_per_s=10, burst=1), clock=clock)
        assert bucket.try_take()
        assert not bucket.try_take()
        clock.advance(0.05)  # half a token at 10/s: still limited
        assert not bucket.try_take()
        clock.advance(0.15)  # past one full token
        assert bucket.try_take()

    def test_tokens_capped_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(RateLimit(rate_per_s=100, burst=5), clock=clock)
        clock.advance(60.0)
        assert bucket.tokens == pytest.approx(5.0)

    def test_retry_after_reflects_deficit(self):
        clock = FakeClock()
        bucket = TokenBucket(RateLimit(rate_per_s=4, burst=1), clock=clock)
        bucket.try_take()
        assert bucket.retry_after_s() == pytest.approx(0.25)

    def test_state_round_trip(self):
        clock = FakeClock()
        bucket = TokenBucket(RateLimit(rate_per_s=10, burst=4), clock=clock)
        bucket.try_take()
        bucket.try_take()
        restored = TokenBucket(RateLimit(rate_per_s=10, burst=4), clock=clock)
        restored.load_state_dict(bucket.state_dict())
        assert restored.tokens == pytest.approx(2.0)

    def test_restore_clamps_into_burst(self):
        bucket = TokenBucket(RateLimit(rate_per_s=10, burst=2), clock=FakeClock())
        bucket.load_state_dict({"tokens": 99.0})
        assert bucket.tokens == pytest.approx(2.0)

    def test_restore_rejects_malformed_state(self):
        bucket = TokenBucket(RateLimit(rate_per_s=10), clock=FakeClock())
        with pytest.raises(StateRestoreError):
            bucket.load_state_dict({"tokens": "plenty"})
        with pytest.raises(StateRestoreError):
            bucket.load_state_dict({})


class TestAimdLimiter:
    def test_additive_increase_per_success(self):
        limiter = AimdLimiter(AimdConfig(initial=8, increase=2.0), clock=FakeClock())
        limiter.on_success()
        limiter.on_success()
        assert limiter.limit == 12

    def test_multiplicative_decrease(self):
        limiter = AimdLimiter(AimdConfig(initial=32, decrease=0.5), clock=FakeClock())
        limiter.on_overload()
        assert limiter.limit == 16
        assert limiter.decreases == 1

    def test_cooldown_coalesces_overload_bursts(self):
        clock = FakeClock()
        limiter = AimdLimiter(
            AimdConfig(initial=32, decrease=0.5, cooldown_s=0.25), clock=clock
        )
        for _ in range(5):  # one stall produces many signals at the same instant
            limiter.on_overload()
        assert limiter.limit == 16
        clock.advance(0.3)
        limiter.on_overload()
        assert limiter.limit == 8

    def test_limit_clamped_to_bounds(self):
        clock = FakeClock()
        limiter = AimdLimiter(
            AimdConfig(initial=4, min_limit=2, max_limit=5, cooldown_s=0.0), clock=clock
        )
        for _ in range(10):
            limiter.on_success()
        assert limiter.limit == 5
        for _ in range(10):
            limiter.on_overload()
            clock.advance(1.0)
        assert limiter.limit == 2

    def test_state_round_trip_clamps(self):
        limiter = AimdLimiter(AimdConfig(initial=8, min_limit=4), clock=FakeClock())
        limiter.load_state_dict({"limit": 1.0, "decreases": 3})
        assert limiter.limit == 4
        assert limiter.decreases == 3
        with pytest.raises(StateRestoreError):
            limiter.load_state_dict({"limit": None})


class TestServiceTimeEstimator:
    def test_per_frame_mean_over_window(self):
        est = ServiceTimeEstimator(window=4)
        est.observe(0.2, 10)
        est.observe(0.1, 10)
        assert est.per_frame_s() == pytest.approx(0.015)

    def test_empty_window_estimates_zero(self):
        est = ServiceTimeEstimator()
        assert est.per_frame_s() == 0.0
        assert est.estimated_delay_s(100) == 0.0

    def test_window_evicts_oldest(self):
        est = ServiceTimeEstimator(window=2)
        est.observe(1.0, 1)
        est.observe(0.1, 1)
        est.observe(0.1, 1)
        assert est.samples == 2
        assert est.per_frame_s() == pytest.approx(0.1)

    def test_delay_scales_with_queue_and_replicas(self):
        est = ServiceTimeEstimator()
        est.observe(0.01, 1)
        assert est.estimated_delay_s(50) == pytest.approx(0.5)
        assert est.estimated_delay_s(50, replicas=4) == pytest.approx(0.125)

    def test_ignores_degenerate_samples(self):
        est = ServiceTimeEstimator()
        est.observe(0.1, 0)
        est.observe(-1.0, 4)
        assert est.samples == 0


class TestParsePriorityMix:
    def test_parses_weighted_spec(self):
        assert parse_priority_mix("critical=10,batch=90") == {
            "critical": 10.0,
            "batch": 90.0,
        }

    def test_rejects_unknown_class(self):
        with pytest.raises(ConfigurationError, match="bulk"):
            parse_priority_mix("bulk=50")

    def test_rejects_duplicate_class(self):
        with pytest.raises(ConfigurationError, match="listed twice"):
            parse_priority_mix("batch=10,batch=20")

    def test_rejects_nonpositive_share(self):
        with pytest.raises(ConfigurationError):
            parse_priority_mix("batch=0")

    def test_rejects_malformed_entry(self):
        with pytest.raises(ConfigurationError):
            parse_priority_mix("critical:10")

    def test_rejects_empty_spec(self):
        with pytest.raises(ConfigurationError):
            parse_priority_mix("")


#: Any JSON value, including the NaN / Infinity floats Python's parser
#: accepts and integers too large for a float.
_NUMBER = st.floats() | st.integers() | st.integers(min_value=10**308, max_value=10**400)
JSON = st.recursive(
    st.none() | st.booleans() | st.text(max_size=6) | _NUMBER,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=12,
)


def _shaped(*keys, value=_NUMBER | JSON):
    """An object with some of ``keys`` (so parsing gets past its
    unknown-key check), or any JSON value at all."""
    return st.fixed_dictionaries({}, optional={k: value for k in keys}) | JSON


_RATE = _shaped("rate_per_s", "burst")
POLICY_JSON = _shaped(
    "classes", "default_class", "rate_limit", "client_rate_limits",
    "shed_deadlines", "shed_safety_factor", "aimd", "estimator_window",
) | st.fixed_dictionaries({}, optional={
    "classes": _shaped(
        "critical", "interactive", "batch",
        value=_shaped("weight", "queue_capacity", "default_deadline_ms", "sheddable"),
    ),
    "default_class": st.sampled_from(["critical", "interactive", "batch"]),
    "rate_limit": _RATE,
    "client_rate_limits": st.dictionaries(st.text(max_size=3), _RATE, max_size=2),
    "shed_safety_factor": _NUMBER,
    "aimd": _shaped("initial", "min_limit", "max_limit", "increase", "decrease", "cooldown_s"),
    "estimator_window": _NUMBER,
})
ADMISSION_STATE_JSON = _shaped(
    "buckets", "aimd",
    value=st.dictionaries(st.text(max_size=3), _shaped("tokens"), max_size=2)
    | _shaped("limit", "decreases"),
)


class TestMalformedInput:
    """Whatever JSON arrives, parsing and restoring refuse it with one
    typed error, never a stray ``ValueError`` or ``OverflowError``."""

    @given(POLICY_JSON)
    @settings(max_examples=400, deadline=None)
    def test_policy_parsing_raises_only_configuration_error(self, payload):
        try:
            policy = QosPolicy.from_dict(payload)
        except ConfigurationError:
            return
        # What parses also builds: the engine constructs these from it.
        AdmissionController(policy)
        WeightedClassBatcher(policy)

    @given(ADMISSION_STATE_JSON)
    @settings(max_examples=400, deadline=None)
    def test_admission_restore_raises_only_state_restore_error(self, state):
        controller = AdmissionController(
            QosPolicy(rate_limit=RateLimit(rate_per_s=10.0, burst=4.0))
        )
        try:
            controller.load_state_dict(state)
        except StateRestoreError:
            pass

    @pytest.mark.parametrize("text", [
        '{"estimator_window": NaN}',
        '{"estimator_window": Infinity}',
        '{"rate_limit": {"rate_per_s": Infinity}}',
        '{"aimd": {"initial": 1' + "0" * 400 + "}}",
    ])
    def test_non_finite_numbers_are_configuration_errors(self, tmp_path, text):
        path = tmp_path / "policy.json"
        path.write_text(text)
        with pytest.raises(ConfigurationError, match="finite"):
            load_qos_policy(path)

    def test_estimator_window_beyond_a_deque_bound_refused(self):
        """Parsed, a window of 1e300 used to crash the engine build with an
        ``OverflowError`` (a ``deque`` cannot be that long)."""
        with pytest.raises(ConfigurationError, match="estimator_window"):
            QosPolicy.from_dict({"estimator_window": 1e300})

    @pytest.mark.parametrize("decreases", [float("nan"), float("inf"), 1.5, "3", None, -1])
    def test_malformed_aimd_decreases_refused(self, decreases):
        limiter = AimdLimiter(AimdConfig())
        with pytest.raises(StateRestoreError, match="decreases"):
            limiter.load_state_dict({"limit": 8.0, "decreases": decreases})
