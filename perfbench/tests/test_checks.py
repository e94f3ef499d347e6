"""The correctness gate, the outcome accounting and the tail rule."""

import pytest

from checks import (
    MIN_BEYOND,
    TOLERANCE,
    Reference,
    account,
    gate,
    outcome_counts,
    quantile,
    tail_percentile,
)
from load import Record

REFS = [Reference(0.20, False, -0.05), Reference(0.40, True, 0.15)]


def _ok(frame, score, is_novel):
    record = Record(0, frame, 0.0, 0.0, 0.01, "ok")
    record.score, record.is_novel = score, is_novel
    return record


def test_gate_passes_matching_replies():
    records = [_ok(0, 0.20, False), _ok(1, 0.40 + 1e-12, True)]
    assert gate(records, REFS, TOLERANCE["float64"]) == []


def test_gate_catches_a_perturbed_score():
    records = [_ok(0, 0.20, False), _ok(1, 0.40 + 1e-6, True)]
    problems = gate(records, REFS, TOLERANCE["float64"])
    assert len(problems) == 1 and "frame 1" in problems[0]


def test_gate_catches_a_flipped_verdict_outside_the_tolerance():
    assert gate([_ok(1, 0.40, False)], REFS, TOLERANCE["float32"])
    # Inside the tolerance either verdict is accepted.
    close = [Reference(0.30, True, 1e-6)]
    assert gate([_ok(0, 0.30, False)], close, TOLERANCE["float32"]) == []


def test_gate_ignores_non_ok_replies():
    assert gate([Record(0, 0, 0.0, 0.0, 0.0, "rejected")], REFS, 1e-9) == []


def _phase(n_ok, extra=()):
    return [_ok(0, 0.2, False) for _ in range(n_ok)] + [
        Record(0, 0, 0.0, 0.0, 0.0, status) for status in extra
    ]


def test_accounting_matches_the_server_counters():
    records = _phase(5, ["rejected"])
    before = {"submitted": 10, "scored": 9}
    after = {"submitted": 16, "scored": 14}
    assert account(records, before, after) == []


def test_accounting_catches_a_dropped_reply():
    # The server scored six requests but the load process saw five replies.
    records = _phase(5)
    problems = account(records, {"submitted": 0, "scored": 0},
                       {"submitted": 6, "scored": 6})
    assert len(problems) == 2


def test_unsent_and_transport_failures_are_not_expected_on_the_server():
    records = _phase(3, ["unsent", "transport: reset"])
    assert account(records, {"submitted": 0, "scored": 0},
                   {"submitted": 3, "scored": 3}) == []
    assert outcome_counts(records) == (5, 2)


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1000))
    value, beyond = tail_percentile(values, 99.0)
    assert beyond == MIN_BEYOND and value == pytest.approx(quantile(values, 0.99))
    value, beyond = tail_percentile(values[:999], 99.0)
    assert value is None and beyond == 9
    assert tail_percentile(list(range(100)), 90.0)[0] is not None
    assert tail_percentile(list(range(99)), 90.0)[0] is None


def test_quantile_matches_linear_interpolation():
    assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
    assert quantile([3.0, 1.0, 2.0], 1.0) == 3.0
    assert quantile([5.0], 0.9) == 5.0
