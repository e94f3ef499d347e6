"""Tests for the telemetry metrics registry and the null backend."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.telemetry import (
    MetricsRegistry,
    NullTelemetry,
    disable_telemetry,
    enable_telemetry,
    get_telemetry,
    render_snapshot,
    telemetry_session,
)
from repro.telemetry.metrics import QUANTILE_WINDOW


@pytest.fixture(autouse=True)
def _restore_null_backend():
    """Every test leaves the process-wide backend as it found it: null."""
    yield
    disable_telemetry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = MetricsRegistry().counter("frames.seen")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_decrease(self):
        c = MetricsRegistry().counter("frames.seen")
        with pytest.raises(ConfigurationError):
            c.inc(-1.0)


class TestGauge:
    def test_unset_is_none(self):
        g = MetricsRegistry().gauge("margin")
        assert g.value is None
        assert g.updates == 0

    def test_last_write_wins(self):
        g = MetricsRegistry().gauge("margin")
        g.set(1.0)
        g.set(-2.0)
        assert g.value == -2.0
        assert g.updates == 2


class TestHistogram:
    def test_percentiles_match_numpy(self, rng):
        h = MetricsRegistry().histogram("score")
        values = rng.exponential(size=200)
        for v in values:
            h.observe(v)
        assert h.quantile(50.0) == pytest.approx(np.percentile(values, 50))
        assert h.quantile(95.0) == pytest.approx(np.percentile(values, 95))
        assert h.quantile(99.0) == pytest.approx(np.percentile(values, 99))

    def test_summary_fields(self):
        h = MetricsRegistry().histogram("score")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        s = h.summary()
        assert s["count"] == 3
        assert s["mean"] == pytest.approx(2.0)
        assert s["min"] == 1.0
        assert s["max"] == 3.0
        assert s["p50"] == pytest.approx(2.0)

    def test_lifetime_totals_and_recent_percentiles(self):
        h = MetricsRegistry().histogram("lat")
        values = [float(v) for v in range(3 * QUANTILE_WINDOW)]
        for v in values:
            h.observe(v)
        s = h.summary()
        # count/mean/min/max and the buckets cover every observation...
        assert s["count"] == sum(h.bucket_counts) == len(values)
        assert s["mean"] == pytest.approx(np.mean(values))
        assert (s["min"], s["max"]) == (values[0], values[-1])
        # ...percentiles only the most recent window.
        recent = values[-QUANTILE_WINDOW:]
        assert s["p50"] == pytest.approx(np.percentile(recent, 50))
        assert s["p99"] == pytest.approx(np.percentile(recent, 99))

    def test_empty_summary_is_just_count(self):
        assert MetricsRegistry().histogram("score").summary() == {"count": 0}

    def test_fixed_buckets_count_observations(self):
        h = MetricsRegistry().histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 50.0):
            h.observe(v)
        assert h.bucket_counts == [2, 1, 1]  # <=1, <=10, overflow

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().histogram("lat", buckets=(10.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b") is reg.counter("a.b")
        assert reg.gauge("c.d") is reg.gauge("c.d")
        assert reg.histogram("e.f") is reg.histogram("e.f")

    def test_name_collision_across_kinds_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x.y")
        with pytest.raises(ConfigurationError):
            reg.gauge("x.y")
        with pytest.raises(ConfigurationError):
            reg.histogram("x.y")

    def test_invalid_name_rejected(self):
        with pytest.raises(ConfigurationError):
            MetricsRegistry().counter("Bad Name!")

    def test_snapshot_is_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc(2)
        reg.gauge("level").set(0.5)
        reg.histogram("lat").observe(1.0)
        snap = reg.snapshot()
        assert snap["counters"] == {"hits": 2.0}
        assert snap["gauges"] == {"level": 0.5}
        assert snap["histograms"]["lat"]["count"] == 1

    def test_render_mentions_every_instrument(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.gauge("level").set(1.0)
        reg.histogram("lat").observe(0.25)
        text = reg.render()
        assert "hits" in text and "level" in text and "lat" in text
        assert "p95" in text

    def test_render_empty_snapshot(self):
        assert render_snapshot({}) == "(no metrics recorded)"


class TestNullBackend:
    def test_default_backend_is_null_and_disabled(self):
        telem = get_telemetry()
        assert isinstance(telem, NullTelemetry)
        assert telem.enabled is False

    def test_null_instruments_are_shared_no_ops(self):
        telem = get_telemetry()
        assert telem.counter("a.b") is telem.counter("c.d")
        telem.counter("a.b").inc()
        telem.gauge("g").set(1.0)
        telem.histogram("h").observe(2.0)
        telem.event("anything", k=1)  # all silently dropped

    def test_null_span_is_reusable_and_nests(self):
        telem = get_telemetry()
        span = telem.span("outer")
        with span:
            with telem.span("inner", attr=1):
                pass
        with span:  # same object usable again
            pass

    def test_null_span_propagates_exceptions(self):
        with pytest.raises(RuntimeError):
            with get_telemetry().span("failing"):
                raise RuntimeError("boom")


class TestBackendSwitching:
    def test_enable_then_disable_restores_null(self):
        telem = enable_telemetry()
        assert telem.enabled and get_telemetry() is telem
        disable_telemetry()
        assert get_telemetry().enabled is False

    def test_session_scopes_the_backend(self):
        with telemetry_session() as telem:
            assert get_telemetry() is telem
            telem.counter("n").inc()
            assert telem.snapshot()["counters"]["n"] == 1.0
        assert get_telemetry().enabled is False

    def test_session_restores_null_on_error(self):
        with pytest.raises(ValueError):
            with telemetry_session():
                raise ValueError("boom")
        assert get_telemetry().enabled is False

    def test_enable_replaces_existing_session(self):
        first = enable_telemetry()
        second = enable_telemetry()
        assert get_telemetry() is second
        assert first is not second
