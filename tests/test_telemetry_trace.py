"""Tests for trace contexts, ambient propagation, and trace-aware reports."""

import pytest

from repro.exceptions import ConfigurationError, SerializationError
from repro.telemetry import (
    MemorySink,
    TraceContext,
    Tracer,
    collect_traces,
    current_trace,
    disable_telemetry,
    render_summary,
    render_trace_tree,
    summarize_events,
    summarize_kernel_spans,
    telemetry_session,
    use_trace,
)


@pytest.fixture(autouse=True)
def _restore_null_backend():
    yield
    disable_telemetry()


class TestTraceContext:
    def test_new_root_has_no_parent_and_unique_ids(self):
        a, b = TraceContext.new_root(), TraceContext.new_root()
        assert a.parent_id is None
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id

    def test_child_shares_trace_and_parents_here(self):
        root = TraceContext.new_root()
        kid = root.child()
        assert kid.trace_id == root.trace_id
        assert kid.parent_id == root.span_id
        assert kid.span_id != root.span_id

    def test_dict_round_trip(self):
        ctx = TraceContext.new_root().child()
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    @pytest.mark.parametrize(
        "payload",
        [
            "not a dict",
            {"trace_id": "abc"},  # missing span_id
            {"trace_id": "", "span_id": "abc"},  # empty id
            {"trace_id": "abc", "span_id": 7},  # wrong type
            {"trace_id": "abc", "span_id": "def", "parent_id": 7},
        ],
    )
    def test_from_dict_rejects_malformed_payloads(self, payload):
        with pytest.raises(SerializationError):
            TraceContext.from_dict(payload)


class TestAmbientTrace:
    def test_use_trace_installs_and_restores(self):
        assert current_trace() is None
        ctx = TraceContext.new_root()
        with use_trace(ctx):
            assert current_trace() is ctx
        assert current_trace() is None

    def test_use_trace_none_masks_outer_context(self):
        outer = TraceContext.new_root()
        with use_trace(outer):
            with use_trace(None):
                assert current_trace() is None
            assert current_trace() is outer

    def test_ambient_is_thread_local(self):
        import threading

        seen = []
        with use_trace(TraceContext.new_root()):
            thread = threading.Thread(target=lambda: seen.append(current_trace()))
            thread.start()
            thread.join()
        assert seen == [None]


class TestSpanTraceLinkage:
    def test_span_outside_any_trace_is_unlinked(self):
        records = []
        tracer = Tracer(on_finish=records.append)
        with tracer.span("work"):
            pass
        (rec,) = records
        assert rec.trace_id is None and rec.span_id is None

    def test_trace_new_roots_a_fresh_trace(self):
        records = []
        tracer = Tracer(on_finish=records.append)
        with tracer.span("request", trace="new") as span:
            assert span.context is not None
            assert span.context.parent_id is None
        (rec,) = records
        assert rec.trace_id == span.context.trace_id
        assert rec.parent_span_id is None

    def test_explicit_trace_parents_a_child_span(self):
        records = []
        tracer = Tracer(on_finish=records.append)
        ctx = TraceContext.new_root()
        with tracer.span("work", trace=ctx):
            pass
        (rec,) = records
        assert rec.trace_id == ctx.trace_id
        assert rec.parent_span_id == ctx.span_id
        assert rec.span_id != ctx.span_id

    def test_nested_spans_inherit_ambiently_and_chain(self):
        records = []
        tracer = Tracer(on_finish=records.append)
        with tracer.span("outer", trace="new"):
            with tracer.span("inner"):
                pass
        inner, outer = records
        assert inner.trace_id == outer.trace_id
        assert inner.parent_span_id == outer.span_id

    def test_span_exit_restores_ambient_context(self):
        tracer = Tracer()
        ctx = TraceContext.new_root()
        with use_trace(ctx):
            with tracer.span("work"):
                assert current_trace() is not ctx  # the span's own child ctx
            assert current_trace() is ctx

    def test_add_span_uses_context_ids_directly(self):
        tracer = Tracer()
        ctx = TraceContext.new_root().child()
        rec = tracer.add_span("queue.wait", 0.25, context=ctx, outcome="ok")
        assert rec.trace_id == ctx.trace_id
        assert rec.span_id == ctx.span_id
        assert rec.parent_span_id == ctx.parent_id
        assert rec.duration == 0.25
        assert rec.attributes == {"outcome": "ok"}

    def test_add_span_without_context_is_unlinked(self):
        rec = Tracer().add_span("queue.wait", 0.1)
        assert rec.trace_id is None and rec.span_id is None


class TestTelemetryTraceIntegration:
    def test_linked_span_records_carry_ids_to_sinks(self):
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            with telem.span("request", trace="new"):
                with telem.span("inner"):
                    pass
            with telem.span("untraced"):
                pass
        spans = [r for r in sink.records if r["type"] == "span"]
        inner, request, untraced = spans
        assert request["trace_id"] == inner["trace_id"]
        assert inner["parent_span_id"] == request["span_id"]
        assert "trace_id" not in untraced

    def test_replay_span_reemits_and_feeds_histograms(self):
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            telem.replay_span(
                {
                    "name": "worker.score_batch",
                    "duration": 0.02,
                    "trace_id": "t1",
                    "span_id": "s1",
                    "parent_span_id": "p1",
                }
            )
            assert telem.histogram("span.worker.score_batch").count == 1
        (span,) = [r for r in sink.records if r["type"] == "span"]
        assert span["trace_id"] == "t1" and span["parent_span_id"] == "p1"


def _span(name, trace_id, span_id, parent=None, duration=0.001, t=0.0, **attrs):
    return {
        "type": "span",
        "name": name,
        "duration": duration,
        "t": t,
        "trace_id": trace_id,
        "span_id": span_id,
        "parent_span_id": parent,
        "attrs": attrs,
    }


class TestTraceReports:
    def _records(self):
        return [
            _span("serving.request", "t1", "root", duration=0.006, t=0.0,
                  outcome="scored", batch_size=2),
            _span("serving.queue", "t1", "q", parent="root", duration=0.002, t=0.001),
            _span("serving.batch", "t1", "b", parent="root", duration=0.004,
                  t=0.002, frames=2),
            _span("kernel.conv2d_forward", "t1", "k1", parent="b",
                  duration=0.001, t=0.003, flops=1000.0, bytes=64.0,
                  shape="(2, 1, 24, 64) f8"),
            _span("kernel.conv2d_forward", "t1", "k2", parent="b",
                  duration=0.002, t=0.004, flops=3000.0, bytes=128.0,
                  shape="(2, 24, 10, 30) f8"),
            _span("serving.request", "t2", "root2", duration=0.003, t=0.005),
            {"type": "event", "name": "alarm"},
        ]

    def test_collect_traces_groups_by_trace_id(self):
        traces = collect_traces(self._records())
        assert list(traces) == ["t1", "t2"]
        assert len(traces["t1"]) == 5 and len(traces["t2"]) == 1

    def test_summary_counts_traces_and_attr_keys(self):
        summary = summarize_events(self._records())
        assert summary["traces"] == {"t1": 5, "t2": 1}
        request = summary["spans"]["serving.request"]
        assert request["attr_keys"] == ["batch_size", "outcome"]

    def test_rendered_summary_quotes_traces_and_attrs(self):
        text = render_summary(summarize_events(self._records()))
        assert "traces: 2" in text
        assert "repro trace <id>" in text
        assert "batch_size,outcome" in text

    def test_trace_tree_snapshot(self):
        tree = render_trace_tree(self._records(), "t1")
        assert tree.splitlines() == [
            "trace t1 — 5 spans, 6.000 ms at roots",
            "`- serving.request  6.000 ms  [root] {batch_size=2 outcome=scored}",
            "   |- serving.queue  2.000 ms  [q]",
            "   `- serving.batch  4.000 ms  [b] {frames=2}",
            "      |- kernel.conv2d_forward  1.000 ms  [k1]"
            " {bytes=64 flops=1000 shape=(2, 1, 24, 64) f8}",
            "      `- kernel.conv2d_forward  2.000 ms  [k2]"
            " {bytes=128 flops=3000 shape=(2, 24, 10, 30) f8}",
        ]

    def test_orphan_spans_promote_to_top_level(self):
        records = [_span("stray", "t1", "s", parent="never-recorded")]
        tree = render_trace_tree(records, "t1")
        assert "`- stray" in tree

    def test_unknown_trace_id_lists_known_ids(self):
        with pytest.raises(ConfigurationError, match="t1"):
            render_trace_tree(self._records(), "missing")

    def test_kernel_span_aggregation(self):
        (row,) = summarize_kernel_spans(self._records())
        assert row["name"] == "conv2d_forward"
        assert row["calls"] == 2
        assert row["seconds"] == pytest.approx(0.003)
        assert row["flops"] == pytest.approx(4000.0)
        assert row["shapes"] == {
            "(2, 1, 24, 64) f8": 1,
            "(2, 24, 10, 30) f8": 1,
        }
