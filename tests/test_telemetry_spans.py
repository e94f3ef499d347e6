"""Tests for span tracing, sinks, JSONL round-trips, and reports."""

import threading

import pytest

from repro.exceptions import SerializationError
from repro.telemetry import (
    MemorySink,
    Tracer,
    disable_telemetry,
    get_telemetry,
    read_events,
    render_jsonl_report,
    render_summary,
    summarize_events,
    telemetry_session,
)


@pytest.fixture(autouse=True)
def _restore_null_backend():
    yield
    disable_telemetry()


class TestTracer:
    def test_records_name_and_duration(self):
        records = []
        tracer = Tracer(on_finish=records.append)
        with tracer.span("work"):
            pass
        (rec,) = records
        assert rec.name == "work"
        assert rec.duration >= 0.0
        assert rec.parent is None
        assert rec.depth == 0

    def test_nesting_tracks_parent_and_depth(self):
        records = []
        tracer = Tracer(on_finish=records.append)
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        by_name = {r.name: r for r in records}
        assert by_name["inner"].parent == "middle" and by_name["inner"].depth == 2
        assert by_name["middle"].parent == "outer" and by_name["middle"].depth == 1
        assert by_name["outer"].parent is None and by_name["outer"].depth == 0
        assert tracer.depth == 0

    def test_children_finish_before_parents(self):
        records = []
        tracer = Tracer(on_finish=records.append)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [r.name for r in records] == ["inner", "outer"]
        outer = records[1]
        inner = records[0]
        assert outer.duration >= inner.duration

    def test_attributes_attach_at_entry_and_inside(self):
        records = []
        tracer = Tracer(on_finish=records.append)
        with tracer.span("work", frames=4) as span:
            span.attributes["extra"] = "yes"
        (rec,) = records
        assert rec.attributes == {"frames": 4, "extra": "yes"}

    def test_exception_marks_error_and_propagates(self):
        records = []
        tracer = Tracer(on_finish=records.append)
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (rec,) = records
        assert rec.attributes["error"] is True
        assert tracer.depth == 0

    def test_sequential_spans_share_no_parent(self):
        records = []
        tracer = Tracer(on_finish=records.append)
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        assert [r.parent for r in records] == [None, None]

    def test_threads_nest_only_under_their_own_spans(self):
        """Thread A opens a span, thread B opens one, then A opens a child:
        each thread's spans nest under that thread's own spans only."""
        records = []
        tracer = Tracer(on_finish=records.append)
        a_opened, b_opened, a_inner_done = (threading.Event() for _ in range(3))
        depths = {}

        def thread_a():
            with tracer.span("a.outer"):
                a_opened.set()
                assert b_opened.wait(10.0)
                with tracer.span("a.inner"):
                    depths["a"] = tracer.depth
                a_inner_done.set()

        def thread_b():
            assert a_opened.wait(10.0)
            with tracer.span("b.outer"):
                depths["b"] = tracer.depth
                b_opened.set()
                assert a_inner_done.wait(10.0)

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert not any(thread.is_alive() for thread in threads)
        by_name = {r.name: r for r in records}
        assert set(by_name) == {"a.outer", "a.inner", "b.outer"}
        assert (by_name["a.inner"].parent, by_name["a.inner"].depth) == ("a.outer", 1)
        assert (by_name["b.outer"].parent, by_name["b.outer"].depth) == (None, 0)
        assert (by_name["a.outer"].parent, by_name["a.outer"].depth) == (None, 0)
        assert depths == {"a": 2, "b": 1}
        assert tracer.depth == 0


class TestTelemetrySpans:
    def test_spans_feed_duration_histograms(self):
        with telemetry_session() as telem:
            for _ in range(3):
                with telem.span("step"):
                    pass
            hist = telem.histogram("span.step")
            assert hist.count == 3
            assert hist.min >= 0.0

    def test_memory_sink_sees_span_and_event_records(self):
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            with telem.span("outer", n=2):
                with telem.span("inner"):
                    pass
            telem.event("milestone", status="ok")
        kinds = [r["type"] for r in sink.records]
        # inner finishes first, then outer, then the event, then the
        # close-time snapshot.
        assert kinds == ["span", "span", "event", "snapshot"]
        inner, outer = sink.records[0], sink.records[1]
        assert inner["name"] == "inner" and inner["parent"] == "outer"
        assert outer["attrs"] == {"n": 2}
        assert sink.records[2]["fields"] == {"status": "ok"}
        assert sink.closed


class TestJsonlSinkFlushing:
    def test_default_flushes_every_record(self, tmp_path):
        from repro.telemetry import JsonlSink

        path = tmp_path / "live.jsonl"
        sink = JsonlSink(path)
        try:
            sink.emit({"type": "event", "name": "first"})
            # Flushed immediately: a live tail of the file sees the record
            # before the sink closes.
            assert len(read_events(path)) == 1
        finally:
            sink.close()

    def test_flush_cadence_buffers_until_the_threshold(self, tmp_path):
        from repro.telemetry import JsonlSink

        path = tmp_path / "buffered.jsonl"
        sink = JsonlSink(path, flush_every=3)
        try:
            sink.emit({"type": "event", "name": "a"})
            sink.emit({"type": "event", "name": "b"})
            assert read_events(path) == []  # still buffered
            sink.emit({"type": "event", "name": "c"})
            assert len(read_events(path)) == 3  # cadence reached
        finally:
            sink.close()

    def test_close_flushes_the_remainder(self, tmp_path):
        from repro.telemetry import JsonlSink

        path = tmp_path / "tail.jsonl"
        sink = JsonlSink(path, flush_every=100)
        sink.emit({"type": "event", "name": "only"})
        sink.close()
        assert len(read_events(path)) == 1

    def test_close_before_any_emit_is_a_noop(self, tmp_path):
        from repro.telemetry import JsonlSink

        JsonlSink(tmp_path / "never.jsonl").close()
        assert not (tmp_path / "never.jsonl").exists()

    def test_rejects_nonpositive_cadence(self, tmp_path):
        from repro.telemetry import JsonlSink

        with pytest.raises(ValueError):
            JsonlSink(tmp_path / "bad.jsonl", flush_every=0)


class TestJsonlRoundTrip:
    def test_trace_round_trips_through_disk(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry_session(path) as telem:
            with telem.span("work", frames=2):
                pass
            telem.counter("frames").inc(2)
            telem.histogram("score").observe(0.5)
            telem.event("done")
        records = read_events(path)
        types = [r["type"] for r in records]
        assert types == ["span", "event", "snapshot"]
        span = records[0]
        assert span["name"] == "work" and span["attrs"] == {"frames": 2}
        snapshot = records[-1]["metrics"]
        assert snapshot["counters"]["frames"] == 2.0
        assert snapshot["histograms"]["score"]["count"] == 1

    def test_missing_trace_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            read_events(tmp_path / "absent.jsonl")

    def test_corrupt_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"type": "event"}\nnot json\n')
        with pytest.raises(SerializationError, match="bad.jsonl:2"):
            read_events(path)

    def test_tolerant_read_skips_and_counts_damage(self, tmp_path):
        """A trace cut short by ``kill -9`` (truncated tail, a corrupt
        line mid-file) still yields its valid records plus a skip count."""
        from repro.telemetry import read_events_tolerant

        path = tmp_path / "crashed.jsonl"
        path.write_text(
            '{"type": "event", "name": "a"}\n'
            "garbage not json\n"
            '{"type": "event", "name": "b"}\n'
            '{"type": "eve'  # torn mid-write, no newline
        )
        records, skipped = read_events_tolerant(path)
        assert [r["name"] for r in records] == ["a", "b"]
        assert skipped == 2

    def test_tolerant_read_of_clean_file_skips_nothing(self, tmp_path):
        from repro.telemetry import read_events_tolerant

        path = tmp_path / "clean.jsonl"
        path.write_text('{"type": "event", "name": "a"}\n')
        records, skipped = read_events_tolerant(path)
        assert len(records) == 1 and skipped == 0


class TestReports:
    def _trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with telemetry_session(path) as telem:
            for i in range(10):
                with telem.span("frame", index=i):
                    pass
                telem.histogram("monitor.score").observe(i / 10.0)
            telem.event("alarm", frame=7)
        return path

    def test_summary_aggregates_spans(self, tmp_path):
        summary = summarize_events(read_events(self._trace(tmp_path)))
        frame = summary["spans"]["frame"]
        assert frame["count"] == 10
        assert frame["p50"] <= frame["p95"] <= frame["p99"] <= frame["max"]
        assert summary["events"] == {"alarm": 1}
        score = summary["metrics"]["histograms"]["monitor.score"]
        assert score["count"] == 10
        assert score["p50"] == pytest.approx(0.45)

    def test_rendered_report_quotes_percentiles(self, tmp_path):
        text = render_jsonl_report(self._trace(tmp_path))
        assert "frame" in text
        assert "p50" in text and "p95" in text and "p99" in text
        assert "monitor.score" in text

    def test_report_of_crash_truncated_trace_warns_but_renders(self, tmp_path):
        path = self._trace(tmp_path)
        with open(path, "a") as handle:
            handle.write('{"type": "eve')  # torn by a crash mid-flush
        text = render_jsonl_report(path)
        assert "frame" in text  # the valid records still report
        assert "skipped 1 corrupt/truncated line" in text

    def test_summary_of_empty_trace(self):
        summary = summarize_events([])
        assert summary["spans"] == {} and summary["n_records"] == 0
        assert "0 records" in render_summary(summary)


class TestInstrumentedTrainer:
    def test_per_epoch_events_recorded(self):
        import numpy as np

        from repro.nn import Adam, ArrayDataset, DataLoader, Dense, MSELoss, Sequential, Trainer

        model = Sequential([Dense(3, 1, rng=0)])
        trainer = Trainer(model, MSELoss(), Adam(model.parameters()))
        x = np.random.default_rng(0).normal(size=(16, 3))
        train = DataLoader(ArrayDataset(x, x[:, :1]), batch_size=8, rng=0)
        val = DataLoader(ArrayDataset(x, x[:, :1]), batch_size=8)
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            history = trainer.fit(train, epochs=3, val_loader=val)
            epoch_spans = telem.histogram("span.trainer.epoch").count
        events = [
            r for r in sink.records
            if r["type"] == "event" and r["name"] == "trainer.epoch"
        ]
        assert len(events) == 3
        assert epoch_spans == 3
        for i, event in enumerate(events):
            fields = event["fields"]
            assert fields["epoch"] == i
            assert fields["train_loss"] == pytest.approx(history.train_loss[i])
            assert fields["val_loss"] == pytest.approx(history.val_loss[i])
            assert fields["grad_norm"] > 0.0

    def test_grad_norm_none_without_clip_or_telemetry(self):
        import numpy as np

        from repro.nn import Adam, ArrayDataset, DataLoader, Dense, MSELoss, Sequential, Trainer

        model = Sequential([Dense(3, 1, rng=0)])
        trainer = Trainer(model, MSELoss(), Adam(model.parameters()))
        x = np.random.default_rng(0).normal(size=(8, 3))
        loader = DataLoader(ArrayDataset(x, x[:, :1]), batch_size=8, rng=0)
        trainer.fit(loader, epochs=1)
        assert trainer.last_grad_norm is None
