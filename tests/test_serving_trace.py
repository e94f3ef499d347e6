"""End-to-end request tracing across the serving stack.

Satellite coverage for cross-process trace propagation: contexts survive
the batcher queue, the worker-pool pipe protocol, and the TCP frontend,
and the linked span records reconstruct one request's full tree.
"""

import numpy as np
import pytest

from repro.serving import (
    EngineConfig,
    PipelineScorer,
    ServingClient,
    ServingEngine,
    ServingServer,
    WorkerPool,
)
from repro.telemetry import (
    MemorySink,
    TraceContext,
    disable_telemetry,
    render_trace_tree,
    telemetry_session,
    use_trace,
)


@pytest.fixture(autouse=True)
def _restore_null_backend():
    yield
    disable_telemetry()


def _spans(sink):
    return [r for r in sink.records if r["type"] == "span"]


def _engine(pipeline, **overrides):
    config = EngineConfig(
        max_batch_size=4, queue_capacity=64, **overrides
    )
    return ServingEngine(PipelineScorer(pipeline), config)


class TestEngineTracing:
    def test_each_request_roots_its_own_trace(self, fitted_pipeline, dsu_test):
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            engine = _engine(fitted_pipeline)
            try:
                for frame in dsu_test.frames[:3]:
                    assert engine.infer(frame).status == "ok"
            finally:
                engine.close()
        roots = [s for s in _spans(sink) if s["name"] == "serving.request"]
        assert len(roots) == 3
        assert all(r["trace_id"] for r in roots)
        assert len({r["trace_id"] for r in roots}) == 3
        assert all(r["parent_span_id"] is None for r in roots)
        assert all(r["attrs"]["outcome"] == "scored" for r in roots)

    def test_queue_span_links_under_the_request_root(
        self, fitted_pipeline, dsu_test
    ):
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            engine = _engine(fitted_pipeline)
            try:
                engine.infer(dsu_test.frames[0])
            finally:
                engine.close()
        spans = _spans(sink)
        (root,) = [s for s in spans if s["name"] == "serving.request"]
        (queue,) = [s for s in spans if s["name"] == "serving.queue"]
        assert queue["trace_id"] == root["trace_id"]
        assert queue["parent_span_id"] == root["span_id"]

    def test_batch_span_joins_the_owner_trace(self, fitted_pipeline, dsu_test):
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            engine = _engine(fitted_pipeline)
            try:
                outcomes = engine.infer_many(dsu_test.frames[:4])
            finally:
                engine.close()
        assert all(o.status == "ok" for o in outcomes)
        spans = _spans(sink)
        roots = [s for s in spans if s["name"] == "serving.request"]
        batches = [s for s in spans if s["name"] == "serving.batch"]
        assert batches, "no batch spans recorded"
        owner_ids = {b["trace_id"] for b in batches}
        root_ids = {r["trace_id"] for r in roots}
        assert owner_ids <= root_ids
        # Non-owner requests point at the batch they rode in via attrs.
        for root in roots:
            if root["trace_id"] not in owner_ids:
                assert root["attrs"]["batch_trace"] in owner_ids

    def test_stats_expose_the_last_trace_id(self, fitted_pipeline, dsu_test):
        with telemetry_session():
            engine = _engine(fitted_pipeline)
            try:
                engine.infer(dsu_test.frames[0])
                stats = engine.stats()
            finally:
                engine.close()
        assert stats["last_trace_id"]

    def test_untraced_engine_emits_no_trace_ids(self, fitted_pipeline, dsu_test):
        engine = _engine(fitted_pipeline)
        try:
            engine.infer(dsu_test.frames[0])
            assert "last_trace_id" not in engine.stats()
        finally:
            engine.close()

    def test_trace_tree_reconstructs_from_jsonl(
        self, fitted_pipeline, dsu_test, tmp_path
    ):
        path = tmp_path / "serving.jsonl"
        with telemetry_session(path):
            engine = _engine(fitted_pipeline)
            try:
                engine.infer_many(dsu_test.frames[:4])
                trace_id = engine.stats()["last_trace_id"]
            finally:
                engine.close()
        from repro.telemetry import read_events

        tree = render_trace_tree(read_events(path), trace_id)
        assert f"trace {trace_id}" in tree
        assert "serving.request" in tree
        assert "serving.queue" in tree


class TestWorkerPoolPropagation:
    def test_trace_crosses_the_pipe_and_spans_replay(self, bundle_dir, dsu_test):
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            ctx = TraceContext.new_root()
            with WorkerPool(
                bundle_dir, workers=1, request_timeout_s=120.0,
                profile_kernels=True,
            ) as pool:
                with use_trace(ctx):
                    verdicts = pool.score_batch(dsu_test.frames[:2])
        assert len(verdicts) == 2
        spans = _spans(sink)
        (worker,) = [s for s in spans if s["name"] == "worker.score_batch"]
        # The worker's span is a child of the context shipped over the pipe.
        assert worker["trace_id"] == ctx.trace_id
        assert worker["parent_span_id"] == ctx.span_id
        assert worker["attrs"]["frames"] == 2
        # Kernel spans recorded inside the worker process replay into the
        # parent's sink, linked under the worker span's trace.
        kernels = [s for s in spans if s["name"].startswith("kernel.")]
        assert kernels, "worker kernel spans did not replay"
        assert all(k["trace_id"] == ctx.trace_id for k in kernels)

    def test_untraced_call_ships_no_context(self, bundle_dir, dsu_test):
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            with WorkerPool(
                bundle_dir, workers=1, request_timeout_s=120.0
            ) as pool:
                verdicts = pool.score_batch(dsu_test.frames[:2])
        assert len(verdicts) == 2
        assert [s for s in _spans(sink) if s["name"] == "worker.score_batch"] == []


class TestFrontendPropagation:
    @pytest.fixture()
    def traced_server(self, fitted_pipeline):
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            engine = _engine(fitted_pipeline)
            with ServingServer(engine) as server:
                with ServingClient(*server.address) as client:
                    yield client, sink
            engine.close()

    def test_response_carries_a_trace_id(self, traced_server, dsu_test):
        client, sink = traced_server
        reply = client.score(dsu_test.frames[0])
        assert reply["status"] == "ok"
        assert reply["trace_id"]
        roots = [s for s in _spans(sink) if s["name"] == "serving.frontend"]
        assert roots and roots[0]["trace_id"] == reply["trace_id"]

    def test_client_context_is_adopted_not_replaced(self, traced_server, dsu_test):
        client, sink = traced_server
        ctx = TraceContext.new_root()
        reply = client.score(dsu_test.frames[0], trace=ctx)
        assert reply["trace_id"] == ctx.trace_id
        (frontend,) = [
            s for s in _spans(sink) if s["name"] == "serving.frontend"
        ]
        assert frontend["trace_id"] == ctx.trace_id
        assert frontend["parent_span_id"] == ctx.span_id
        (request,) = [
            s for s in _spans(sink) if s["name"] == "serving.request"
        ]
        assert request["trace_id"] == ctx.trace_id
        assert request["parent_span_id"] == frontend["span_id"]

    def test_malformed_wire_context_is_an_error_not_a_crash(
        self, traced_server, dsu_test
    ):
        client, _ = traced_server
        reply = client._call(
            {
                "op": "score",
                "frame": np.asarray(dsu_test.frames[0]).tolist(),
                "trace": {"trace_id": ""},
            }
        )
        assert reply["status"] == "error"
        assert client.ping() is True
