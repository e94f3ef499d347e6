"""Tests for the socket frontend: wire protocol, server, client."""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.exceptions import (
    RequestFailedError,
    RequestRejectedError,
    RequestTimedOutError,
    ServerOverloadedError,
    ServingError,
)
from repro.serving import (
    BatchVerdicts,
    ClassPolicy,
    EngineConfig,
    PipelineScorer,
    QosPolicy,
    RateLimit,
    Scorer,
    ServingClient,
    ServingEngine,
    ServingServer,
    recv_message,
    send_message,
)


class TestWireProtocol:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        with a, b:
            send_message(a, {"op": "ping", "id": 1, "nested": {"x": [1, 2]}})
            assert recv_message(b) == {"op": "ping", "id": 1, "nested": {"x": [1, 2]}}

    def test_multiple_messages_frame_correctly(self):
        a, b = socket.socketpair()
        with a, b:
            send_message(a, {"id": 1})
            send_message(a, {"id": 2})
            assert recv_message(b)["id"] == 1
            assert recv_message(b)["id"] == 2

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_message(b) is None

    def test_non_object_payload_rejected(self):
        a, b = socket.socketpair()
        with a, b:
            import json
            import struct

            data = json.dumps([1, 2, 3]).encode()
            a.sendall(struct.pack(">I", len(data)) + data)
            with pytest.raises(ServingError, match="JSON objects"):
                recv_message(b)

    def test_oversized_announcement_refused(self):
        a, b = socket.socketpair()
        with a, b:
            import struct

            a.sendall(struct.pack(">I", 1 << 30))
            with pytest.raises(ServingError, match="refusing"):
                recv_message(b)


@pytest.fixture(scope="module")
def served(fitted_pipeline):
    """A running server + connected client over the fitted pipeline."""
    engine = ServingEngine(
        PipelineScorer(fitted_pipeline),
        EngineConfig(max_batch_size=8, max_wait_ms=1.0, queue_capacity=64),
    )
    with ServingServer(engine) as server:
        with ServingClient(*server.address) as client:
            yield client, fitted_pipeline
    engine.close()


class TestServer:
    def test_score_matches_pipeline(self, served, dsu_test):
        client, pipeline = served
        frame = dsu_test.frames[0]
        reply = client.score(frame)
        assert reply["status"] == "ok"
        expected = float(pipeline.score_batch(frame[None])[0])
        assert reply["score"] == pytest.approx(expected, rel=1e-9)
        assert isinstance(reply["is_novel"], bool)
        assert reply["latency_ms"] > 0.0

    def test_ping(self, served):
        client, _ = served
        assert client.ping() is True

    def test_stats_over_the_wire(self, served, dsu_test):
        client, _ = served
        client.score(dsu_test.frames[1])
        stats = client.stats()
        assert stats["scored"] >= 1
        assert "latency_ms" in stats

    def test_unknown_op_is_an_error(self, served):
        client, _ = served
        reply = client._call({"op": "explode"})
        assert reply["status"] == "error"
        assert "unknown op" in reply["error"]

    def test_score_without_frame_is_an_error(self, served):
        client, _ = served
        reply = client._call({"op": "score"})
        assert reply["status"] == "error"
        assert "frame" in reply["error"]

    def test_bad_shape_is_an_error_not_a_crash(self, served):
        client, _ = served
        reply = client.score(np.zeros((3, 3)))
        assert reply["status"] == "error"
        # The connection survives a bad request.
        assert client.ping() is True

    def test_concurrent_clients(self, served, dsu_test):
        client, pipeline = served
        host, port = client._sock.getpeername()
        with ServingClient(host, port) as second:
            a = client.score(dsu_test.frames[2])
            b = second.score(dsu_test.frames[2])
        assert a["status"] == b["status"] == "ok"
        assert a["score"] == pytest.approx(b["score"], rel=1e-9)

    def test_server_close_leaves_engine_usable(self, fitted_pipeline, dsu_test):
        engine = ServingEngine(PipelineScorer(fitted_pipeline))
        try:
            server = ServingServer(engine).start()
            server.close()
            outcome = engine.infer(dsu_test.frames[0])
            assert outcome.status == "ok"
        finally:
            engine.close()


class _TinyScorer(Scorer):
    image_shape = (4, 4)
    dtype = np.dtype("float64")

    def score_batch(self, frames):
        n = len(frames)
        return BatchVerdicts(
            scores=np.zeros(n), is_novel=np.zeros(n, dtype=bool), margins=np.zeros(n)
        )


@pytest.fixture
def qos_served():
    """A server whose engine meters the client id ``greedy`` at 1 burst."""
    policy = QosPolicy(
        classes={
            "critical": ClassPolicy(weight=16, sheddable=False),
            "interactive": ClassPolicy(weight=4),
            "batch": ClassPolicy(weight=1),
        },
        client_rate_limits={"greedy": RateLimit(rate_per_s=0.5, burst=1)},
    )
    engine = ServingEngine(_TinyScorer(), EngineConfig(qos=policy))
    with ServingServer(engine) as server:
        with ServingClient(*server.address) as client:
            yield client
    engine.close()


class TestQosOverTheWire:
    def test_priority_and_client_round_trip(self, qos_served):
        reply = qos_served.score(
            np.zeros((4, 4)), client_id="cam-1", priority="critical"
        )
        assert reply["status"] == "ok"

    def test_rejection_response_carries_reason(self, qos_served):
        assert qos_served.score(np.zeros((4, 4)), client_id="greedy")["status"] == "ok"
        reply = qos_served.score(np.zeros((4, 4)), client_id="greedy")
        assert reply["status"] == "rejected"
        assert reply["reason"] == "rate_limited"
        assert reply["qos_class"] == "interactive"
        assert reply["client"] == "greedy"
        assert reply["retry_after_ms"] > 0
        # The connection survives a rejection.
        assert qos_served.ping() is True

    def test_unknown_priority_is_an_error_not_a_crash(self, qos_served):
        reply = qos_served.score(np.zeros((4, 4)), priority="bulk")
        assert reply["status"] == "error"
        assert "unknown priority class" in reply["error"]
        assert qos_served.ping() is True

    def test_score_strict_raises_typed_rejection(self, qos_served):
        qos_served.score_strict(np.zeros((4, 4)), client_id="greedy")
        with pytest.raises(RequestRejectedError) as excinfo:
            qos_served.score_strict(np.zeros((4, 4)), client_id="greedy")
        assert excinfo.value.reason == "rate_limited"
        assert excinfo.value.qos_class == "interactive"
        assert excinfo.value.retry_after_ms > 0

    def test_score_strict_returns_ok_reply(self, qos_served):
        reply = qos_served.score_strict(np.zeros((4, 4)), priority="critical")
        assert reply["status"] == "ok"

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frame_is_rejected(self, qos_served, bad):
        frame = np.zeros((4, 4))
        frame[0, 1] = bad
        reply = qos_served.score(frame, client_id="cam-1")
        assert (reply["status"], reply["reason"]) == ("rejected", "non_finite_frame")
        with pytest.raises(RequestRejectedError) as excinfo:
            qos_served.score_strict(frame, client_id="cam-1")
        assert excinfo.value.reason == "non_finite_frame"
        assert qos_served.ping() is True


class TestServerRobustness:
    def test_malformed_bodies_get_error_replies(self, monkeypatch):
        """Well-framed bodies that are not UTF-8 JSON objects (including
        nesting too deep to decode) each get an ``error`` reply; the
        connection and its handler thread survive."""
        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        engine = ServingEngine(_TinyScorer())
        try:
            with ServingServer(engine) as server:
                with socket.create_connection(server.address, timeout=30.0) as sock:
                    too_deep = b"[" * 100_000 + b"]" * 100_000
                    for body in (b"\xff\xfe", b"[1,2]", b"{not json", too_deep):
                        sock.sendall(struct.pack(">I", len(body)) + body)
                        reply = recv_message(sock)
                        assert reply["id"] is None
                        assert reply["status"] == "error"
                    frame = np.zeros((4, 4)).tolist()
                    send_message(sock, {"op": "score", "id": 4, "frame": frame})
                    reply = recv_message(sock)
                    assert (reply["id"], reply["status"]) == (4, "ok")
        finally:
            engine.close()
        assert thread_errors == []

    def test_timeout_gets_a_failed_reply_and_the_connection_survives(
        self, monkeypatch
    ):
        """A request still unresolved after request_timeout_s is answered
        ``failed``; the handler thread lives on, and the engine still
        resolves and counts the request."""

        class Slow(_TinyScorer):
            def score_batch(self, frames):
                time.sleep(0.5)
                return super().score_batch(frames)

        thread_errors = []
        monkeypatch.setattr(threading, "excepthook", thread_errors.append)
        engine = ServingEngine(Slow())
        try:
            with ServingServer(engine, request_timeout_s=0.1) as server:
                with ServingClient(*server.address) as client:
                    reply = client.score(np.zeros((4, 4)))
                    assert reply["status"] == "failed"
                    assert "did not resolve within 0.1 seconds" in reply["error"]
                    assert "trace_id" not in reply
                    assert client.ping() is True
        finally:
            engine.close()
        assert thread_errors == []
        stats = engine.stats()
        assert (stats["submitted"], stats["scored"]) == (1, 1)

    def test_close_wakes_the_accept_thread(self):
        engine = ServingEngine(_TinyScorer())
        try:
            server = ServingServer(engine).start()
            # One served connection: the accept thread is back in accept().
            with ServingClient(*server.address) as client:
                assert client.ping()
            started = time.monotonic()
            server.close()
            elapsed = time.monotonic() - started
        finally:
            engine.close()
        assert elapsed < 0.5
        assert not server._accept_thread.is_alive()


def _canned_server(frames):
    """Accept one connection and answer each request from ``frames``.

    Each entry is either a response dict (the request id is echoed into
    it) or raw bytes written verbatim — lets the tests script wire-level
    misbehavior the real server never produces.
    """
    listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def _serve():
        conn, _ = listener.accept()
        with conn:
            for frame in frames:
                request = recv_message(conn)
                if request is None:
                    return
                if isinstance(frame, dict):
                    send_message(conn, dict(frame, id=request["id"]))
                else:
                    conn.sendall(frame)
        listener.close()

    threading.Thread(target=_serve, daemon=True).start()
    return listener.getsockname()


class TestClientErrorMapping:
    """score_strict maps every non-answer status to one typed exception."""

    def _strict(self, reply):
        host, port = _canned_server([reply])
        with ServingClient(host, port) as client:
            return client.score_strict(np.zeros((2, 2)))

    def test_overloaded_raises_server_overloaded(self):
        with pytest.raises(ServerOverloadedError) as excinfo:
            self._strict({"status": "overloaded", "queue_depth": 64, "capacity": 64})
        assert excinfo.value.reason == "queue_full"
        assert isinstance(excinfo.value, RequestRejectedError)  # one except catches both

    def test_deadline_exceeded_raises_timeout(self):
        with pytest.raises(RequestTimedOutError, match="deadline"):
            self._strict({"status": "deadline_exceeded", "waited_ms": 12.5})

    def test_failed_raises_request_failed(self):
        with pytest.raises(RequestFailedError, match="backend exploded"):
            self._strict({"status": "failed", "error": "backend exploded"})

    def test_error_status_raises_request_failed(self):
        with pytest.raises(RequestFailedError, match="frame"):
            self._strict({"status": "error", "error": "score requires 'frame'"})

    def test_degraded_is_an_answer_not_an_error(self):
        reply = self._strict(
            {"status": "degraded", "reason": "breaker_open",
             "is_novel": True, "policy": "novel"}
        )
        assert reply["status"] == "degraded"
        assert reply["is_novel"] is True

    def test_all_typed_errors_are_serving_errors(self):
        for exc_type in (RequestRejectedError, ServerOverloadedError,
                         RequestTimedOutError, RequestFailedError):
            assert issubclass(exc_type, ServingError)


class TestClientWireFailures:
    """Raw transport failures surface as one typed ServingError."""

    def test_malformed_json_reply_is_wrapped(self):
        body = b"not json at all"
        host, port = _canned_server([struct.pack(">I", len(body)) + body])
        with ServingClient(host, port) as client:
            with pytest.raises(ServingError, match="wire failure during 'score'"):
                client.score(np.zeros((2, 2)))

    def test_invalid_utf8_reply_is_wrapped(self):
        body = b'\xff\xfe{"status": "ok"}'
        host, port = _canned_server([struct.pack(">I", len(body)) + body])
        with ServingClient(host, port) as client:
            with pytest.raises(ServingError, match="wire failure"):
                client.score(np.zeros((2, 2)))

    def test_closed_socket_is_wrapped_as_serving_error(self):
        host, port = _canned_server([{"status": "ok", "op": "pong"}])
        client = ServingClient(host, port)
        assert client.ping()
        client._sock.close()
        with pytest.raises(ServingError):
            client.score(np.zeros((2, 2)))

    def test_server_hangup_mid_conversation(self):
        host, port = _canned_server([{"status": "ok", "op": "pong"}])
        with ServingClient(host, port) as client:
            assert client.ping()
            # The canned server is done after one reply; the next request
            # sees EOF, which must not escape as a raw OSError.
            with pytest.raises(ServingError):
                client.score(np.zeros((2, 2)))

    def test_mismatched_response_id_rejected(self):
        # A raw server that replies with the wrong id.
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        sock.listen(1)

        def _serve():
            conn, _ = sock.accept()
            with conn:
                recv_message(conn)
                send_message(conn, {"id": 999, "status": "ok"})

        threading.Thread(target=_serve, daemon=True).start()
        with ServingClient(*sock.getsockname()) as client:
            with pytest.raises(ServingError, match="does not match"):
                client.score(np.zeros((2, 2)))
