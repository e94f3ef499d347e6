"""Self-time attribution over a hand-built cross-process request trace."""

import pytest

from attribution import Trace, layer_metrics, self_times, trace_problems

CLIENT, SERVER, WORKER = 100, 200, 300
RID = (5000, 1)


def _span(sid, parent, name, start, end, rid=None, attrs=None):
    return [sid, parent, name, start, end, 1, rid, attrs]


def _dumps():
    """One request through a pooled server, with a second request batched
    alongside it, and spans that overrun their parents."""
    client = [
        _span(1, 0, "client.request", 0.0, 10.0, list(RID)),
        _span(2, 1, "client.send", 0.5, 2.0),
        _span(3, 2, "client.dumps", 0.6, 1.5, attrs={"bytes": 4000}),
        _span(4, 1, "client.recv", 2.0, 9.8),
        _span(5, 4, "client.wait", 2.0, 9.5),
        _span(6, 4, "client.loads", 9.6, 9.7),
    ]
    other = [[5001, 7]]
    server = [
        # Starts before the client's wait does: clipped to it.
        _span(10, 0, "server.recv", 1.8, 3.0, list(RID)),
        _span(11, 10, "server.loads", 2.2, 2.9),
        _span(12, 0, "server.respond", 3.0, 9.0, list(RID)),
        _span(13, 12, "engine.submit", 3.1, 3.5),
        _span(14, 13, "admission.admit", 3.2, 3.3, attrs={"admitted": True}),
        _span(15, 12, "engine.wait", 3.5, 8.8),
        _span(16, 0, "server.send", 9.0, 9.4, list(RID)),
        # Dispatch thread: busy until 3.6, when it took the other request
        # (queued at 3.3) and opened the batch window; ours, queued at 3.4,
        # was popped then and waited for the window to close at 4.0.
        _span(20, 0, "batcher.next_batch", 3.6, 4.0, other + [list(RID)],
              {"enqueued": [3.3, 3.4]}),
        _span(21, 0, "engine.dispatch", 4.0, 9.2, other + [list(RID)]),
        _span(22, 21, "pool.score_batch", 4.1, 8.0),
        _span(23, 22, "pool.request", 4.2, 7.9, attrs={"worker_pid": WORKER}),
        _span(24, 21, "telemetry.emit", 8.1, 8.3),
    ]
    worker = [
        _span(30, 0, "stage.cnn_forward", 4.5, 6.0, attrs={"frames": 2}),
        _span(31, 30, "stage.verdict", 4.6, 5.6, attrs={"frames": 2}),
        _span(32, 0, "stage.similarity", 6.0, 7.0, attrs={"frames": 2}),
        # Recorded after the pool stopped waiting: belongs to no request.
        _span(33, 0, "stage.cnn_forward", 20.0, 21.0, attrs={"frames": 1}),
    ]
    return [
        {"pid": CLIENT, "role": "client", "spans": client},
        {"pid": SERVER, "role": "server", "spans": server,
         "counts": {"pool.restarts": 1}},
        {"pid": WORKER, "role": "worker", "spans": worker,
         # Kernel profiler totals: [calls, seconds, flops, bytes].
         "kernels": {"conv2d_forward": [3, 1.2, 4e6, 2e6]}},
    ]


def _names(node, out=None):
    out = [] if out is None else out
    out.append((node.span.name, node.start, node.end))
    for child in node.children:
        _names(child, out)
    return out


def test_self_times_add_up_to_the_root_span():
    root = Trace(_dumps()).tree(RID)
    assert sum(self_times(root).values()) == pytest.approx(10.0, abs=1e-12)


def test_children_are_clipped_to_parents_and_linked_across_processes():
    nodes = {name: (start, end) for name, start, end in _names(Trace(_dumps()).tree(RID))}
    assert nodes["server.recv"] == (2.0, 3.0)
    assert nodes["batcher.queue"] == (3.5, 3.6)
    assert nodes["batcher.fill"] == (3.6, 4.0)
    assert nodes["engine.dispatch"] == (4.0, 8.8)
    assert nodes["stage.verdict"] == (4.6, 5.6)
    assert "stage.similarity" in nodes
    # The dispatch span ends at the request's wake-up, so the emit that
    # follows the worker's reply still counts (it ends before 8.8).
    assert nodes["telemetry.emit"] == (8.1, 8.3)


def test_self_time_is_duration_minus_children():
    times = self_times(Trace(_dumps()).tree(RID))
    assert times["stage.cnn_forward"] == pytest.approx(1.5 - 1.0)
    assert times["pool.request"] == pytest.approx(3.7 - 1.5 - 1.0)
    assert times["engine.wait"] == pytest.approx(0.0, abs=1e-12)
    # The server covers the client's wait up to its reply write at 9.4;
    # the client resumed at 9.5.
    assert times["client.wait"] == pytest.approx(0.0, abs=1e-12)
    assert times["client.wake"] == pytest.approx(0.1)
    # The dispatch span outlasts the request's wait: no wake-up gap.
    assert "engine.wake" not in times


def test_layer_metrics_add_up_to_mean_latency():
    metrics = layer_metrics(Trace(_dumps()), [RID, (5001, 7)])
    assert metrics["trace.requests"] == 1
    parts = [v for k, v in metrics.items()
             if k.endswith("_ms") and k.split(".")[0] in (
                 "service", "batcher", "engine", "pool", "pipeline",
                 "durability", "telemetry", "loadgen", "unattributed_ms")]
    parts += [metrics["admission.admit_us"] / 1e3, metrics["engine.submit_us"] / 1e3]
    assert sum(parts) == pytest.approx(metrics["latency_mean_ms"])
    assert metrics["latency_mean_ms"] == pytest.approx(10_000.0)
    assert metrics["service.request_kb"] == pytest.approx(4.0)
    assert metrics["batcher.batch_size"] == 2
    assert metrics["pool.restarts"] == 1
    # Per scored frame: three frames went through cnn_forward in all.
    assert metrics["stage.cnn_forward_ms"] == pytest.approx((1.5 + 1.0) / 3 * 1e3)
    assert metrics["kernel.conv2d_forward_ms"] == pytest.approx(1.2 / 3 * 1e3)
    assert metrics["kernel.conv2d_forward_mflop"] == pytest.approx(4.0 / 3)
    assert metrics["kernel.conv2d_forward_mb"] == pytest.approx(2.0 / 3)


def test_a_sound_trace_has_no_problems():
    trace = Trace(_dumps())
    assert trace_problems(_dumps(), trace, layer_metrics(trace, [RID])) == []


def test_a_missing_hook_or_worker_dump_is_a_problem():
    dumps = _dumps()
    dumps[1]["missing"] = ["MicroBatcher.next_batch"]
    del dumps[2]
    trace = Trace(dumps)
    problems = trace_problems(dumps, trace, layer_metrics(trace, [RID]))
    assert any("MicroBatcher.next_batch" in p for p in problems)
    assert any(f"worker {WORKER}" in p for p in problems)


def test_an_unattributed_trace_is_a_problem():
    trace = Trace(_dumps())
    metrics = layer_metrics(trace, [RID])
    assert trace_problems(_dumps(), trace, dict(metrics, **{"trace.requests": 0.0}))
    low = dict(metrics, **{"trace.attributed_share": 0.85})
    assert any("below 90%" in p for p in trace_problems(_dumps(), trace, low))
