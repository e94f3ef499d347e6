"""Soak tests: a long-running engine keeps nothing per request it served.

A safety monitor serves one verdict per camera frame for as long as the
vehicle runs, so the engine's memory must not grow with requests served.
Each test drives many requests through a stub scorer and checks what is
left behind once they have resolved.
"""

import gc
import tracemalloc

import numpy as np

from repro.serving import BatchVerdicts, EngineConfig, Scorer, ServingEngine
from repro.telemetry import SpanRecord, telemetry_session

FRAME_SHAPE = (2, 2)


class _StubScorer(Scorer):
    image_shape = FRAME_SHAPE
    dtype = np.dtype("float64")

    def score_batch(self, frames):
        n = len(frames)
        return BatchVerdicts(
            scores=np.full(n, 0.25), is_novel=np.zeros(n, dtype=bool), margins=np.zeros(n)
        )


def _engine():
    return ServingEngine(
        _StubScorer(), EngineConfig(max_batch_size=8, max_wait_ms=0.0, queue_capacity=64)
    )


def _serve(engine, requests, burst=16):
    frames = np.zeros((burst,) + FRAME_SHAPE)
    for _ in range(requests // burst):
        outcomes = engine.infer_many(frames)
        assert all(o.status == "ok" for o in outcomes)


def test_untraced_engine_memory_is_flat_after_warm_up():
    """20k requests, telemetry off: after a 2k warm-up, traced memory grows
    by less than 64 kB (a list of every latency alone would be ~0.6 MB)."""
    engine = _engine()
    tracemalloc.start()
    try:
        _serve(engine, 2_000)
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        _serve(engine, 18_000)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
        stats = engine.stats()
    finally:
        tracemalloc.stop()
        engine.close()
    assert stats["scored"] == stats["latency_ms"]["count"] == 20_000
    assert after - before < 64 * 1024, f"grew by {after - before} bytes"


def test_no_span_record_outlives_its_emission(tmp_path):
    """5k traced requests into a JSONL sink: once they resolved, no
    SpanRecord is still alive — the sink holds the records, nothing else."""
    with telemetry_session(tmp_path / "soak.jsonl"):
        engine = _engine()
        try:
            _serve(engine, 5_000)
        finally:
            engine.close()
        gc.collect()
        alive = sum(isinstance(obj, SpanRecord) for obj in gc.get_objects())
    assert alive == 0
