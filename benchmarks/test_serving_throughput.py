"""Benchmark: micro-batched serving throughput vs single-frame scoring.

The paper's safety monitor scores one camera frame at a time; the serving
engine's whole reason to exist is that coalescing those single-frame
requests into batched VBP + autoencoder passes buys real throughput on
the same hardware.  This benchmark gates that claim: the engine, fed
frame-by-frame through its admission queue, must sustain at least twice
the throughput of a plain one-frame-per-call scoring loop.
"""

import time

import numpy as np

from repro.config import BENCH
from repro.experiments.harness import ExperimentResult
from repro.novelty import SaliencyNoveltyPipeline
from repro.serving import EngineConfig, PipelineScorer, ServingEngine

N_FRAMES = 96
SPEEDUP_GATE = 2.0


def _fitted_pipeline(bench_workbench):
    pipeline = SaliencyNoveltyPipeline(
        bench_workbench.steering_model("dsu"),
        BENCH.image_shape,
        loss="ssim",
        config=bench_workbench.autoencoder_config(),
        rng=0,
    )
    pipeline.fit(bench_workbench.batch("dsu", "train").frames)
    return pipeline


def test_serving_throughput(benchmark, bench_workbench, report):
    pipeline = _fitted_pipeline(bench_workbench)
    test = bench_workbench.batch("dsu", "test").frames
    frames = np.stack([test[i % len(test)] for i in range(N_FRAMES)])
    pipeline.score_batch(frames[:8])  # warm layer caches

    def _measure():
        # Baseline: the monitor's naive deployment — one VBP + autoencoder
        # pass per frame.
        started = time.perf_counter()
        for frame in frames:
            pipeline.score_batch(frame[None])
        fps_single = N_FRAMES / (time.perf_counter() - started)

        # Micro-batched: same frames submitted individually through the
        # engine's bounded queue, scored in coalesced batches.
        engine = ServingEngine(
            PipelineScorer(pipeline),
            EngineConfig(max_batch_size=16, queue_capacity=N_FRAMES),
        )
        try:
            engine.infer(frames[0])  # warm the dispatch path
            started = time.perf_counter()
            outcomes = engine.infer_many(frames)
            fps_batched = N_FRAMES / (time.perf_counter() - started)
            stats = engine.stats()
        finally:
            engine.close()
        assert all(o.status == "ok" for o in outcomes)
        return fps_single, fps_batched, stats

    fps_single, fps_batched, stats = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    speedup = fps_batched / fps_single
    result = ExperimentResult(
        exp_id="serving",
        title="Serving throughput: micro-batched engine vs single-frame loop",
        rows=[
            f"single-frame scoring   {fps_single:8.1f} frames/s",
            f"micro-batched engine   {fps_batched:8.1f} frames/s",
            f"speedup                {speedup:8.2f}x  (gate: >= {SPEEDUP_GATE:.1f}x)",
            (
                f"engine latency (ms)    p50={stats['latency_ms']['p50']:.2f}  "
                f"p95={stats['latency_ms']['p95']:.2f}  "
                f"p99={stats['latency_ms']['p99']:.2f}"
            ),
            f"mean batch size        {stats['mean_batch_size']:8.2f}",
        ],
        metrics={
            "fps_single": fps_single,
            "fps_batched": fps_batched,
            "speedup": speedup,
            "mean_batch_size": stats["mean_batch_size"],
            "latency_ms_p99": stats["latency_ms"]["p99"],
        },
        notes=(
            f"{N_FRAMES} bench-scale frames; engine policy batch<=16, "
            "queue sized to the burst"
        ),
    )
    report(result)
    assert speedup >= SPEEDUP_GATE
