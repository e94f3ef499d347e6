"""Benchmark: hot-swap latency tax under closed-loop load.

Zero-downtime reload is only zero-downtime if the drain-and-swap is
cheap: while a new model is installed the dispatcher may stall for at
most one in-flight batch, so client-observed tail latency should barely
move.  This benchmark gates that claim: with swaps firing continuously
under closed-loop load, p99 latency must stay within 2x of the
steady-state p99 measured on the same engine, and every admitted
request must still resolve ``Scored`` — zero drops, zero failures.
"""

import threading
import time

import numpy as np

from repro.config import BENCH
from repro.experiments.harness import ExperimentResult
from repro.novelty import SaliencyNoveltyPipeline
from repro.serving import EngineConfig, PipelineScorer, ServingEngine
from repro.serving.loadgen import run_load

N_FRAMES = 160
CLIENTS = 4
SWAP_INTERVAL_S = 0.02
P99_GATE = 2.0


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


def test_hot_swap_latency(benchmark, bench_workbench, report):
    pipeline = _fitted_pipeline(bench_workbench)
    test = bench_workbench.batch("dsu", "test").frames
    frames = [test[i % len(test)] for i in range(N_FRAMES)]
    pipeline.score_batch(np.stack(frames[:8]))  # warm layer caches

    def _measure():
        engine = ServingEngine(
            PipelineScorer(pipeline, model_version="v1"),
            EngineConfig(max_batch_size=8, queue_capacity=N_FRAMES),
        )
        try:
            engine.infer(frames[0])  # warm the dispatch path

            # Phase 1: steady state — no swaps, same closed-loop drive.
            steady = run_load(engine.infer, frames, clients=CLIENTS)

            # Phase 2: same load while a rollout loop hot-swaps the model
            # back and forth for the whole run.
            stop = threading.Event()

            def _swapper():
                generation = 0
                while not stop.is_set():
                    generation += 1
                    engine.reload(pipeline, model_version=f"v{generation}")
                    time.sleep(SWAP_INTERVAL_S)

            swapper = threading.Thread(target=_swapper, name="swapper", daemon=True)
            swapper.start()
            try:
                swapping = run_load(engine.infer, frames, clients=CLIENTS)
            finally:
                stop.set()
                swapper.join(30.0)
            swaps = engine.stats()["reloads"]
        finally:
            engine.close()
        return steady, swapping, swaps

    steady, swapping, swaps = benchmark.pedantic(_measure, rounds=1, iterations=1)
    ratio = swapping.latency_ms_p99 / steady.latency_ms_p99
    result = ExperimentResult(
        exp_id="hot_swap",
        title="Hot-swap under load: p99 latency tax vs steady state",
        rows=[
            f"steady p99             {steady.latency_ms_p99:8.2f} ms",
            f"swapping p99           {swapping.latency_ms_p99:8.2f} ms",
            f"p99 ratio              {ratio:8.2f}x  (gate: <= {P99_GATE:.1f}x)",
            f"swaps during load      {swaps:8d}",
            (
                f"swapping outcomes      ok={swapping.ok}  "
                f"dropped={swapping.overloaded}  failed={swapping.failed}"
            ),
        ],
        metrics={
            "p99_steady_ms": steady.latency_ms_p99,
            "p99_swapping_ms": swapping.latency_ms_p99,
            "p99_ratio": ratio,
            "swaps": float(swaps),
            "throughput_swapping_fps": swapping.throughput_fps,
        },
        notes=(
            f"{N_FRAMES} bench-scale frames, {CLIENTS} closed-loop clients, "
            f"a reload every {SWAP_INTERVAL_S * 1e3:.0f} ms"
        ),
    )
    report(result)
    # Zero dropped or failed admitted requests through every swap.
    assert steady.ok == steady.requests
    assert swapping.ok == swapping.requests
    assert swaps >= 1  # the rollout loop really ran
    assert swapping.latency_ms_p99 <= P99_GATE * steady.latency_ms_p99
