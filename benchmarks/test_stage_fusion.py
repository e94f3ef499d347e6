"""Benchmark: the fused monitor path vs the seed two-forward path.

Guarding a steering model used to cost two CNN forwards per frame: one in
``predict_angles`` for the steering command and a second inside the
saliency cascade for the novelty score.  The stage runtime's
``cnn_forward`` stage caches its activations so the ``steering_head`` and
``saliency_cascade`` stages share one pass — this benchmark gates that the
fused ``score_with_steering`` path delivers steering + novelty per frame
at >= 1.2x the two-call throughput, with scores identical to the
monolithic scoring path and angles identical to ``predict_angles``.
"""

import time

import numpy as np

from repro.config import BENCH
from repro.experiments.harness import ExperimentResult
from repro.novelty import SaliencyNoveltyPipeline

N_FRAMES = 96
REPEATS = 3
SPEEDUP_GATE = 1.2


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


def _throughput(fn, frames) -> float:
    """Best-of-REPEATS frames/s for full batched steering+novelty passes."""
    best = 0.0
    for _ in range(REPEATS):
        started = time.perf_counter()
        fn(frames)
        best = max(best, len(frames) / (time.perf_counter() - started))
    return best


def test_fused_steering_novelty_speedup(benchmark, bench_workbench, report):
    pipeline = _fitted_pipeline(bench_workbench)
    model = pipeline.saliency_method.model
    test = bench_workbench.batch("dsu", "test").frames
    frames = np.stack([test[i % len(test)] for i in range(N_FRAMES)])

    def two_forward(stack):
        """The seed path: one forward for steering, another for novelty."""
        return pipeline.score_batch(stack), model.predict_angles(stack)

    def fused(stack):
        return pipeline.score_with_steering(stack)

    # Warm layer caches and allocator pools.
    two_forward(frames[:8])
    fused(frames[:8])

    def _measure():
        fps_two = _throughput(two_forward, frames)
        fps_fused = _throughput(fused, frames)
        return fps_two, fps_fused

    fps_two, fps_fused = benchmark.pedantic(_measure, rounds=1, iterations=1)
    speedup = fps_fused / fps_two

    # The speed must not come from different answers: fused scores match
    # the monolithic scoring path to 1e-9, angles match predict_angles.
    fused_scores, fused_angles = pipeline.score_with_steering(frames)
    np.testing.assert_allclose(fused_scores, pipeline.score_batch(frames), atol=1e-9)
    np.testing.assert_allclose(fused_angles, model.predict_angles(frames), atol=1e-9)

    result = ExperimentResult(
        exp_id="stage_fusion",
        title="Stage fusion: shared CNN forward for steering + novelty",
        rows=[
            f"two-forward (seed)     {fps_two:8.1f} frames/s",
            f"fused plan             {fps_fused:8.1f} frames/s",
            f"speedup                {speedup:8.2f}x  (gate: >= {SPEEDUP_GATE:.1f}x)",
            "scores/angles identical to the unfused entry points",
        ],
        metrics={
            "fps_two_forward": fps_two,
            "fps_fused": fps_fused,
            "speedup": speedup,
        },
        notes=(
            f"{N_FRAMES} bench-scale frames; steering + novelty per frame; "
            f"best of {REPEATS} full-batch passes per path"
        ),
    )
    report(result)
    assert speedup >= SPEEDUP_GATE
