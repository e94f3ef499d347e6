"""Micro-benchmark: WAL journaling must be ~free on the serving path.

Durability is only on by default if nobody notices it: with
``--journal-dir`` set, every admitted request writes an admit and a
resolve record to the write-ahead journal (flush-per-append, fsync only
at rotation/snapshot — page cache survives ``kill -9``, so that is the
crash model the journal defends).  This compares ``ServingEngine``
throughput with a :class:`~repro.durability.RequestLedger` attached
against the identical engine with journaling off, and gates the
overhead at 5% — same bar as the telemetry and reliability-guard gates.
"""

import numpy as np

from repro.config import BENCH
from repro.durability import Journal, RequestLedger
from repro.experiments.harness import ExperimentResult
from repro.novelty import SaliencyNoveltyPipeline
from repro.serving import EngineConfig, PipelineScorer, ServingEngine
from repro.utils.timer import time_call

REPEATS = 20
FRAMES = 32


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


def test_journal_overhead_under_5_percent(
    benchmark, bench_workbench, report, tmp_path
):
    pipeline = _fitted_pipeline(bench_workbench)
    frames = np.stack(bench_workbench.batch("dsu", "test").frames[:FRAMES])

    engine = ServingEngine(
        PipelineScorer(pipeline),
        EngineConfig(max_batch_size=8, queue_capacity=2 * FRAMES),
    )
    journal = Journal(tmp_path / "journal")
    try:
        engine.infer_many(frames)  # warm-up: BLAS pools, dispatch thread

        bare, bare_timer = time_call(engine.infer_many, frames, repeats=REPEATS)

        engine.attach_ledger(RequestLedger(journal))
        engine.infer_many(frames)  # warm-up: journal segment open
        journaled, journaled_timer = time_call(
            engine.infer_many, frames, repeats=REPEATS
        )

        assert all(o.status == "ok" for o in bare)
        assert all(o.status == "ok" for o in journaled)
        for a, b in zip(bare, journaled):
            assert a.score == b.score  # journaling never touches verdicts

        # Min-of-repeats: the journal writes land in page cache, so the
        # signal is microseconds of encode+write per request against
        # milliseconds of scoring; scheduler noise dominates the mean.
        overhead = journaled_timer.min / bare_timer.min - 1.0

        ledger_stats = engine.stats()["ledger"]
        assert ledger_stats["outstanding"] == 0
        assert ledger_stats["admitted"] == (REPEATS + 1) * FRAMES

        result = ExperimentResult(
            exp_id="journal_overhead",
            title="WAL journaling overhead on the serving path (extension)",
            rows=[
                f"{'bare ms/32 frames (min)':<28} {bare_timer.min * 1e3:>8.3f}",
                f"{'journaled ms/32 (min)':<28} {journaled_timer.min * 1e3:>8.3f}",
                f"{'overhead':<28} {overhead:>8.2%}",
            ],
            metrics={
                "bare_ms": bare_timer.min * 1e3,
                "journaled_ms": journaled_timer.min * 1e3,
                "overhead_fraction": overhead,
            },
            notes=(
                f"min over {REPEATS} repeats of {FRAMES} frames through the "
                "batching engine; journaled path = admit + resolve WAL "
                "record per request (flush-per-append, no per-record fsync)"
            ),
        )
        report(result)
        benchmark.pedantic(engine.infer_many, args=(frames,), rounds=3, iterations=1)
        assert overhead < 0.05, (
            f"request journaling adds {overhead:.1%} to the serving path "
            f"(journaled {journaled_timer.min * 1e3:.3f}ms vs "
            f"bare {bare_timer.min * 1e3:.3f}ms)"
        )
    finally:
        engine.close()
        journal.close()
