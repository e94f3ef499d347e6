#!/usr/bin/env python
"""Serving quickstart: train → bundle → micro-batched engine → verdicts.

The paper positions its detector as an online safety monitor for deployed
driving systems.  This example walks the deployment path end to end:

1. train a tiny steering CNN and fit the VBP+SSIM pipeline;
2. save it as a versioned artifact bundle (``repro.serving.save_bundle``);
3. load the bundle back — exactly what a serving replica does at boot;
4. stand up a :class:`repro.serving.ServingEngine` (micro-batching +
   bounded admission) and stream a mixed in-domain/novel sequence
   through it one frame at a time;
5. print the typed outcomes and the engine's latency percentiles.

Run:  python examples/serving_quickstart.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    PilotNet,
    PilotNetConfig,
    SaliencyNoveltyPipeline,
    SyntheticIndoor,
    SyntheticUdacity,
    train_pilotnet,
)
from repro.novelty import AutoencoderConfig
from repro.serving import (
    EngineConfig,
    PipelineScorer,
    ServingEngine,
    load_bundle,
    save_bundle,
)

IMAGE_SHAPE = (24, 64)
SEED = 0


def train_pipeline() -> SaliencyNoveltyPipeline:
    dsu = SyntheticUdacity(IMAGE_SHAPE)
    train = dsu.render_batch(160, rng=SEED)
    model = PilotNet(PilotNetConfig.for_image(IMAGE_SHAPE), rng=SEED)
    train_pilotnet(model, train.frames, train.angles, epochs=4, batch_size=32, rng=SEED)
    pipeline = SaliencyNoveltyPipeline(
        model,
        IMAGE_SHAPE,
        loss="ssim",
        config=AutoencoderConfig(epochs=30, batch_size=32, ssim_window=9),
        rng=SEED,
    )
    pipeline.fit(train.frames)
    return pipeline


def main() -> None:
    print("training the steering CNN and fitting the detector...")
    pipeline = train_pipeline()

    with tempfile.TemporaryDirectory() as tmp:
        bundle_dir = Path(tmp) / "bundle"
        save_bundle(pipeline, bundle_dir)
        print(f"bundle saved to {bundle_dir}")

        # A serving replica starts from the bundle alone — no access to the
        # training process.  Loading validates the manifest (schema version,
        # config hash, threshold cross-check) and fails loudly on mismatch.
        bundle = load_bundle(bundle_dir)
        print(
            f"bundle loaded: image_shape={bundle.image_shape}, "
            f"threshold={bundle.threshold:.4f}"
        )

        engine = ServingEngine(
            PipelineScorer(bundle.pipeline),
            EngineConfig(max_batch_size=8, queue_capacity=64),
        )
        try:
            # A mixed stream: in-domain frames, then the unseen environment.
            target = SyntheticUdacity(IMAGE_SHAPE).render_batch(12, rng=SEED + 1).frames
            novel = SyntheticIndoor(IMAGE_SHAPE).render_batch(12, rng=SEED + 2).frames
            frames = np.concatenate([target, novel])
            labels = ["in-domain"] * len(target) + ["unseen"] * len(novel)

            print("\nsubmitting frames one at a time (the engine batches them):\n")
            outcomes = engine.infer_many(frames)
            print(f"{'frame':>5} {'stream':<10} {'score':>8} {'novel':>6} {'batch':>6}")
            for i, (outcome, label) in enumerate(zip(outcomes, labels)):
                if outcome.status != "ok":
                    print(f"{i:>5} {label:<10} {outcome.status}")
                    continue
                if outcome.is_novel or i % 6 == 0:
                    print(
                        f"{i:>5} {label:<10} {outcome.score:>8.4f} "
                        f"{str(outcome.is_novel):>6} {outcome.batch_size:>6}"
                    )

            detected = sum(
                o.status == "ok" and o.is_novel for o in outcomes[len(target):]
            )
            false_alarms = sum(
                o.status == "ok" and o.is_novel for o in outcomes[: len(target)]
            )
            stats = engine.stats()
            latency = stats["latency_ms"]
            print(f"\nunseen-domain frames flagged: {detected}/{len(novel)}")
            print(f"in-domain false alarms: {false_alarms}/{len(target)}")
            print(
                f"engine latency (ms): p50={latency['p50']:.2f} "
                f"p95={latency['p95']:.2f} p99={latency['p99']:.2f}"
            )
            print(
                f"micro-batches: {stats['batches']} "
                f"(mean size {stats['mean_batch_size']:.1f})"
            )
        finally:
            engine.close()


if __name__ == "__main__":
    main()
