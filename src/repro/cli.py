"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment``
    Run one reproduction experiment (or all) at a chosen scale preset and
    print its paper-style report.
``render``
    Render sample frames from a synthetic dataset to PGM files for visual
    inspection.
``masks``
    Train a steering CNN and export VBP saliency masks and overlays (the
    paper's Figure 4 artifact) as PGM/PPM files.
``demo``
    The quickstart flow: train everything, print detection statistics.
``telemetry``
    Summarize a JSONL telemetry trace written by ``--telemetry PATH``
    (span latency percentiles, counters, score histograms).
``bundle``
    Train the proposed pipeline and save it as a deployable artifact
    bundle (see ``docs/serving.md``).
``serve``
    Run the micro-batched inference engine — either as a localhost socket
    service over an artifact bundle, or ``--once`` in-process to score a
    batch of rendered frames and exit.
``bench-serve``
    Load-test the serving engine and print throughput plus p50/p95/p99
    latency.
``supervise``
    Run ``serve`` as a supervised child process: probe it for liveness,
    restart it (with exponential backoff) when it crashes or wedges, and
    let its ``--journal-dir`` recovery restore state on every respawn
    (see ``docs/reliability.md``).
``deploy``
    Drive a model registry from the shell: ``register`` / ``list`` /
    ``status`` / ``promote`` / ``rollback`` / ``retire`` versioned
    bundles (see ``docs/deployment.md``).
``trace``
    Render one request's full span tree (frontend → queue → batch →
    worker → kernels) from a serving telemetry file by trace id.
``profile``
    Aggregate per-kernel timings (``kernel.*`` spans) from a serving
    telemetry file into a profile table.
``plan``
    Print a pipeline's compiled stage graph (stage order, per-stage
    detail, dtypes, call/error tallies).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path
from typing import List, Optional

from repro.config import PRESETS, get_scale

#: Where ``serve`` / ``bench-serve`` write span records by default, and
#: where ``repro trace`` / ``repro profile`` read them back from.
DEFAULT_SERVING_TELEMETRY = Path("out/telemetry/serving.jsonl")


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Novelty Detection via Network Saliency in "
            "Visual-based Deep Learning' (Chen, Yoon, Shao; DSN 2019)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run a reproduction experiment")
    exp.add_argument(
        "exp_id",
        help="experiment id (fig2..fig7, reverse, timing, ablations) or 'all'",
    )
    exp.add_argument(
        "--scale", choices=sorted(PRESETS), default="bench",
        help="scale preset (default: bench)",
    )
    exp.add_argument("--seed", type=int, default=0, help="root random seed")
    _add_dtype_arg(exp)
    exp.add_argument(
        "--markdown", type=Path, default=None, metavar="PATH",
        help="also write the results as a markdown report",
    )
    exp.add_argument(
        "--telemetry", type=Path, default=None, metavar="PATH",
        help="record a JSONL telemetry trace (spans, metrics) of the run",
    )

    render = sub.add_parser("render", help="render dataset frames to PGM files")
    render.add_argument("dataset", choices=["dsu", "dsi"], help="which surrogate")
    render.add_argument("--count", type=int, default=4, help="frames to render")
    render.add_argument("--scale", choices=sorted(PRESETS), default="paper")
    render.add_argument("--seed", type=int, default=0)
    render.add_argument("--out", type=Path, default=Path("out/frames"))
    render.add_argument(
        "--drive", action="store_true",
        help="render a temporally coherent drive instead of i.i.d. frames",
    )

    masks = sub.add_parser("masks", help="export VBP masks and overlays")
    masks.add_argument("dataset", choices=["dsu", "dsi"])
    masks.add_argument("--count", type=int, default=4)
    masks.add_argument("--scale", choices=sorted(PRESETS), default="bench")
    masks.add_argument("--seed", type=int, default=0)
    masks.add_argument("--out", type=Path, default=Path("out/masks"))

    demo = sub.add_parser("demo", help="run the end-to-end detection demo")
    demo.add_argument("--scale", choices=sorted(PRESETS), default="bench")
    demo.add_argument("--seed", type=int, default=0)
    _add_dtype_arg(demo)
    demo.add_argument(
        "--telemetry", type=Path, default=None, metavar="PATH",
        help="record a JSONL telemetry trace (spans, metrics) of the run",
    )

    tele = sub.add_parser("telemetry", help="summarize a JSONL telemetry trace")
    tele.add_argument("trace", type=Path, help="trace written via --telemetry PATH")

    bundle = sub.add_parser(
        "bundle", help="train a pipeline and save a deployable artifact bundle"
    )
    bundle.add_argument("--out", type=Path, required=True, help="bundle directory")
    bundle.add_argument("--scale", choices=sorted(PRESETS), default="ci")
    bundle.add_argument("--seed", type=int, default=0)
    bundle.add_argument(
        "--loss", choices=["ssim", "mse", "msssim"], default="ssim",
        help="one-class reconstruction loss (default: the paper's ssim)",
    )
    bundle.add_argument(
        "--overwrite", action="store_true", help="replace an existing bundle"
    )
    _add_dtype_arg(bundle)

    serve = sub.add_parser("serve", help="run the micro-batched inference engine")
    _add_engine_args(serve)
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8473, help="TCP port (0 = ephemeral)")
    serve.add_argument(
        "--metrics-port", type=int, default=None,
        help="also expose /metrics + /healthz on this HTTP port (0 = ephemeral)",
    )
    serve.add_argument(
        "--once", action="store_true",
        help="in-process mode: score --frames rendered frames and exit (no socket)",
    )
    serve.add_argument(
        "--frames", type=int, default=16, help="frames to score with --once"
    )

    bench = sub.add_parser(
        "bench-serve", help="load-test the engine; print throughput and latency"
    )
    _add_engine_args(bench)
    bench.add_argument("--frames", type=int, default=200, help="total requests to send")
    bench.add_argument("--clients", type=int, default=4, help="concurrent closed-loop clients")
    bench.add_argument(
        "--socket", action="store_true",
        help="drive the engine through the TCP frontend instead of in-process",
    )
    bench.add_argument(
        "--priority-mix", default=None, metavar="SPEC",
        help=(
            "split the client population across QoS classes, e.g. "
            "'critical=10,batch=90' (weights are relative); implies a "
            "default QoS policy unless --qos-config is given, and prints "
            "per-class goodput and latency"
        ),
    )
    bench.add_argument(
        "--chaos", action="store_true",
        help=(
            "inject seeded faults (latency spikes, exceptions, NaN scores, "
            "worker kills) and enable the circuit breaker + retries + "
            "fail-safe degraded verdicts (see docs/reliability.md)"
        ),
    )

    supervise = sub.add_parser(
        "supervise",
        help="run serve as a supervised, crash-recovering child process",
    )
    supervise.add_argument(
        "--bundle", type=Path, required=True,
        help="artifact bundle the child serves (required: respawns must not retrain)",
    )
    supervise.add_argument(
        "--journal-dir", type=Path, required=True, metavar="DIR",
        help="durable WAL directory the child recovers from on every respawn",
    )
    supervise.add_argument("--host", default="127.0.0.1", help="bind address")
    supervise.add_argument(
        "--port", type=int, default=8473,
        help="TCP port (must be fixed — the supervisor probes it)",
    )
    _add_dtype_arg(supervise)
    supervise.add_argument(
        "--workers", type=int, default=0,
        help="worker-pool replicas in the child (0 = score in-process)",
    )
    supervise.add_argument(
        "--telemetry", type=Path, default=None, metavar="PATH",
        help="JSONL telemetry trace for the supervisor itself (default: off)",
    )
    supervise.add_argument(
        "--heartbeat-s", type=float, default=1.0,
        help="seconds between liveness checks (poll + ping probe)",
    )
    supervise.add_argument(
        "--probe-failures", type=int, default=3,
        help="consecutive failed ping probes before a wedged child is killed",
    )
    supervise.add_argument(
        "--probe-grace-s", type=float, default=30.0,
        help="boot grace before failed probes count against the child",
    )
    supervise.add_argument(
        "--max-restarts", type=int, default=5,
        help="consecutive unhealthy restarts before the supervisor gives up",
    )
    supervise.add_argument(
        "--healthy-after-s", type=float, default=10.0,
        help="uptime at which a child counts as healthy (backoff resets)",
    )

    deploy = sub.add_parser(
        "deploy", help="manage a versioned model registry (see docs/deployment.md)"
    )
    deploy.add_argument(
        "--registry", type=Path, default=Path("out/registry"), metavar="DIR",
        help="registry directory (default: out/registry)",
    )
    deploy_sub = deploy.add_subparsers(dest="deploy_command", required=True)
    dreg = deploy_sub.add_parser("register", help="catalog a bundle as a new version")
    dreg.add_argument("bundle", type=Path, help="bundle directory to register")
    dreg.add_argument("--version", default=None, help="version name (default: auto v000N)")
    dreg.add_argument("--note", default="", help="operator annotation")
    deploy_sub.add_parser("list", help="list registered versions")
    deploy_sub.add_parser("status", help="show the serving version and history")
    dprom = deploy_sub.add_parser("promote", help="mark a version as serving")
    dprom.add_argument("version", help="version to promote")
    dprom.add_argument("--note", default="", help="operator annotation")
    droll = deploy_sub.add_parser(
        "rollback", help="revert the serving pointer to the previous version"
    )
    droll.add_argument("--reason", default="", help="why (recorded in history)")
    dret = deploy_sub.add_parser("retire", help="take a version out of rotation")
    dret.add_argument("version", help="version to retire")
    dret.add_argument("--note", default="", help="operator annotation")

    trace = sub.add_parser(
        "trace", help="render one request's span tree from a telemetry file"
    )
    trace.add_argument("trace_id", help="trace id (printed by bench-serve / in score responses)")
    trace.add_argument(
        "--file", type=Path, default=DEFAULT_SERVING_TELEMETRY, metavar="PATH",
        help="JSONL telemetry file to read (default: the serving default)",
    )

    profile = sub.add_parser(
        "profile", help="aggregate per-kernel timings from a telemetry file"
    )
    profile.add_argument(
        "--file", type=Path, default=DEFAULT_SERVING_TELEMETRY, metavar="PATH",
        help="JSONL telemetry file to read (default: the serving default)",
    )

    plan = sub.add_parser(
        "plan", help="print a pipeline's compiled stage graph with dtypes"
    )
    plan.add_argument(
        "--bundle", type=Path, default=None,
        help="artifact bundle to inspect (omit to train a fresh pipeline at --scale)",
    )
    plan.add_argument("--scale", choices=sorted(PRESETS), default="ci")
    plan.add_argument("--seed", type=int, default=0)
    _add_dtype_arg(plan)

    return parser


def _add_dtype_arg(parser: argparse.ArgumentParser) -> None:
    """The shared inference precision flag (training stays float64)."""
    parser.add_argument(
        "--dtype", choices=["float32", "float64"], default=None,
        help=(
            "inference precision policy; float32 trades a little accuracy "
            "for throughput (default: float64, or the bundle's recorded dtype)"
        ),
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``serve`` and ``bench-serve``."""
    _add_dtype_arg(parser)
    parser.add_argument(
        "--bundle", type=Path, default=None,
        help="artifact bundle to load (omit to train a fresh pipeline at --scale)",
    )
    parser.add_argument("--scale", choices=sorted(PRESETS), default="ci")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker-pool replicas (0 = score in-process; requires --bundle)",
    )
    parser.add_argument("--max-batch", type=int, default=8, help="micro-batch size cap")
    parser.add_argument(
        "--queue-capacity", type=int, default=None,
        help="bounded request queue (default: 64, or the burst size for bench-serve)",
    )
    parser.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline; queued requests past it are dropped",
    )
    parser.add_argument(
        "--qos-config", type=Path, default=None, metavar="PATH",
        help=(
            "JSON admission-control & QoS policy (priority classes, "
            "per-client rate limits, deadline shedding, AIMD concurrency "
            "limit; see docs/admission.md).  Invalid policies exit 2."
        ),
    )
    parser.add_argument(
        "--telemetry", type=Path, default=DEFAULT_SERVING_TELEMETRY, metavar="PATH",
        help=(
            "record a JSONL telemetry trace of the run "
            f"(default: {DEFAULT_SERVING_TELEMETRY}; --no-telemetry to disable)"
        ),
    )
    parser.add_argument(
        "--no-telemetry", dest="telemetry", action="store_const", const=None,
        help="disable the telemetry trace",
    )
    parser.add_argument(
        "--profile-kernels", action=argparse.BooleanOptionalAction, default=True,
        help="record per-kernel timings/FLOPs on the serving path (default: on)",
    )
    parser.add_argument(
        "--journal-dir", type=Path, default=None, metavar="DIR",
        help=(
            "durable WAL directory: journal admitted requests and component "
            "state there, and replay it on startup (crash recovery; see "
            "docs/reliability.md)"
        ),
    )
    parser.add_argument(
        "--no-journal", dest="journal_dir", action="store_const", const=None,
        help="disable state journaling (the default unless --journal-dir is set)",
    )


def _telemetry_scope(path: Optional[Path]):
    """Active telemetry session writing to ``path``, or a no-op scope."""
    if path is None:
        return contextlib.nullcontext()
    from repro.telemetry import telemetry_session

    return telemetry_session(path)


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.registry import EXPERIMENTS, run_all, run_experiment
    from repro.experiments.report import write_markdown_report

    if args.exp_id == "all":
        with _telemetry_scope(args.telemetry):
            results = run_all(args.scale, rng=args.seed, dtype=args.dtype)
    elif args.exp_id in EXPERIMENTS:
        with _telemetry_scope(args.telemetry):
            results = {
                args.exp_id: run_experiment(
                    args.exp_id, args.scale, rng=args.seed, dtype=args.dtype
                )
            }
    else:
        known = ", ".join(sorted(EXPERIMENTS))
        print(f"unknown experiment {args.exp_id!r}; known: {known}, all", file=sys.stderr)
        return 2
    if args.telemetry is not None:
        print(f"telemetry trace written to {args.telemetry}")

    for result in results.values():
        print(result.render())
        print()
    if args.markdown is not None:
        path = write_markdown_report(
            results, args.markdown, scale=get_scale(args.scale),
            title=f"Reproduction results ({args.scale} scale)",
        )
        print(f"markdown report written to {path}")
    return 0


def _dataset(name: str, image_shape):
    from repro.datasets import SyntheticIndoor, SyntheticUdacity

    cls = SyntheticUdacity if name == "dsu" else SyntheticIndoor
    return cls(image_shape)


def _cmd_render(args: argparse.Namespace) -> int:
    from repro import viz

    scale = get_scale(args.scale)
    dataset = _dataset(args.dataset, scale.image_shape)
    if args.drive:
        batch = dataset.render_drive(args.count, rng=args.seed)
    else:
        batch = dataset.render_batch(args.count, rng=args.seed)
    for i, frame in enumerate(batch.frames):
        path = viz.save_pgm(frame, args.out / f"{args.dataset}_{i:03d}.pgm")
        print(f"wrote {path}  (angle {batch.angles[i]:+.3f})")
    return 0


def _cmd_masks(args: argparse.Namespace) -> int:
    from repro import viz
    from repro.experiments.harness import Workbench
    from repro.pipeline import compute_saliency
    from repro.saliency import VisualBackProp

    scale = get_scale(args.scale)
    workbench = Workbench(scale, seed=args.seed)
    print(f"training the steering CNN on {args.dataset.upper()}...")
    model = workbench.steering_model(args.dataset)
    batch = workbench.batch(args.dataset, "test")
    frames = batch.frames[: args.count]
    masks = compute_saliency(VisualBackProp(model), frames)
    for i, (frame, mask) in enumerate(zip(frames, masks)):
        frame_path = viz.save_pgm(frame, args.out / f"{args.dataset}_{i:03d}_input.pgm")
        mask_path = viz.save_pgm(mask, args.out / f"{args.dataset}_{i:03d}_mask.pgm")
        overlay_path = viz.save_overlay_ppm(
            frame, mask, args.out / f"{args.dataset}_{i:03d}_overlay.ppm"
        )
        print(f"wrote {frame_path}, {mask_path}, {overlay_path}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.experiments.harness import Workbench
    from repro.novelty import SaliencyNoveltyPipeline, evaluate_detector

    scale = get_scale(args.scale)
    with _telemetry_scope(args.telemetry):
        workbench = Workbench(scale, seed=args.seed)
        print("training the steering CNN...")
        model = workbench.steering_model("dsu")
        print("fitting the proposed detector (VBP + SSIM autoencoder)...")
        pipeline = SaliencyNoveltyPipeline(
            model, scale.image_shape, loss="ssim",
            config=workbench.autoencoder_config(), rng=args.seed,
        )
        pipeline.fit(workbench.batch("dsu", "train").frames)
        if args.dtype is not None:
            print(f"scoring with the {args.dtype} inference policy")
            pipeline.set_inference_dtype(args.dtype)
        result = evaluate_detector(
            pipeline,
            workbench.batch("dsu", "test").frames,
            workbench.batch("dsi", "novel").frames,
            name="VBP+SSIM (proposed)",
        )
    print()
    print(result.summary_row())
    if args.telemetry is not None:
        print(f"telemetry trace written to {args.telemetry}")
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.exceptions import SerializationError
    from repro.telemetry import render_jsonl_report

    try:
        print(render_jsonl_report(args.trace))
    except SerializationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _train_pipeline(scale_name: str, seed: int, loss: str = "ssim"):
    """Train the proposed pipeline at a preset scale (serve/bundle helper)."""
    from repro.experiments.harness import Workbench
    from repro.novelty import SaliencyNoveltyPipeline

    scale = get_scale(scale_name)
    workbench = Workbench(scale, seed=seed)
    print(f"training the steering CNN ({scale_name} scale)...")
    model = workbench.steering_model("dsu")
    print(f"fitting the detector (VBP + {loss.upper()} autoencoder)...")
    pipeline = SaliencyNoveltyPipeline(
        model, scale.image_shape, loss=loss,
        config=workbench.autoencoder_config(), rng=seed,
    )
    pipeline.fit(workbench.batch("dsu", "train").frames)
    return pipeline


def _build_engine(args: argparse.Namespace, default_capacity: int = 64):
    """Engine (+ its pipeline's image shape) from serve/bench-serve flags."""
    from repro.serving import EngineConfig, PipelineScorer, ServingEngine, WorkerPool, load_bundle

    if args.workers > 0 and args.bundle is None:
        raise SystemExit("--workers requires --bundle (replicas load it from disk)")
    # Validate the QoS policy before any expensive load/train work so a
    # malformed --qos-config fails in milliseconds, not after training.
    qos = None
    if getattr(args, "qos_config", None) is not None:
        from repro.serving import load_qos_policy

        qos = load_qos_policy(args.qos_config)
        classes = ", ".join(
            f"{name}(w={spec.weight:g})" for name, spec in qos.classes.items()
        )
        print(f"qos policy {args.qos_config}: {classes}")
    elif getattr(args, "priority_mix", None) is not None:
        from repro.serving import QosPolicy

        qos = QosPolicy.default()
        print("qos policy: default (critical=16 interactive=4 batch=1)")
    if args.bundle is not None:
        bundle = load_bundle(args.bundle)
        image_shape = bundle.image_shape
        print(f"loaded bundle {args.bundle} (threshold {bundle.threshold:.4g})")
        if args.workers > 0:
            scorer = WorkerPool(
                args.bundle, workers=args.workers, dtype=args.dtype,
                profile_kernels=getattr(args, "profile_kernels", False),
            )
            print(f"started {args.workers} worker replicas ({scorer.dtype.name})")
        else:
            if args.dtype is not None:
                bundle.pipeline.set_inference_dtype(args.dtype)
            scorer = PipelineScorer(bundle.pipeline)
    else:
        pipeline = _train_pipeline(args.scale, args.seed)
        if args.dtype is not None:
            pipeline.set_inference_dtype(args.dtype)
        image_shape = pipeline.image_shape
        scorer = PipelineScorer(pipeline)
    reliability = {}
    if getattr(args, "chaos", False):
        from repro.reliability import (
            BreakerConfig,
            FaultInjector,
            FaultSchedule,
            RetryPolicy,
        )

        rates = {"latency": 0.05, "exception": 0.05, "nan_scores": 0.05}
        if args.workers > 0:
            rates["kill_worker"] = 0.02
        schedule = FaultSchedule.random(
            length=max(64, args.frames), rates=rates, seed=args.seed
        )
        scorer = FaultInjector(scorer, schedule, latency_ms=25.0)
        print(f"chaos: scheduled faults {schedule.counts()} (seed {args.seed})")
        reliability = {
            "retry": RetryPolicy(max_attempts=3, base_delay_s=0.005, seed=args.seed),
            "breaker": BreakerConfig(
                window=16, min_calls=4, failure_threshold=0.5,
                reset_timeout_s=0.5, half_open_probes=2,
            ),
            "fail_safe": "novel",
        }
    config = EngineConfig(
        max_batch_size=args.max_batch,
        queue_capacity=args.queue_capacity or default_capacity,
        default_deadline_ms=args.deadline_ms,
        qos=qos,
        **reliability,
    )
    return ServingEngine(scorer, config), image_shape


def _render_stream(image_shape, n_frames: int, seed: int):
    """A temporally coherent drive to feed the engine (dsu surrogate)."""
    from repro.datasets import SyntheticUdacity

    return SyntheticUdacity(image_shape).render_drive(n_frames, rng=seed).frames


def _cmd_bundle(args: argparse.Namespace) -> int:
    from repro.exceptions import ArtifactError
    from repro.serving import manifest_sha256, read_manifest, save_bundle

    pipeline = _train_pipeline(args.scale, args.seed, loss=args.loss)
    if args.dtype is not None:
        pipeline.set_inference_dtype(args.dtype)
    try:
        path = save_bundle(pipeline, args.out, overwrite=args.overwrite)
    except ArtifactError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    threshold = pipeline.one_class.detector.threshold
    manifest = read_manifest(path)
    print(f"bundle written to {path}")
    print(
        f"  image_shape={pipeline.image_shape}  loss={args.loss}  "
        f"threshold={threshold:.4g}  dtype={pipeline.dtype.name}"
    )
    # Both identity hashes, so registrations can be scripted and diffed:
    # config_hash names the configuration, manifest_sha256 this artifact.
    print(f"  config_hash={manifest['config_hash']}")
    print(f"  manifest_sha256={manifest_sha256(path)}")
    return 0


def _kernel_profiler_scope(args: argparse.Namespace):
    """Enable the kernel profiler for the serving phase (not training)."""
    if not getattr(args, "profile_kernels", False):
        return contextlib.nullcontext()
    from repro.nn.backend import kernel_profile

    return kernel_profile()


def _print_trace_hint(engine, telemetry: Optional[Path]) -> None:
    """Point at one captured request tree, if tracing recorded any."""
    if telemetry is None:
        return
    trace_id = engine.stats().get("last_trace_id")
    if trace_id:
        print(f"inspect one request: repro trace {trace_id} --file {telemetry}")


def _print_engine_latency(engine) -> None:
    stats = engine.stats()
    latency = stats["latency_ms"]
    print(
        f"latency (ms): p50={latency['p50']:.2f} p95={latency['p95']:.2f} "
        f"p99={latency['p99']:.2f} max={latency['max']:.2f}"
    )
    print(
        f"batches={stats['batches']}  mean_batch_size="
        f"{stats.get('mean_batch_size', 0):.2f}  rejected={stats['rejected']}"
    )


def _recover_journal(journal_dir: Optional[Path]):
    """Recover prior state from ``--journal-dir`` and reopen the journal.

    Returns ``(report, journal)`` — both ``None`` when journaling is off.
    Raises :class:`~repro.exceptions.JournalError` when the directory is
    unwritable (callers map that to exit code 2).
    """
    if journal_dir is None:
        return None, None
    report, journal = _probe_journal(journal_dir)
    summary = report.summary()
    print(
        f"journal {journal_dir}: recovered seq {summary['last_seq']} "
        f"(snapshot seq {summary['snapshot_seq']}, "
        f"{summary['replayed_records']} replayed record(s))"
    )
    if summary["truncated_bytes"]:
        print(f"journal: truncated {summary['truncated_bytes']} torn tail byte(s)")
    if summary["quarantined"]:
        names = ", ".join(summary["quarantined"])
        print(f"journal: quarantined corrupt segment(s): {names}", file=sys.stderr)
    return report, journal


def _probe_journal(journal_dir: Path):
    """recover + open + prove the directory is actually appendable."""
    from repro.durability import recover_and_open

    report, journal = recover_and_open(journal_dir)
    try:
        # A read-only directory survives ``mkdir(exist_ok=True)``; the
        # first append is what actually fails, so force one now rather
        # than dying mid-serve.
        journal.append("boot", {"argv": [str(part) for part in sys.argv[1:]]})
    except Exception:
        journal.close()
        raise
    return report, journal


def _wire_journal(engine, report, journal):
    """Attach the recovered ledger (and breaker state) to a built engine.

    Returns the :class:`~repro.durability.StateJournal` to snapshot on
    shutdown, or ``None`` when journaling is off.
    """
    if journal is None:
        return None
    from repro.durability import RequestLedger, StateJournal

    state_journal = StateJournal(journal)
    ledger = RequestLedger(journal, next_id=report.ledger.get("next_id", 1))
    state_journal.register("ledger", ledger)
    unresolved = report.unresolved_requests
    if unresolved:
        # Their clients are gone; report them failed rather than letting
        # them look in-flight forever (and recount on every recovery).
        ledger.resolve_crashed(unresolved)
        print(
            f"recovery: {len(unresolved)} request(s) were in flight at the "
            "crash; reported as failed"
        )
    if engine.breaker is not None:
        state_journal.register("breaker", engine.breaker)
        breaker_state = report.states.get("breaker")
        if breaker_state is not None:
            engine.breaker.load_state_dict(breaker_state)
            print(f"recovery: circuit breaker restored ({engine.breaker.state})")
        engine.breaker.attach_journal(state_journal.sink("breaker"))
    if getattr(engine, "admission", None) is not None:
        state_journal.register("admission", engine.admission)
        admission_state = report.states.get("admission")
        if admission_state is not None:
            engine.admission.load_state_dict(admission_state)
            buckets = len(admission_state.get("buckets", {}))
            print(
                f"recovery: admission state restored "
                f"({buckets} client quota(s), "
                f"concurrency limit {engine.admission.stats().get('concurrency_limit', 'off')})"
            )
    engine.attach_ledger(ledger)
    return state_journal


def _close_journal(state_journal, journal) -> None:
    """Snapshot component state and seal the journal on clean shutdown."""
    if journal is None:
        return
    from repro.exceptions import JournalError

    try:
        if state_journal is not None:
            state_journal.snapshot()
    except JournalError as exc:
        # A failed shutdown snapshot is recoverable (the WAL tail still
        # replays); don't mask the serve path's own exit.
        print(f"warning: shutdown snapshot failed: {exc}", file=sys.stderr)
    finally:
        journal.close()


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.exceptions import ArtifactError, ConfigurationError, JournalError

    with _telemetry_scope(args.telemetry):
        try:
            report, journal = _recover_journal(args.journal_dir)
        except JournalError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        try:
            engine, image_shape = _build_engine(
                args, default_capacity=max(64, args.frames if args.once else 64)
            )
        except (ArtifactError, ConfigurationError) as exc:
            if journal is not None:
                journal.close()
            print(str(exc), file=sys.stderr)
            return 2
        state_journal = _wire_journal(engine, report, journal)
        metrics_server = contextlib.nullcontext()
        if args.metrics_port is not None:
            from repro.telemetry import MetricsRegistry, MetricsServer, get_telemetry

            telem = get_telemetry()
            registry = telem.registry if telem.enabled else MetricsRegistry()

            def _health():
                stats = engine.stats()
                return {
                    "healthy": True,
                    "submitted": stats.get("submitted", 0),
                    "rejected": stats.get("rejected", 0),
                }

            metrics_server = MetricsServer(
                registry, health=_health, host=args.host, port=args.metrics_port
            )
        try:
            # The profiler scope starts here so training kernels (when no
            # --bundle was given) stay out of the serving profile.
            with metrics_server, _kernel_profiler_scope(args):
                url = getattr(metrics_server, "url", None)
                if url:
                    print(f"metrics at {url}/metrics (health at {url}/healthz)")
                if args.once:
                    frames = _render_stream(image_shape, args.frames, args.seed)
                    outcomes = engine.infer_many(frames)
                    novel = sum(o.status == "ok" and o.is_novel for o in outcomes)
                    ok = sum(o.status == "ok" for o in outcomes)
                    print(f"scored {ok}/{len(outcomes)} frames ({novel} flagged novel)")
                    _print_engine_latency(engine)
                    _print_trace_hint(engine, args.telemetry)
                else:
                    from repro.serving import ServingServer

                    recovery_info = None if report is None else report.summary()
                    with ServingServer(
                        engine, host=args.host, port=args.port,
                        recovery_info=recovery_info,
                    ) as server:
                        host, port = server.address
                        print(f"serving on {host}:{port} (ctrl-c to stop)")
                        try:
                            while True:
                                time.sleep(1.0)
                        except KeyboardInterrupt:
                            print("\nshutting down")
        finally:
            engine.close()
            _close_journal(state_journal, journal)
    if args.telemetry is not None:
        print(f"telemetry trace written to {args.telemetry}")
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.exceptions import ArtifactError, ConfigurationError, JournalError
    from repro.serving import parse_priority_mix, run_load, run_mixed_load

    mix = None
    if args.priority_mix is not None:
        try:
            mix = parse_priority_mix(args.priority_mix)
        except ConfigurationError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    with _telemetry_scope(args.telemetry):
        try:
            report, journal = _recover_journal(args.journal_dir)
        except JournalError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        try:
            engine, image_shape = _build_engine(
                args, default_capacity=max(64, args.frames)
            )
        except (ArtifactError, ConfigurationError) as exc:
            if journal is not None:
                journal.close()
            print(str(exc), file=sys.stderr)
            return 2
        state_journal = _wire_journal(engine, report, journal)
        try:
            # Profiling starts after the engine is built so a freshly
            # trained pipeline's training kernels stay out of the profile.
            with _kernel_profiler_scope(args):
                frames = _render_stream(image_shape, min(args.frames, 512), args.seed)
                workload = [frames[i % len(frames)] for i in range(args.frames)]
                # Warm caches so the report measures steady state, not
                # first-call allocation.
                engine.infer(workload[0])
                if args.socket:
                    from repro.serving import ServingClient, ServingServer

                    with ServingServer(engine) as server:
                        host, port = server.address
                        print(f"load-testing over the socket frontend at {host}:{port}")
                        clients = [
                            ServingClient(host, port) for _ in range(max(1, args.clients))
                        ]
                        try:
                            cursor = {"next": 0}
                            import threading as _threading

                            lock = _threading.Lock()

                            def _next_client(_clients=clients, _lock=lock, _cursor=cursor):
                                with _lock:
                                    client = _clients[_cursor["next"] % len(_clients)]
                                    _cursor["next"] += 1
                                return client

                            if mix is not None:
                                report = run_mixed_load(
                                    lambda frame, qos_class, client_id: _next_client().score(
                                        frame, client_id=client_id, priority=qos_class
                                    ),
                                    workload,
                                    mix,
                                    clients=args.clients,
                                )
                            else:
                                report = run_load(
                                    lambda frame: _next_client().score(frame),
                                    workload,
                                    clients=args.clients,
                                )
                        finally:
                            for client in clients:
                                client.close()
                elif mix is not None:
                    report = run_mixed_load(
                        lambda frame, qos_class, client_id: engine.infer(
                            frame, qos_class=qos_class, client_id=client_id
                        ),
                        workload,
                        mix,
                        clients=args.clients,
                    )
                else:
                    report = run_load(
                        lambda frame: engine.infer(frame), workload, clients=args.clients
                    )
                print(report.render())
                admission_stats = engine.stats().get("admission")
                if admission_stats is not None:
                    rejected = admission_stats.get("rejected", {})
                    rejected_line = (
                        ", ".join(f"{k}={v}" for k, v in sorted(rejected.items()))
                        if rejected
                        else "none"
                    )
                    print(
                        f"admission: {admission_stats['admitted']} admitted, "
                        f"rejected: {rejected_line}, concurrency limit "
                        f"{admission_stats['concurrency_limit']}, "
                        f"service time {admission_stats['service_time_ms_per_frame']:.3f} "
                        f"ms/frame"
                    )
                _print_engine_latency(engine)
                _print_trace_hint(engine, args.telemetry)
                if getattr(args, "chaos", False):
                    stats = engine.stats()
                    print(
                        f"chaos: injected faults {engine.scorer.injected()} over "
                        f"{engine.scorer.calls} scorer calls"
                    )
                    print(
                        f"chaos: degraded={stats['degraded']} retries={stats['retries']} "
                        f"breaker={stats.get('breaker', {}).get('state', 'off')}"
                    )
                if journal is not None:
                    ledger_stats = engine.stats().get("ledger", {})
                    print(
                        f"journal: {ledger_stats.get('admitted', '?')} admitted, "
                        f"{ledger_stats.get('outstanding', '?')} outstanding at exit"
                    )
        finally:
            engine.close()
            _close_journal(state_journal, journal)
    if args.telemetry is not None:
        print(f"telemetry trace written to {args.telemetry}")
    return 0


def _cmd_supervise(args: argparse.Namespace) -> int:
    from repro.durability import Supervisor, SupervisorConfig, tcp_ping_probe
    from repro.exceptions import ConfigurationError, JournalError

    if args.port == 0:
        print("supervise needs a fixed --port (the probe must find the child)",
              file=sys.stderr)
        return 2
    if not args.bundle.exists():
        print(f"bundle {args.bundle} does not exist", file=sys.stderr)
        return 2
    try:
        # Fail fast on an unwritable journal dir — the alternative is a
        # child that crashes at boot in a restart loop.
        _, probe_journal = _probe_journal(args.journal_dir)
        probe_journal.close()
    except JournalError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    command = [
        sys.executable, "-m", "repro", "serve",
        "--bundle", str(args.bundle),
        "--host", args.host,
        "--port", str(args.port),
        "--journal-dir", str(args.journal_dir),
    ]
    if args.dtype is not None:
        command += ["--dtype", args.dtype]
    if args.workers:
        command += ["--workers", str(args.workers)]

    try:
        config = SupervisorConfig(
            heartbeat_interval_s=args.heartbeat_s,
            probe_failures_to_kill=args.probe_failures,
            probe_grace_s=args.probe_grace_s,
            max_restarts=args.max_restarts,
            healthy_after_s=args.healthy_after_s,
        )
    except ConfigurationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    supervisor = Supervisor(
        command,
        probe=tcp_ping_probe(args.host, args.port),
        config=config,
    )
    print(f"supervising: {' '.join(command)}")
    print(f"journal at {args.journal_dir}; ctrl-c stops supervisor and child")
    with _telemetry_scope(args.telemetry):
        try:
            stats = supervisor.run()
        except KeyboardInterrupt:
            print("\nstopping supervisor")
            supervisor.shutdown()
            stats = supervisor.stats()
    print(
        f"supervisor done: restarts={stats['restarts']} "
        f"exit_codes={stats['exit_codes']} gave_up={stats['gave_up']}"
    )
    return 1 if stats["gave_up"] else 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    from repro.deploy import ModelRegistry
    from repro.exceptions import ArtifactError, DeploymentError

    registry = ModelRegistry(args.registry)
    try:
        if args.deploy_command == "register":
            entry = registry.register(args.bundle, version=args.version, note=args.note)
            print(f"registered {entry.version} -> {entry.path}")
            print(f"  config_hash={entry.config_hash}")
            print(f"  manifest_sha256={entry.manifest_sha256}")
        elif args.deploy_command == "list":
            entries = registry.list()
            if not entries:
                print(f"no versions registered in {args.registry}")
                return 0
            for entry in entries:
                note = f"  # {entry.note}" if entry.note else ""
                print(
                    f"{entry.version:<12} {entry.status:<12} "
                    f"{entry.config_hash[:12]}  {entry.path}{note}"
                )
        elif args.deploy_command == "status":
            serving = registry.serving()
            if serving is None:
                print("serving: none")
            else:
                print(f"serving: {serving.version} (config {serving.config_hash[:12]})")
            history = registry.history()
            for event in history[-10:]:
                fields = {
                    k: v for k, v in event.items()
                    if k not in ("unix", "action", "version") and v not in (None, "")
                }
                extra = "  " + " ".join(f"{k}={v}" for k, v in fields.items()) if fields else ""
                print(f"  {event['action']:<10} {event.get('version')}{extra}")
        elif args.deploy_command == "promote":
            entry = registry.promote(args.version, note=args.note)
            print(f"promoted {entry.version} to serving")
        elif args.deploy_command == "rollback":
            entry = registry.rollback(reason=args.reason)
            print(f"rolled back; serving is now {entry.version}")
        else:  # retire
            entry = registry.retire(args.version, note=args.note)
            print(f"retired {entry.version}")
    except (ArtifactError, DeploymentError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _read_span_file(path: Path):
    """Load one telemetry JSONL file, with a friendly error on absence.

    Tolerant of crash-truncated traces: corrupt lines are skipped with a
    stderr warning so ``repro trace`` / ``repro profile`` still render
    what a killed serving process managed to flush.
    """
    from repro.exceptions import SerializationError
    from repro.telemetry import read_events_tolerant

    if not path.exists():
        raise SerializationError(
            f"no telemetry file at {path}; run `repro bench-serve` or "
            "`repro serve` first (they record there by default)"
        )
    records, skipped = read_events_tolerant(path)
    if skipped:
        print(
            f"warning: skipped {skipped} corrupt/truncated line(s) in {path}",
            file=sys.stderr,
        )
    return records


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.exceptions import ConfigurationError, SerializationError
    from repro.telemetry import render_trace_tree

    try:
        records = _read_span_file(args.file)
        print(render_trace_tree(records, args.trace_id))
    except (ConfigurationError, SerializationError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.exceptions import SerializationError
    from repro.nn.backend import render_profile_table
    from repro.telemetry import summarize_kernel_spans

    try:
        records = _read_span_file(args.file)
    except SerializationError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    rows = summarize_kernel_spans(records)
    if not rows:
        print(f"no kernel.* spans in {args.file} (was --profile-kernels off?)")
        return 0
    print(render_profile_table(rows))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    if args.bundle is not None:
        from repro.serving import load_bundle

        bundle = load_bundle(args.bundle)
        pipeline = bundle.pipeline
        print(f"loaded bundle {args.bundle}")
    else:
        pipeline = _train_pipeline(args.scale, args.seed)
    if args.dtype is not None:
        pipeline.set_inference_dtype(args.dtype)
    print(pipeline.plan.describe())
    return 0


_COMMANDS = {
    "experiment": _cmd_experiment,
    "render": _cmd_render,
    "masks": _cmd_masks,
    "demo": _cmd_demo,
    "telemetry": _cmd_telemetry,
    "bundle": _cmd_bundle,
    "serve": _cmd_serve,
    "bench-serve": _cmd_bench_serve,
    "supervise": _cmd_supervise,
    "deploy": _cmd_deploy,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "plan": _cmd_plan,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
