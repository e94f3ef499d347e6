"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment", "fig3"])
        assert args.exp_id == "fig3"
        assert args.scale == "bench"
        assert args.seed == 0

    def test_render_args(self, tmp_path):
        args = build_parser().parse_args(
            ["render", "dsi", "--count", "2", "--out", str(tmp_path), "--drive"]
        )
        assert args.dataset == "dsi"
        assert args.count == 2
        assert args.drive

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig3", "--scale", "huge"])

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "mnist"])


class TestCommands:
    def test_experiment_fig3(self, capsys):
        exit_code = main(["experiment", "fig3", "--scale", "ci"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "fig3" in out
        assert "SSIM" in out

    def test_experiment_unknown_id(self, capsys):
        exit_code = main(["experiment", "fig99", "--scale", "ci"])
        assert exit_code == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_render_writes_pgms(self, tmp_path, capsys):
        exit_code = main([
            "render", "dsu", "--count", "2", "--scale", "ci", "--out", str(tmp_path)
        ])
        assert exit_code == 0
        assert len(list(tmp_path.glob("dsu_*.pgm"))) == 2

    def test_render_drive_mode(self, tmp_path):
        exit_code = main([
            "render", "dsi", "--count", "3", "--scale", "ci",
            "--out", str(tmp_path), "--drive",
        ])
        assert exit_code == 0
        assert len(list(tmp_path.glob("dsi_*.pgm"))) == 3

    def test_rendered_pgm_is_loadable(self, tmp_path):
        from repro import viz
        from repro.config import CI

        main(["render", "dsu", "--count", "1", "--scale", "ci", "--out", str(tmp_path)])
        image = viz.load_pgm(next(tmp_path.glob("*.pgm")))
        assert image.shape == CI.image_shape


class TestMarkdownReport:
    def test_experiment_with_markdown(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        exit_code = main(["experiment", "fig3", "--scale", "ci", "--markdown", str(out)])
        assert exit_code == 0
        text = out.read_text()
        assert "# Reproduction results (ci scale)" in text
        assert "fig3" in text
        assert "| ssim_noise |" in text

    def test_markdown_mentions_artifact(self, tmp_path):
        out = tmp_path / "r.md"
        main(["experiment", "fig3", "--scale", "ci", "--markdown", str(out)])
        assert "Figure 3" in out.read_text()


class TestExperimentAll:
    def test_runs_all_registered(self, monkeypatch, capsys, tmp_path):
        """'experiment all' iterates the registry; shrink it to two cheap
        entries so the CLI path is covered without bench-scale cost."""
        import repro.experiments.registry as registry

        small = {
            "fig3": registry.EXPERIMENTS["fig3"],
            "timing": registry.EXPERIMENTS["timing"],
        }
        monkeypatch.setattr(registry, "EXPERIMENTS", small)
        out_md = tmp_path / "all.md"
        exit_code = main([
            "experiment", "all", "--scale", "ci", "--markdown", str(out_md)
        ])
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "fig3" in captured and "timing" in captured
        text = out_md.read_text()
        assert "## fig3" in text and "## timing" in text


class TestMasksCommand:
    def test_exports_mask_triples(self, tmp_path, capsys):
        exit_code = main([
            "masks", "dsu", "--count", "2", "--scale", "ci", "--out", str(tmp_path)
        ])
        assert exit_code == 0
        assert len(list(tmp_path.glob("*_input.pgm"))) == 2
        assert len(list(tmp_path.glob("*_mask.pgm"))) == 2
        assert len(list(tmp_path.glob("*_overlay.ppm"))) == 2


class TestDemoCommand:
    def test_demo_runs_at_ci_scale(self, capsys):
        exit_code = main(["demo", "--scale", "ci"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "VBP+SSIM (proposed)" in out
        assert "AUROC" in out


class TestServingParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.bundle is None
        assert args.workers == 0
        assert args.max_batch == 8
        assert not args.once

    @pytest.mark.parametrize("command", ["serve", "bench-serve"])
    def test_batch_window_flag_is_gone(self, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "--max-wait-ms", "2"])
        assert exc.value.code == 2

    def test_bench_serve_defaults(self):
        args = build_parser().parse_args(["bench-serve"])
        assert args.frames == 200
        assert args.clients == 4
        assert not args.socket

    def test_bundle_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bundle"])

    def test_journal_flags(self, tmp_path):
        args = build_parser().parse_args(["serve"])
        assert args.journal_dir is None  # journaling is opt-in
        args = build_parser().parse_args(
            ["serve", "--journal-dir", str(tmp_path / "j")]
        )
        assert args.journal_dir == tmp_path / "j"
        args = build_parser().parse_args(
            ["bench-serve", "--journal-dir", str(tmp_path / "j"), "--no-journal"]
        )
        assert args.journal_dir is None  # --no-journal wins

    def test_supervise_requires_bundle_and_journal(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["supervise"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["supervise", "--bundle", "b"])


class TestServeCommand:
    def test_serve_once_in_process(self, capsys):
        """The no-socket smoke path: train at CI scale, score a small
        rendered stream, print latency percentiles."""
        exit_code = main(["serve", "--once", "--frames", "4", "--scale", "ci"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "scored 4/4 frames" in out
        assert "p50=" in out and "p99=" in out

    def test_serve_workers_without_bundle_rejected(self):
        with pytest.raises(SystemExit):
            main(["serve", "--once", "--workers", "2", "--scale", "ci"])

    def test_missing_bundle_exits_cleanly(self, tmp_path, capsys):
        exit_code = main([
            "bench-serve", "--bundle", str(tmp_path / "absent"), "--frames", "4"
        ])
        assert exit_code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_unusable_journal_dir_exits_2(self, tmp_path, capsys):
        """A journal path that cannot be a directory is a startup error,
        not a crash loop (validated before any training or bundle load)."""
        blocker = tmp_path / "blocker"
        blocker.write_text("a regular file")
        exit_code = main([
            "serve", "--once", "--frames", "2", "--scale", "ci",
            "--journal-dir", str(blocker / "journal"),
        ])
        assert exit_code == 2
        assert "journal" in capsys.readouterr().err

    def test_non_finite_qos_policy_exits_2(self, tmp_path, capsys):
        policy = tmp_path / "qos.json"
        policy.write_text('{"estimator_window": NaN}')
        exit_code = main([
            "serve", "--once", "--frames", "2", "--scale", "ci",
            "--qos-config", str(policy), "--no-telemetry",
        ])
        assert exit_code == 2
        assert "estimator_window must be finite" in capsys.readouterr().err

    def test_serve_once_with_journal_recovers_on_second_boot(
        self, tmp_path, capsys
    ):
        journal_dir = tmp_path / "journal"
        assert main([
            "serve", "--once", "--frames", "2", "--scale", "ci",
            "--journal-dir", str(journal_dir),
        ]) == 0
        capsys.readouterr()
        assert main([
            "serve", "--once", "--frames", "2", "--scale", "ci",
            "--journal-dir", str(journal_dir),
        ]) == 0
        out = capsys.readouterr().out
        # The second boot found the first run's shutdown snapshot.
        assert "recovered seq" in out
        assert "snapshot seq 0" not in out

    def test_supervise_validates_before_spawning(self, tmp_path, capsys):
        bundle = tmp_path / "no-bundle"
        exit_code = main([
            "supervise", "--bundle", str(bundle),
            "--journal-dir", str(tmp_path / "journal"),
        ])
        assert exit_code == 2
        assert "bundle" in capsys.readouterr().err

        blocker = tmp_path / "blocker"
        blocker.write_text("")
        bundle.mkdir()
        exit_code = main([
            "supervise", "--bundle", str(bundle),
            "--journal-dir", str(blocker / "journal"),
        ])
        assert exit_code == 2
        assert "journal" in capsys.readouterr().err


class TestBundleAndBenchServe:
    def test_bundle_then_bench_serve(self, bundle_dir, capsys):
        """Acceptance path: bench-serve against a repro-trained bundle
        reports throughput and latency percentiles."""
        exit_code = main([
            "bench-serve", "--bundle", str(bundle_dir),
            "--frames", "24", "--clients", "2",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "loaded bundle" in out
        assert "throughput" in out
        assert "p99" in out

    def test_bundle_command_writes_bundle(self, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        exit_code = main(["bundle", "--out", str(out_dir), "--scale", "ci"])
        assert exit_code == 0
        assert (out_dir / "manifest.json").exists()
        assert "bundle written" in capsys.readouterr().out

        from repro.serving import load_bundle

        assert load_bundle(out_dir).image_shape == (24, 64)


class TestDeployCommand:
    def test_parser_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy"])

    def test_register_list_promote_rollback(self, bundle_dir, tmp_path, capsys):
        """The operator loop from docs/deployment.md, end to end."""
        import time

        from repro.serving import save_bundle

        registry = str(tmp_path / "registry")
        assert main(["deploy", "--registry", registry, "register", str(bundle_dir)]) == 0
        out = capsys.readouterr().out
        assert "registered v0001" in out
        assert "config_hash=sha256:" in out
        assert "manifest_sha256=sha256:" in out

        # A second distinct artifact of the same pipeline.
        from repro.serving import load_bundle

        time.sleep(0.01)
        second = save_bundle(load_bundle(bundle_dir).pipeline, tmp_path / "b2")
        assert main(["deploy", "--registry", registry, "register", str(second)]) == 0
        capsys.readouterr()

        assert main(["deploy", "--registry", registry, "list"]) == 0
        out = capsys.readouterr().out
        assert "v0001" in out and "v0002" in out

        assert main(["deploy", "--registry", registry, "promote", "v0001"]) == 0
        assert main(["deploy", "--registry", registry, "promote", "v0002"]) == 0
        capsys.readouterr()
        assert main(["deploy", "--registry", registry, "status"]) == 0
        out = capsys.readouterr().out
        assert "serving: v0002" in out
        assert "promote" in out

        assert main([
            "deploy", "--registry", registry, "rollback", "--reason", "bad canary"
        ]) == 0
        out = capsys.readouterr().out
        assert "serving is now v0001" in out

    def test_errors_exit_2_with_a_message(self, tmp_path, capsys):
        registry = str(tmp_path / "registry")
        assert main([
            "deploy", "--registry", registry, "register", str(tmp_path / "absent")
        ]) == 2
        assert "not a directory" in capsys.readouterr().err
        assert main(["deploy", "--registry", registry, "promote", "v0001"]) == 2
        assert "unknown version" in capsys.readouterr().err
        assert main(["deploy", "--registry", registry, "rollback"]) == 2
        assert "nothing is serving" in capsys.readouterr().err

    def test_empty_registry_lists_cleanly(self, tmp_path, capsys):
        assert main(["deploy", "--registry", str(tmp_path / "r"), "list"]) == 0
        assert "no versions registered" in capsys.readouterr().out

    def test_bundle_prints_both_hashes(self, tmp_path, capsys):
        """`repro bundle` prints the identity hashes registrations key on."""
        out_dir = tmp_path / "bundle"
        assert main(["bundle", "--out", str(out_dir), "--scale", "ci"]) == 0
        out = capsys.readouterr().out
        assert "config_hash=sha256:" in out
        assert "manifest_sha256=sha256:" in out

        from repro.serving import manifest_sha256, read_manifest

        assert read_manifest(out_dir)["config_hash"] in out
        assert manifest_sha256(out_dir) in out


class TestTelemetryCommand:
    def test_parser_accepts_telemetry_flag(self, tmp_path):
        args = build_parser().parse_args(
            ["experiment", "latency", "--telemetry", str(tmp_path / "t.jsonl")]
        )
        assert args.telemetry == tmp_path / "t.jsonl"

    def test_experiment_writes_trace_and_report_renders(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        exit_code = main(
            ["experiment", "latency", "--scale", "ci", "--telemetry", str(trace)]
        )
        assert exit_code == 0
        assert trace.exists()
        assert "telemetry trace written" in capsys.readouterr().out

        # The backend is restored after the run...
        from repro.telemetry import get_telemetry

        assert get_telemetry().enabled is False

        # ...and the trace contains per-frame scoring spans plus the score
        # histogram with percentile summaries.
        exit_code = main(["telemetry", str(trace)])
        assert exit_code == 0
        report = capsys.readouterr().out
        assert "monitor.frame" in report
        assert "pipeline.score" in report
        assert "monitor.score" in report
        assert "p50" in report and "p95" in report and "p99" in report

    def test_telemetry_command_on_missing_trace(self, tmp_path, capsys):
        exit_code = main(["telemetry", str(tmp_path / "absent.jsonl")])
        assert exit_code == 2
        assert "does not exist" in capsys.readouterr().err


class TestDtypeFlag:
    @pytest.mark.parametrize(
        "command",
        [
            ["experiment", "fig3"],
            ["demo"],
            ["bundle", "--out", "b"],
            ["serve"],
            ["bench-serve"],
        ],
        ids=lambda c: c[0],
    )
    def test_dtype_accepted_and_defaults_to_none(self, command):
        assert build_parser().parse_args(command).dtype is None
        args = build_parser().parse_args(command + ["--dtype", "float32"])
        assert args.dtype == "float32"

    @pytest.mark.parametrize("command", ["experiment", "demo", "bundle", "serve"])
    def test_bad_dtype_exits_2(self, command, capsys):
        argv = {"experiment": ["experiment", "fig3"], "bundle": ["bundle", "--out", "b"]}
        with pytest.raises(SystemExit) as excinfo:
            main(argv.get(command, [command]) + ["--dtype", "float16"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_demo_float32_runs(self, capsys):
        exit_code = main(["demo", "--scale", "ci", "--dtype", "float32"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "float32 inference policy" in out
        assert "AUROC" in out
