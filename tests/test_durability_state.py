"""Durable state adapters: components ↔ journal ↔ recovery.

Every stateful runtime component (monitor, sanitizer, breaker, drift
trackers, rollout controller, request ledger) exposes
``state_dict()/load_state_dict()``; these tests pin the roundtrip
semantics, the config-mismatch refusals, and the
:class:`~repro.durability.RecoveryManager` path that folds a journal
directory back into live components after a crash.
"""

import time

import numpy as np
import pytest

from repro.durability import (
    Journal,
    RecoveryManager,
    RequestLedger,
    StateJournal,
    fold_ledger,
    recover_and_open,
)
from repro.exceptions import JournalError, StateRestoreError
from repro.novelty import StreamMonitor
from repro.novelty.drift import CusumDetector, EwmaTracker
from repro.reliability import BreakerConfig, CircuitBreaker, FrameSanitizer


# -- request ledger ----------------------------------------------------------


class TestRequestLedger:
    def test_admit_resolve_cycle(self, tmp_path):
        with Journal(tmp_path / "j") as journal:
            ledger = RequestLedger(journal)
            rid = ledger.admit()
            assert rid == 1 and ledger.outstanding == [1]
            ledger.resolve(rid, "ok")
            assert ledger.outstanding == []
            ledger.resolve(rid, "ok")  # double-resolve is a no-op
            assert ledger.stats() == {
                "admitted": 1, "resolved": 1, "outstanding": 0, "next_id": 2,
            }

    def test_unresolved_admits_survive_abandonment(self, tmp_path):
        journal = Journal(tmp_path / "j")
        ledger = RequestLedger(journal)
        done = ledger.admit()
        ledger.admit()  # in flight at the "crash"
        ledger.resolve(done, "ok")
        # kill -9: no close, no snapshot — the flushed WAL is all there is.
        del journal, ledger

        report, journal = recover_and_open(tmp_path / "j")
        journal.close()
        assert report.unresolved_requests == [2]
        assert report.ledger["next_id"] == 3

    def test_resolve_crashed_settles_orphans(self, tmp_path):
        journal = Journal(tmp_path / "j")
        RequestLedger(journal).admit()
        del journal

        report, journal = recover_and_open(tmp_path / "j")
        ledger = RequestLedger(journal, next_id=report.ledger["next_id"])
        ledger.resolve_crashed(report.unresolved_requests)
        journal.close()
        # The orphan is settled on disk: the *next* recovery owes nothing.
        report, journal = recover_and_open(tmp_path / "j")
        journal.close()
        assert report.unresolved_requests == []

    def test_ids_never_repeat_across_crashes(self, tmp_path):
        journal = Journal(tmp_path / "j")
        RequestLedger(journal).admit()
        del journal
        report, journal = recover_and_open(tmp_path / "j")
        ledger = RequestLedger(journal, next_id=report.ledger["next_id"])
        assert ledger.admit() == 2
        journal.close()

    def test_state_dict_roundtrip_and_validation(self):
        ledger = RequestLedger(None)
        ledger.admit(), ledger.admit()
        restored = RequestLedger(None)
        restored.load_state_dict(ledger.state_dict())
        assert restored.outstanding == [1, 2] and restored.next_id == 3
        with pytest.raises(StateRestoreError):
            restored.load_state_dict({"next_id": 0})
        with pytest.raises(JournalError):
            RequestLedger(None, next_id=0)

    def test_fold_ledger_snapshot_plus_deltas(self):
        snapshot = {"next_id": 5, "outstanding": [3]}
        records = [
            {"seq": 9, "kind": "ledger", "data": {"event": "admit", "rid": 5}},
            {"seq": 10, "kind": "ledger", "data": {"event": "resolve", "rid": 3, "status": "ok"}},
            {"seq": 11, "kind": "other", "data": {"event": "admit", "rid": 99}},
        ]
        folded = fold_ledger(snapshot, records)
        assert folded == {
            "next_id": 6, "outstanding": [5], "admitted": 1, "resolved": 1,
        }


# -- state journal -----------------------------------------------------------


class TestStateJournal:
    def test_write_sink_and_snapshot(self, tmp_path):
        tracker = EwmaTracker(alpha=0.5)
        tracker.update(1.0)
        with Journal(tmp_path / "j") as journal:
            state_journal = StateJournal(journal)
            state_journal.register("ewma", tracker)
            sink = state_journal.sink("ewma")
            sink()
            tracker.update(3.0)
            state_journal.snapshot()

        report, journal = recover_and_open(tmp_path / "j")
        journal.close()
        restored = EwmaTracker(alpha=0.5)
        assert report.restore({"ewma": restored}) == ["ewma"]
        assert restored.value == pytest.approx(tracker.value)

    def test_tail_record_beats_snapshot(self, tmp_path):
        """Latest-wins: a state record after the snapshot overrides it."""
        tracker = EwmaTracker(alpha=0.5)
        tracker.update(1.0)
        with Journal(tmp_path / "j") as journal:
            state_journal = StateJournal(journal)
            state_journal.register("ewma", tracker)
            state_journal.snapshot()
            tracker.update(100.0)
            state_journal.write("ewma")  # flushed, but no snapshot before "crash"

        report, journal = recover_and_open(tmp_path / "j")
        journal.close()
        assert report.states["ewma"]["value"] == pytest.approx(tracker.value)

    def test_register_requires_state_dict(self, tmp_path):
        with Journal(tmp_path / "j") as journal:
            state_journal = StateJournal(journal)
            with pytest.raises(JournalError):
                state_journal.register("thing", object())
            with pytest.raises(JournalError):
                state_journal.write("missing")
            with pytest.raises(JournalError):
                state_journal.sink("missing")


# -- component roundtrips ----------------------------------------------------


class TestDriftState:
    def test_ewma_roundtrip_and_alpha_mismatch(self):
        tracker = EwmaTracker(alpha=0.2)
        for value in (1.0, 2.0, 0.5):
            tracker.update(value)
        restored = EwmaTracker(alpha=0.2)
        restored.load_state_dict(tracker.state_dict())
        assert restored.update(4.0) == pytest.approx(
            0.2 * 4.0 + 0.8 * tracker.value
        )
        with pytest.raises(StateRestoreError):
            EwmaTracker(alpha=0.3).load_state_dict(tracker.state_dict())

    def test_cusum_roundtrip_continues_detection(self):
        rng = np.random.default_rng(0)
        baseline = rng.normal(0.0, 1.0, 200)
        original = CusumDetector(allowance=0.25, decision_threshold=3.0)
        original.fit(baseline)
        for value in rng.normal(0.0, 1.0, 20):
            original.update(value)

        restored = CusumDetector(allowance=0.25, decision_threshold=3.0)
        restored.load_state_dict(original.state_dict())
        # Both see the same drifted tail and must alarm at the same step.
        drifted = rng.normal(3.0, 1.0, 50)
        first_a = next(
            (i for i, v in enumerate(drifted) if original.update(v).drifted), None
        )
        first_b = next(
            (i for i, v in enumerate(drifted) if restored.update(v).drifted), None
        )
        assert first_a is not None and first_a == first_b
        assert original.drift_index == restored.drift_index
        with pytest.raises(StateRestoreError):
            CusumDetector(allowance=0.9).load_state_dict(original.state_dict())


class TestSanitizerState:
    def test_stuck_run_survives_restore(self):
        frame = np.zeros((4, 4))
        sanitizer = FrameSanitizer(stuck_threshold=4)
        assert sanitizer.check(frame) is None
        assert sanitizer.check(frame) is None  # repeats = 2
        restored = FrameSanitizer(stuck_threshold=4)
        restored.load_state_dict(sanitizer.state_dict())
        assert restored.consecutive_identical == 2
        assert restored.check(frame) is None  # 3
        assert restored.check(frame) == "stuck_camera"  # 4: on schedule


class TestBreakerState:
    def test_closed_roundtrip(self):
        breaker = CircuitBreaker(BreakerConfig(window=8, min_calls=4))
        breaker.record_success()
        breaker.record_success()
        breaker.record_failure()
        restored = CircuitBreaker(BreakerConfig(window=8, min_calls=4))
        restored.load_state_dict(breaker.state_dict())
        assert restored.state == "closed"
        assert restored.stats()["failure_rate"] == pytest.approx(1 / 3)

    def test_open_elapsed_survives_process_boundary(self):
        """The open timer is persisted as elapsed seconds, not a raw
        monotonic stamp — a new process's clock has a new origin."""
        config = BreakerConfig(window=4, min_calls=2, failure_threshold=0.5,
                               reset_timeout_s=10.0)
        old_clock = {"now": 1000.0}
        breaker = CircuitBreaker(config, clock=lambda: old_clock["now"])
        breaker.record_failure(), breaker.record_failure()
        assert breaker.state == "open"
        old_clock["now"] += 6.0  # 6 s of the 10 s timeout served
        state = breaker.state_dict()
        assert state["open_elapsed_s"] == pytest.approx(6.0)

        new_clock = {"now": 3.0}  # fresh process, fresh origin
        restored = CircuitBreaker(config, clock=lambda: new_clock["now"])
        restored.load_state_dict(state)
        assert restored.state == "open"
        new_clock["now"] += 3.9
        assert restored.state == "open"  # 9.9 s elapsed: still waiting
        new_clock["now"] += 0.2
        assert restored.state == "half_open"  # 10.1 s: probes admitted

    def test_restore_refuses_config_mismatch(self):
        breaker = CircuitBreaker(BreakerConfig(window=8))
        state = breaker.state_dict()
        with pytest.raises(StateRestoreError):
            CircuitBreaker(BreakerConfig(window=16)).load_state_dict(state)
        with pytest.raises(StateRestoreError):
            breaker.load_state_dict({"state": "exploded", "window": 8})


class TestMonitorState:
    def test_roundtrip_matches_uninterrupted_stream(
        self, fitted_pipeline, dsu_test, dsi_novel
    ):
        """Kill the monitor mid-stream (in-process stand-in), restore, and
        require identical verdicts to a monitor that never died."""
        stream = np.concatenate([dsu_test.frames[:4], dsi_novel.frames[:8]])
        split = 6

        continuous = StreamMonitor(fitted_pipeline, window=4, min_consecutive=3)
        expected = [
            (v.index, v.is_novel, v.alarm)
            for v in continuous.observe_batch(stream)
        ]

        first = StreamMonitor(fitted_pipeline, window=4, min_consecutive=3)
        head = [
            (v.index, v.is_novel, v.alarm)
            for v in first.observe_batch(stream[:split])
        ]
        second = StreamMonitor(fitted_pipeline, window=4, min_consecutive=3)
        second.load_state_dict(first.state_dict())
        tail = [
            (v.index, v.is_novel, v.alarm)
            for v in second.observe_batch(stream[split:])
        ]
        assert head + tail == expected
        assert second.alarm_frames == continuous.alarm_frames
        assert second.alarm_transitions() == continuous.alarm_transitions()

    def test_restore_refuses_config_mismatch(self, fitted_pipeline):
        monitor = StreamMonitor(fitted_pipeline, window=4, min_consecutive=3)
        state = monitor.state_dict()
        other = StreamMonitor(fitted_pipeline, window=5, min_consecutive=3)
        with pytest.raises(StateRestoreError):
            other.load_state_dict(state)
        other = StreamMonitor(fitted_pipeline, window=4, min_consecutive=2)
        with pytest.raises(StateRestoreError):
            other.load_state_dict(state)

    def test_journal_sink_fires_per_frame(self, fitted_pipeline, dsu_test):
        calls = []
        monitor = StreamMonitor(fitted_pipeline, window=3, min_consecutive=2)
        monitor.attach_journal(lambda: calls.append(monitor.frames_seen))
        monitor.observe_batch(dsu_test.frames[:3])
        assert calls == [1, 2, 3]

    def test_journal_every_n_frames(self, fitted_pipeline, dsu_test):
        calls = []
        monitor = StreamMonitor(fitted_pipeline, window=3, min_consecutive=2)
        monitor.attach_journal(lambda: calls.append(monitor.frames_seen), every=2)
        monitor.observe_batch(dsu_test.frames[:5])
        assert calls == [2, 4]


class TestCanaryState:
    def test_inflight_rollout_restores_to_idle(
        self, fitted_pipeline, bundle_dir, tmp_path
    ):
        from repro.deploy import CanaryController, ModelRegistry
        from repro.serving import EngineConfig, PipelineScorer, ServingEngine, save_bundle

        time.sleep(0.01)
        candidate = save_bundle(fitted_pipeline, tmp_path / "candidate")
        registry = ModelRegistry(tmp_path / "registry")
        registry.register(bundle_dir, note="baseline")
        registry.register(candidate, note="candidate")
        registry.promote("v0001")
        bundle = registry.load("v0001")
        engine = ServingEngine(
            PipelineScorer(bundle.pipeline, model_version="v0001"),
            EngineConfig(max_batch_size=4, queue_capacity=64),
        )
        try:
            journaled = []
            controller = CanaryController(engine, registry, "v0002")
            controller.attach_journal(lambda: journaled.append(controller.state))
            controller.start_shadow()
            assert journaled == ["shadow"]
            state = controller.state_dict()

            # "New process": the shadow plumbing died with the old one.
            restored = CanaryController(engine, registry, "v0002")
            restored.load_state_dict(state)
            assert restored.state == "idle"
            # And an idle restore is exact.
            restored.load_state_dict({"state": "idle", "candidate_version": "v0002"})
            assert restored.state == "idle"
            with pytest.raises(StateRestoreError):
                restored.load_state_dict(
                    {"state": "idle", "candidate_version": "v0009"}
                )
            with pytest.raises(StateRestoreError):
                restored.load_state_dict(
                    {"state": "launched", "candidate_version": "v0002"}
                )
        finally:
            engine.close()


# -- recovery manager --------------------------------------------------------


class TestRecoveryManager:
    def test_recovers_components_and_ledger_together(self, tmp_path):
        journal = Journal(tmp_path / "j")
        state_journal = StateJournal(journal)
        tracker = EwmaTracker(alpha=0.5)
        ledger = RequestLedger(journal)
        state_journal.register("ewma", tracker)
        state_journal.register("ledger", ledger)
        tracker.update(2.0)
        state_journal.snapshot()
        ledger.admit()
        tracker.update(8.0)
        state_journal.write("ewma")
        del journal  # crash: nothing sealed

        manager = RecoveryManager(tmp_path / "j")
        report = manager.recover()
        assert report.unresolved_requests == [1]
        assert not report.clean
        assert "ledger" not in report.states  # folded, not a plain component
        restored = EwmaTracker(alpha=0.5)
        assert report.restore({"ewma": restored, "absent": EwmaTracker()}) == ["ewma"]
        assert restored.value == pytest.approx(tracker.value)

        journal = manager.open_journal()
        assert journal.last_seq == report.journal.last_seq
        journal.close()

    def test_emits_durability_telemetry(self, tmp_path):
        from repro.telemetry import MemorySink, telemetry_session

        journal = Journal(tmp_path / "j")
        RequestLedger(journal).admit()
        del journal
        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            RecoveryManager(tmp_path / "j").recover()
            counters = telem.registry.snapshot()["counters"]
        assert counters["durability.recoveries"] == 1
        assert counters["durability.replayed_records"] == 1
        assert counters["durability.requests_failed_on_crash"] == 1
        events = [r for r in sink.records if r.get("name") == "durability.recovered"]
        assert len(events) == 1
        spans = [r for r in sink.records if r.get("name") == "durability.recover"]
        assert len(spans) == 1

    def test_first_boot_is_clean_and_empty(self, tmp_path):
        report = RecoveryManager(tmp_path / "never").recover()
        assert report.clean
        assert report.states == {} and report.unresolved_requests == []
        assert report.summary()["last_seq"] == 0
