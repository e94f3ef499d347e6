"""End-to-end rollout: shadow → canary → promote, and NaN-canary rollback.

The acceptance scenario for the lifecycle subsystem: two versions in a
registry, live traffic through the serving engine, a shadow phase with
recorded agreement, a canary phase that promotes when gates stay clean —
and, when the canary is poisoned with fault-injected NaN scores, an
automatic rollback to v1 that emits a ``deploy.rollback`` telemetry
event.  Throughout, every admitted request must resolve ``Scored`` —
zero drops, zero failures.
"""

import time

import numpy as np
import pytest

from repro.deploy import CanaryConfig, CanaryController, ModelRegistry, RolloutGates
from repro.exceptions import RolloutError
from repro.reliability import FaultInjector, FaultSchedule, RetryPolicy
from repro.serving import EngineConfig, PipelineScorer, ServingEngine, save_bundle
from repro.telemetry import MemorySink, telemetry_session


@pytest.fixture()
def registry(fitted_pipeline, bundle_dir, tmp_path):
    """A registry holding v0001 (serving) and v0002 (the candidate)."""
    time.sleep(0.01)
    candidate_dir = save_bundle(fitted_pipeline, tmp_path / "candidate")
    registry = ModelRegistry(tmp_path / "registry")
    registry.register(bundle_dir, note="baseline")
    registry.register(candidate_dir, note="candidate")
    registry.promote("v0001")
    return registry


def _engine(registry, **config_kwargs):
    bundle = registry.load("v0001")
    scorer = PipelineScorer(bundle.pipeline, model_version="v0001")
    defaults = dict(max_batch_size=4, queue_capacity=512)
    defaults.update(config_kwargs)
    return ServingEngine(scorer, EngineConfig(**defaults))


def _drive(engine, frames, n):
    """Submit ``n`` frames and wait; returns the resolved outcomes."""
    pendings = [engine.submit(frames[i % len(frames)]) for i in range(n)]
    return [p.result(120.0) for p in pendings]


class TestHealthyRollout:
    def test_shadow_then_canary_then_promote(
        self, registry, dsu_test, run_bounded
    ):
        engine = _engine(registry)
        controller = CanaryController(
            engine,
            registry,
            "v0002",
            config=CanaryConfig(canary_fraction=0.5, min_canary_batches=3),
        )
        try:
            # Phase 1: shadow — candidate sees mirrored traffic only.
            shadow = controller.start_shadow()
            assert controller.state == "shadow"
            outcomes = run_bounded(
                lambda: _drive(engine, dsu_test.frames, 24), timeout_s=300.0
            )
            assert all(o.status == "ok" for o in outcomes)
            assert {o.model_version for o in outcomes} == {"v0001"}
            assert shadow.drain(timeout_s=120.0)
            stats = shadow.stats()
            assert stats["compared"] > 0
            # Same weights on both sides: verdicts must agree.
            assert stats["agreement_rate"] == 1.0
            assert controller.evaluate().healthy

            # Phase 2: canary — a seeded fraction of real batches.
            split = controller.start_canary()
            assert controller.state == "canary"
            assert registry.get("v0002").status == "canary"
            outcomes = run_bounded(
                lambda: _drive(engine, dsu_test.frames, 48), timeout_s=300.0
            )
            assert all(o.status == "ok" for o in outcomes)
            served = {o.model_version for o in outcomes}
            assert served == {"v0001", "v0002"}  # both models took traffic
            assert split.stats()["candidate_errors"] == 0
            assert split.stats()["candidate_batches"] >= 3

            # Phase 3: gates are clean and the quorum is in — promote.
            decision = controller.step()
            assert decision.promote_ready
            assert controller.state == "promoted"
            assert registry.serving().version == "v0002"
            assert registry.get("v0001").status == "registered"
            outcomes = run_bounded(
                lambda: _drive(engine, dsu_test.frames, 8), timeout_s=300.0
            )
            assert {o.model_version for o in outcomes} == {"v0002"}
            assert engine.stats()["model_version"] == "v0002"
        finally:
            engine.close()

    def test_invalid_transitions_are_refused(self, registry):
        engine = _engine(registry)
        controller = CanaryController(engine, registry, "v0002")
        try:
            with pytest.raises(RolloutError, match="invalid transition"):
                controller.promote()
            with pytest.raises(RolloutError, match="invalid transition"):
                controller.rollback()
            controller.start_shadow()
            with pytest.raises(RolloutError, match="invalid transition"):
                controller.start_shadow()
        finally:
            engine.close()

    def test_unknown_candidate_fails_fast(self, registry):
        engine = _engine(registry)
        try:
            from repro.exceptions import RegistryError

            with pytest.raises(RegistryError, match="unknown version"):
                CanaryController(engine, registry, "v9999")
        finally:
            engine.close()


class TestPoisonedCanaryRollsBack:
    def test_nan_canary_auto_rolls_back_to_v1(self, registry, dsu_test, run_bounded):
        """Fault-injected NaN scores on the candidate: the canary-error
        gate trips, the controller reverts to v1, a ``deploy.rollback``
        event records why — and no admitted request is dropped or failed
        (NaN batches retry onto a healthy route)."""

        def poisoned(bundle, version):
            scorer = PipelineScorer(bundle.pipeline, model_version=version)
            return FaultInjector(scorer, FaultSchedule(["nan_scores"] * 4096))

        with telemetry_session() as telem:
            sink = MemorySink()
            telem.add_sink(sink)
            engine = _engine(
                registry,
                retry=RetryPolicy(max_attempts=6, base_delay_s=0.001, seed=0),
            )
            controller = CanaryController(
                engine,
                registry,
                "v0002",
                gates=RolloutGates(),
                config=CanaryConfig(canary_fraction=0.3, min_canary_batches=3),
                scorer_factory=poisoned,
            )
            try:
                controller.start_canary()
                outcomes = run_bounded(
                    lambda: _drive(engine, dsu_test.frames, 48), timeout_s=300.0
                )
                # Zero dropped, zero failed: every NaN canary batch was
                # retried until it landed on a healthy route.
                assert all(o.status == "ok" for o in outcomes)
                assert {o.model_version for o in outcomes} == {"v0001"}
                assert controller.split.stats()["candidate_errors"] > 0

                decision = controller.step()
                assert not decision.healthy
                assert any("canary_errors" in f for f in decision.failed_gates)
                assert controller.state == "rolled_back"
                # v1 never stopped serving; v2 is burned.
                assert registry.serving().version == "v0001"
                assert registry.get("v0002").status == "rolled_back"
                after = run_bounded(
                    lambda: _drive(engine, dsu_test.frames, 8), timeout_s=300.0
                )
                assert all(o.status == "ok" for o in after)
                assert {o.model_version for o in after} == {"v0001"}
            finally:
                engine.close()
            rollbacks = [
                r for r in sink.records
                if r.get("type") == "event" and r.get("name") == "deploy.rollback"
            ]
            assert len(rollbacks) == 1
            assert rollbacks[0]["fields"]["model_version"] == "v0002"
            assert "canary_errors" in rollbacks[0]["fields"]["reason"]

    def test_rollback_from_shadow_leaves_serving_untouched(
        self, registry, dsu_test, run_bounded
    ):
        engine = _engine(registry)
        controller = CanaryController(engine, registry, "v0002")
        try:
            controller.start_shadow()
            outcomes = run_bounded(
                lambda: _drive(engine, dsu_test.frames, 8), timeout_s=300.0
            )
            assert all(o.status == "ok" for o in outcomes)
            controller.rollback("operator abort")
            assert controller.state == "rolled_back"
            assert registry.serving().version == "v0001"
            assert engine._shadow is None
            history = registry.history()[-1]
            assert history["action"] == "status"
            assert history["note"] == "operator abort"
        finally:
            engine.close()

    def test_registry_ledger_tells_the_whole_story(self, registry, dsu_test):
        """After a poisoned rollout the history reads like a runbook."""

        def poisoned(bundle, version):
            scorer = PipelineScorer(bundle.pipeline, model_version=version)
            return FaultInjector(scorer, FaultSchedule(["nan_scores"] * 4096))

        engine = _engine(
            registry, retry=RetryPolicy(max_attempts=6, base_delay_s=0.001, seed=0)
        )
        controller = CanaryController(
            engine, registry, "v0002",
            config=CanaryConfig(canary_fraction=0.3),
            scorer_factory=poisoned,
        )
        try:
            controller.start_canary()
            with pytest.raises(RolloutError):
                # Drive the split directly until a canary batch raises.
                for _ in range(64):
                    engine.scorer.score_batch(np.stack(dsu_test.frames[:2]))
            controller.step()
        finally:
            engine.close()
        actions = [event["action"] for event in registry.history()]
        assert actions[:3] == ["register", "register", "promote"]
        assert actions[-2:] == ["status", "status"]  # canary, then rolled_back
        assert registry.get("v0002").status == "rolled_back"
