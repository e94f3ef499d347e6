"""Deterministic fault injection for the serving path.

A :class:`FaultInjector` wraps any :class:`~repro.serving.results.Scorer`
(a :class:`~repro.serving.engine.PipelineScorer` or a
:class:`~repro.serving.pool.WorkerPool`) and perturbs calls according to a
:class:`FaultSchedule`: the *k*-th ``score_batch`` call suffers the *k*-th
scheduled fault.  Schedules are plain sequences (or seeded random draws),
so a chaos run replays identically — the whole point is asserting that
the engine's invariants hold under a *known* storm.

Fault kinds (:data:`FAULT_KINDS`):

* ``"latency"`` — sleep ``latency_ms`` before scoring (a GC pause, a page
  fault, a slow disk).
* ``"exception"`` — raise :class:`~repro.exceptions.InjectedFaultError`
  instead of scoring (a backend bug).
* ``"nan_scores"`` — score normally, then replace every score/margin with
  NaN (the silent numeric-corruption failure mode the monitor must catch);
  the verdicts keep the wrapped scorer's model version.
* ``"corrupt_frames"`` — overwrite the input frames with NaN before
  scoring (a broken sensor / DMA corruption upstream of the scorer).
* ``"kill_worker"`` — SIGKILL one replica of a wrapped
  :class:`~repro.serving.pool.WorkerPool` mid-call, then score anyway (the
  pool's restart-and-retry path is exercised for real).  Ignored for
  in-process scorers, which have no processes to kill.

The injector is itself a :class:`~repro.serving.results.Scorer` that
passes ``image_shape`` / ``dtype`` / ``replicas`` / ``model_version`` /
``close`` through to the wrapped scorer, so it drops into a
:class:`~repro.serving.engine.ServingEngine` unchanged — that is how
``repro bench-serve --chaos`` uses it.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.exceptions import ConfigurationError, InjectedFaultError
from repro.serving.results import BatchVerdicts, Scorer

#: Every fault kind a schedule may contain.
FAULT_KINDS = ("latency", "exception", "nan_scores", "corrupt_frames", "kill_worker")


class FaultSchedule:
    """Which fault (if any) each successive call suffers.

    ``kinds[k]`` is the fault for call ``k`` — one of :data:`FAULT_KINDS`
    or ``None`` for a healthy call.  Calls past the end of the schedule
    are healthy, which is how chaos tests model "faults clear" and assert
    breaker recovery.
    """

    def __init__(self, kinds: Sequence[Optional[str]]) -> None:
        kinds = list(kinds)
        for kind in kinds:
            if kind is not None and kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r} (expected one of "
                    f"{', '.join(FAULT_KINDS)}, or None)"
                )
        self._kinds = kinds

    @classmethod
    def random(
        cls,
        length: int,
        rates: Mapping[str, float],
        seed: int = 0,
    ) -> "FaultSchedule":
        """A seeded random schedule: each call draws one fault (or none).

        ``rates`` maps fault kinds to per-call probabilities; their sum
        must not exceed 1.  Identical arguments give identical schedules.
        """
        if length < 0:
            raise ConfigurationError(f"length must be >= 0, got {length}")
        kinds = sorted(rates)
        for kind in kinds:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(f"unknown fault kind {kind!r}")
            if rates[kind] < 0:
                raise ConfigurationError(f"rate for {kind!r} must be >= 0")
        total = sum(rates[k] for k in kinds)
        if total > 1.0 + 1e-12:
            raise ConfigurationError(f"fault rates sum to {total}, must be <= 1")
        rng = np.random.default_rng(seed)
        probabilities = [rates[k] for k in kinds] + [1.0 - total]
        choices = list(kinds) + [None]
        drawn = rng.choice(len(choices), size=length, p=probabilities)
        return cls([choices[i] for i in drawn])

    def __len__(self) -> int:
        return len(self._kinds)

    def kind_at(self, call_index: int) -> Optional[str]:
        """Fault for the ``call_index``-th call (``None`` past the end)."""
        if 0 <= call_index < len(self._kinds):
            return self._kinds[call_index]
        return None

    def counts(self) -> Dict[str, int]:
        """Scheduled occurrences per fault kind (healthy calls excluded)."""
        return {
            kind: self._kinds.count(kind)
            for kind in FAULT_KINDS
            if kind in self._kinds
        }


class FaultInjector(Scorer):
    """Scorer wrapper that injects scheduled faults into ``score_batch``.

    Parameters
    ----------
    scorer:
        The real backend being perturbed.
    schedule:
        Per-call fault plan; calls past its end run clean.
    latency_ms:
        Sleep injected by a ``"latency"`` fault.
    sleep:
        Injectable sleeper (tests pass a stub to keep wall-clock at zero).
    """

    def __init__(
        self,
        scorer: Scorer,
        schedule: FaultSchedule,
        latency_ms: float = 50.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if latency_ms < 0:
            raise ConfigurationError(f"latency_ms must be >= 0, got {latency_ms}")
        self.scorer = scorer
        self.schedule = schedule
        self.latency_ms = float(latency_ms)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._calls = 0
        self._injected: Dict[str, int] = {}

    @property
    def replicas(self) -> int:
        return self.scorer.replicas

    @property
    def image_shape(self):
        return self.scorer.image_shape

    @property
    def dtype(self):
        return self.scorer.dtype

    @property
    def model_version(self):
        return self.scorer.model_version

    @property
    def calls(self) -> int:
        """Number of ``score_batch`` calls seen so far."""
        with self._lock:
            return self._calls

    def injected(self) -> Dict[str, int]:
        """Faults actually injected so far, by kind."""
        with self._lock:
            return dict(self._injected)

    def _next_fault(self) -> Optional[str]:
        with self._lock:
            kind = self.schedule.kind_at(self._calls)
            self._calls += 1
            if kind is not None:
                self._injected[kind] = self._injected.get(kind, 0) + 1
            return kind

    def _kill_one_worker(self) -> None:
        """SIGKILL a live replica of a wrapped pool (no-op otherwise)."""
        from repro.serving.pool import WorkerPool

        if not isinstance(self.scorer, WorkerPool):
            return
        for worker in self.scorer._workers:
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(timeout=10.0)
                return

    def score_batch(self, frames: np.ndarray) -> BatchVerdicts:
        """Score through the wrapped backend, applying this call's fault."""
        kind = self._next_fault()
        if kind == "latency":
            self._sleep(self.latency_ms / 1000.0)
        elif kind == "exception":
            raise InjectedFaultError("injected backend failure")
        elif kind == "corrupt_frames":
            frames = np.full_like(np.asarray(frames, dtype=float), np.nan)
        elif kind == "kill_worker":
            self._kill_one_worker()
        verdicts = self.scorer.score_batch(frames)
        if kind == "nan_scores":
            n = len(verdicts)
            return BatchVerdicts(
                scores=np.full(n, np.nan),
                is_novel=np.asarray(verdicts.is_novel),
                margins=np.full(n, np.nan),
                model_version=verdicts.model_version,
            )
        return verdicts

    def close(self) -> None:
        """Close the wrapped scorer."""
        self.scorer.close()
