"""Shadow scoring: mirror live traffic onto a candidate model.

Before a candidate bundle takes any traffic, it should see real frames —
the distribution the serving model is judged on, not a held-out batch.  A
:class:`ShadowRunner` attaches to a :class:`~repro.serving.ServingEngine`
(via :meth:`~repro.serving.ServingEngine.attach_shadow`) and receives
every resolved ``Scored`` outcome together with its frame.  A seeded
sample of them is copied onto a bounded queue and re-scored against the
candidate on a background thread; per-frame verdict agreement and score
deltas (for the paper's pipeline these are SSIM-loss deltas) accumulate
into :meth:`stats`.

The mirror path can never affect responses: outcomes are already resolved
when the runner sees them, :meth:`offer` never blocks and never raises
(a full queue just drops the sample and counts it), and a candidate that
raises or returns NaN is tallied as a shadow error rather than surfacing
anywhere near the live path.

Telemetry: ``deploy.shadow_mirrored`` / ``deploy.shadow_agree`` /
``deploy.shadow_disagree`` / ``deploy.shadow_dropped`` /
``deploy.shadow_errors`` counters and the ``deploy.shadow_score_delta``
histogram (absolute candidate-minus-primary score deltas).
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.exceptions import ConfigurationError, DeploymentError
from repro.serving.results import Scored, Scorer
from repro.telemetry import get_telemetry


class ShadowRunner:
    """Mirrors a fraction of scored frames onto a candidate scorer.

    Parameters
    ----------
    candidate:
        :class:`~repro.serving.results.Scorer` for the candidate model
        (typically a :class:`~repro.serving.PipelineScorer` over the
        candidate bundle).  The runner owns it: :meth:`close` closes it.
    fraction:
        Probability a scored frame is mirrored (seeded, so a replayed run
        mirrors the same requests).
    seed:
        Seed for the sampling stream.
    queue_capacity:
        Bound on frames awaiting shadow scoring; overflow is dropped and
        counted, never waited on.
    """

    def __init__(
        self,
        candidate: Scorer,
        fraction: float = 1.0,
        seed: int = 0,
        queue_capacity: int = 256,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise ConfigurationError(f"fraction must be in (0, 1], got {fraction}")
        if queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        self.candidate = candidate
        self.fraction = float(fraction)
        self._rng = np.random.default_rng(seed)
        self._queue: "queue.Queue[Optional[Tuple[np.ndarray, Scored]]]" = queue.Queue(
            maxsize=queue_capacity
        )
        self._lock = threading.Lock()
        self._counts = {
            "offered": 0,
            "mirrored": 0,
            "dropped": 0,
            "compared": 0,
            "agreements": 0,
            "errors": 0,
        }
        # Running aggregates, so memory stays bounded however long the
        # mirror runs and stats() stays O(1).
        self._delta_sum = 0.0
        self._max_abs_delta = 0.0
        self._closed = False
        self._thread = threading.Thread(
            target=self._mirror_loop, name="deploy-shadow", daemon=True
        )
        self._thread.start()

    # -- live-path side --------------------------------------------------
    def offer(self, frame: np.ndarray, outcome: Scored) -> bool:
        """Maybe mirror one already-resolved request; never blocks/raises.

        Returns whether the frame was enqueued for shadow scoring.
        """
        try:
            with self._lock:
                self._counts["offered"] += 1
                sampled = self._rng.random() < self.fraction
            if not sampled or self._closed:
                return False
            try:
                self._queue.put_nowait((np.array(frame, copy=True), outcome))
            except queue.Full:
                with self._lock:
                    self._counts["dropped"] += 1
                get_telemetry().counter("deploy.shadow_dropped").inc()
                return False
            with self._lock:
                self._counts["mirrored"] += 1
            get_telemetry().counter("deploy.shadow_mirrored").inc()
            return True
        except Exception:  # noqa: BLE001 — the live path must stay unharmed
            with self._lock:
                self._counts["errors"] += 1
            return False

    # -- mirror side -----------------------------------------------------
    def _mirror_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            frame, outcome = item
            telem = get_telemetry()
            try:
                verdicts = self.candidate.score_batch(frame[None])
                score = float(np.asarray(verdicts.scores)[0])
                if not np.isfinite(score):
                    raise DeploymentError("candidate returned a non-finite score")
                is_novel = bool(np.asarray(verdicts.is_novel)[0])
                delta = score - outcome.score
                agree = is_novel == outcome.is_novel
                with self._lock:
                    self._counts["compared"] += 1
                    if agree:
                        self._counts["agreements"] += 1
                    self._delta_sum += delta
                    self._max_abs_delta = max(self._max_abs_delta, abs(delta))
                telem.counter(
                    "deploy.shadow_agree" if agree else "deploy.shadow_disagree"
                ).inc()
                telem.histogram("deploy.shadow_score_delta").observe(abs(delta))
            except Exception:  # noqa: BLE001 — a sick candidate is data, not a crash
                with self._lock:
                    self._counts["errors"] += 1
                telem.counter("deploy.shadow_errors").inc()
            finally:
                self._queue.task_done()

    # -- introspection ---------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Mirroring counters plus agreement/score-delta aggregates."""
        with self._lock:
            summary: Dict[str, Any] = dict(self._counts)
            delta_sum, max_abs_delta = self._delta_sum, self._max_abs_delta
        compared = summary["compared"]
        summary["disagreements"] = compared - summary["agreements"]
        summary["agreement_rate"] = (
            summary["agreements"] / compared if compared else None
        )
        summary["mean_score_delta"] = delta_sum / compared if compared else 0.0
        summary["max_abs_score_delta"] = max_abs_delta
        return summary

    # -- lifecycle -------------------------------------------------------
    def drain(self, timeout_s: float = 30.0) -> bool:
        """Wait until every mirrored frame so far has been compared.

        Returns ``False`` if the backlog did not clear within the timeout
        (the join runs on a helper thread because ``Queue.join`` itself
        takes no timeout).
        """
        joiner = threading.Thread(target=self._queue.join, daemon=True)
        joiner.start()
        joiner.join(timeout_s)
        return not joiner.is_alive()

    def close(self) -> None:
        """Stop the mirror thread and close the candidate scorer."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join(timeout=10.0)
        self.candidate.close()

    def __enter__(self) -> "ShadowRunner":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
