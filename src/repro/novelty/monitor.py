"""Online novelty monitoring for frame streams.

The paper motivates VBP's speed with "real-world systems where real-time
decision making is required" (§III-B).  This module supplies the missing
runtime piece: a :class:`StreamMonitor` that scores frames as they arrive
and raises an alarm when novelty persists — single novel frames are often
transient (a glare spike, one corrupted frame) while a *run* of novel
frames means the vehicle has genuinely left its training distribution and
should hand control back to a human or a safety fallback.

The monitor is itself a safety component, so it degrades instead of
breaking: frames are sanitized before scoring
(:class:`~repro.reliability.FrameSanitizer` — NaN/Inf pixels, wrong
shape/dtype, stuck-camera detection) and scores are validated before the
threshold comparison (a NaN score would otherwise read as "not novel",
since NaN comparisons are ``False``).  An unscorable frame still gets a
:class:`FrameVerdict`, with ``state`` naming the fault and ``is_novel``
substituted by the ``fail_safe`` policy, so the persistence alarm stays
sound under sensor faults.  See ``docs/reliability.md``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import (
    ConfigurationError,
    NotFittedError,
    StageError,
    StateRestoreError,
)
from repro.nn.backend.policy import as_tensor
from repro.reliability.sanitize import FrameSanitizer
from repro.telemetry import get_telemetry

#: Fail-safe policies for unscorable frames.
FAIL_SAFE_POLICIES = ("novel", "hold")


@dataclass(frozen=True)
class FrameVerdict:
    """Per-frame monitoring outcome.

    Attributes
    ----------
    index:
        Position of the frame in the stream.
    score:
        Loss-oriented novelty score (higher = more novel); NaN when the
        frame could not be scored.
    is_novel:
        The detector's single-frame decision — or, for a degraded frame,
        the fail-safe policy's substituted verdict.
    alarm:
        Whether the persistence alarm was active after this frame —
        i.e. at least ``min_consecutive`` of the last ``window`` frames
        were novel.
    state:
        ``"ok"`` for a cleanly scored frame, otherwise the degraded
        state (one of :data:`repro.reliability.DEGRADED_STATES`:
        ``bad_dtype`` / ``bad_shape`` / ``non_finite_frame`` /
        ``stuck_camera`` / ``non_finite_score``), or ``"stage:<name>"``
        when a specific stage of the detector's compiled scoring plan
        failed (the stage runtime names the faulting stage, so a VBP
        numerical blow-up is distinguishable from an autoencoder one).
    """

    index: int
    score: float
    is_novel: bool
    alarm: bool
    state: str = "ok"

    @property
    def degraded(self) -> bool:
        """Whether this verdict came from the degraded path."""
        return self.state != "ok"


class StreamMonitor:
    """Runs a fitted detector over a frame stream with a persistence alarm.

    Parameters
    ----------
    detector:
        Any fitted pipeline object exposing ``score`` and the nested
        ``one_class.detector`` threshold rule
        (:class:`~repro.novelty.SaliencyNoveltyPipeline`,
        :class:`~repro.novelty.RichterRoyBaseline`, ...).
    window:
        Length of the sliding decision window, in frames.
    min_consecutive:
        Number of novel frames inside the window needed to raise the alarm.
        With ``window == min_consecutive`` the alarm requires strictly
        consecutive novel frames.
    fail_safe:
        Verdict substituted for an unscorable frame: ``"novel"`` (treat it
        as novel — conservative, the default: a sensor fault is itself a
        reason to distrust the perception stack) or ``"hold"`` (repeat the
        last cleanly scored verdict — optimistic, avoids alarming on brief
        sensor glitches; holds "not novel" until a first clean frame).
    stuck_threshold:
        Consecutive byte-identical frames at which the feed is declared
        stuck (``None`` disables stuck-camera detection).
    sanitizer:
        A pre-built :class:`~repro.reliability.FrameSanitizer` to use
        instead of the default one (which checks against the detector's
        ``image_shape`` when it exposes one).
    """

    def __init__(
        self,
        detector,
        window: int = 5,
        min_consecutive: int = 3,
        fail_safe: str = "novel",
        stuck_threshold: Optional[int] = None,
        sanitizer: Optional[FrameSanitizer] = None,
    ) -> None:
        if window < 1:
            raise ConfigurationError(f"window must be >= 1, got {window}")
        if not 1 <= min_consecutive <= window:
            raise ConfigurationError(
                f"min_consecutive must be in [1, window={window}], got {min_consecutive}"
            )
        if fail_safe not in FAIL_SAFE_POLICIES:
            raise ConfigurationError(
                f"fail_safe must be one of {', '.join(FAIL_SAFE_POLICIES)}, "
                f"got {fail_safe!r}"
            )
        if not getattr(detector, "is_fitted", False):
            raise NotFittedError("StreamMonitor requires a fitted detector")
        self.detector = detector
        self.window = int(window)
        self.min_consecutive = int(min_consecutive)
        self.fail_safe = fail_safe
        if sanitizer is None:
            expected = getattr(detector, "image_shape", None)
            sanitizer = FrameSanitizer(
                image_shape=expected, stuck_threshold=stuck_threshold
            )
        self.sanitizer = sanitizer
        self._recent: Deque[bool] = deque(maxlen=self.window)
        self._index = 0
        self._alarm_frames: List[int] = []
        self._transitions: List[Tuple[int, Optional[int]]] = []
        self._degraded_frames: List[int] = []
        self._degraded_counts: Dict[str, int] = {}
        self._last_good_novel = False
        self._journal_sink: Optional[Callable[[], None]] = None
        self._journal_every = 1

    @property
    def alarm_active(self) -> bool:
        """Whether the persistence alarm is currently raised."""
        return sum(self._recent) >= self.min_consecutive

    @property
    def alarm_frames(self) -> List[int]:
        """Stream indices at which the alarm was active."""
        return list(self._alarm_frames)

    @property
    def frames_seen(self) -> int:
        """Number of frames processed so far."""
        return self._index

    @property
    def degraded_frames(self) -> List[int]:
        """Stream indices that took the degraded (unscorable) path."""
        return list(self._degraded_frames)

    def degraded_counts(self) -> Dict[str, int]:
        """Degraded-frame tallies by state (empty when the stream is clean)."""
        return dict(self._degraded_counts)

    def alarm_transitions(self) -> List[Tuple[int, Optional[int]]]:
        """``(raised_at, cleared_at)`` index pairs for each alarm episode.

        ``raised_at`` is the frame at which the alarm turned on;
        ``cleared_at`` is the first subsequent frame at which it was off
        again, or ``None`` while the episode is still active.  Benchmarks
        previously reconstructed these runs by hand from
        :attr:`alarm_frames`; the telemetry alarm counters use them too.
        """
        return list(self._transitions)

    def health(self) -> Dict[str, object]:
        """Liveness/health document for the ``/healthz`` endpoint.

        ``healthy`` is ``False`` while the persistence alarm is active —
        a scraper watching the monitor should see the alarm as the
        component's health, not just a counter.
        """
        return {
            "healthy": not self.alarm_active,
            "alarm_active": self.alarm_active,
            "frames_seen": self.frames_seen,
            "degraded_frames": len(self._degraded_frames),
            "alarms_raised": len(self._transitions),
        }

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of all mutable stream state.

        Covers everything :meth:`observe` mutates — the sliding decision
        window, the alarm/transition history, degraded counters, the
        fail-safe "hold" latch, and the sanitizer's stuck-camera run —
        plus the configuration the window semantics depend on, so
        :meth:`load_state_dict` can refuse a snapshot taken by a
        differently-configured monitor.
        """
        return {
            "window": self.window,
            "min_consecutive": self.min_consecutive,
            "fail_safe": self.fail_safe,
            "index": self._index,
            "recent": [bool(v) for v in self._recent],
            "alarm_frames": list(self._alarm_frames),
            "transitions": [list(pair) for pair in self._transitions],
            "degraded_frames": list(self._degraded_frames),
            "degraded_counts": dict(self._degraded_counts),
            "last_good_novel": self._last_good_novel,
            "sanitizer": self.sanitizer.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot (e.g. after a crash).

        Raises :class:`~repro.exceptions.StateRestoreError` when the
        snapshot was taken under a different window geometry or
        fail-safe policy — silently restoring it would resurrect a
        monitor with different alarm semantics than the one that died.
        """
        for key in ("window", "min_consecutive", "fail_safe"):
            ours = getattr(self, key)
            theirs = state.get(key)
            if theirs != ours:
                raise StateRestoreError(
                    f"monitor state was journaled with {key}={theirs!r} but "
                    f"this monitor is configured with {key}={ours!r}"
                )
        self._index = int(state["index"])
        self._recent = deque(
            (bool(v) for v in state["recent"]), maxlen=self.window
        )
        self._alarm_frames = [int(i) for i in state["alarm_frames"]]
        self._transitions = [
            (int(raised), None if cleared is None else int(cleared))
            for raised, cleared in state["transitions"]
        ]
        self._degraded_frames = [int(i) for i in state["degraded_frames"]]
        self._degraded_counts = {
            str(k): int(v) for k, v in state["degraded_counts"].items()
        }
        self._last_good_novel = bool(state["last_good_novel"])
        self.sanitizer.load_state_dict(state["sanitizer"])

    def attach_journal(self, sink: Callable[[], None], every: int = 1) -> None:
        """Journal this monitor's state every ``every`` ingested frames.

        ``sink`` is a zero-argument callable (typically
        ``StateJournal.sink("monitor")``) invoked *after* each
        ``every``-th verdict is folded in, so the journaled state always
        reflects a frame boundary.  Pass ``None`` to detach.
        """
        if sink is not None and every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        self._journal_sink = sink
        self._journal_every = int(every)

    def reset(self) -> None:
        """Clear the sliding window, alarm and fault history (new drive)."""
        self._recent.clear()
        self._index = 0
        self._alarm_frames = []
        self._transitions = []
        self._degraded_frames = []
        self._degraded_counts = {}
        self._last_good_novel = False
        self.sanitizer.reset()

    def observe(self, frame: np.ndarray) -> FrameVerdict:
        """Score one frame and update the alarm state.

        Malformed frames and non-finite scores do not raise — they produce
        a degraded :class:`FrameVerdict` under the fail-safe policy.
        """
        return self.observe_batch(np.asarray(frame)[None])[0]

    def _score_valid(
        self, stack: np.ndarray, base_index: int, positions: List[int], telem
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Scores and margins for the sanitized sub-stack.

        When telemetry is enabled, frames are scored one at a time so each
        gets its own ``monitor.frame`` span — the per-frame latency a
        deployment would see — at the cost of the batch vectorization.
        """
        if telem.enabled and len(positions) > 1:
            scores = np.empty(len(positions))
            for k, position in enumerate(positions):
                with telem.span("monitor.frame", index=base_index + position):
                    scores[k] = self.detector.score(stack[k : k + 1])[0]
        elif telem.enabled:
            with telem.span("monitor.frame", index=base_index + positions[0]):
                scores = np.asarray(self.detector.score(stack), dtype=float)
        else:
            # The vectorized fast path: one VBP + autoencoder pass for the
            # whole stack (falls back to score() for detectors that predate
            # the batch entry point).
            score_stack = getattr(self.detector, "score_batch", self.detector.score)
            scores = np.asarray(score_stack(stack), dtype=float)
        margins = self.detector.one_class.detector.novelty_margin(scores)
        return scores, np.asarray(margins, dtype=float)

    def observe_batch(self, frames: np.ndarray) -> List[FrameVerdict]:
        """Score a batch of stream frames in order.

        Batching exists for efficiency (the detector vectorizes over
        frames); verdicts are produced exactly as if frames had been
        observed one at a time — every frame gets a verdict, including the
        first ``window - 1`` frames while the sliding window is still
        filling (the alarm can already raise there once
        ``min_consecutive`` novel frames have accumulated).

        Each frame is sanitized first; frames the detector cannot score
        (and frames whose score comes back non-finite) take the degraded
        path instead of raising — their ``is_novel`` is the fail-safe
        policy's verdict and their ``state`` names the fault.
        """
        arr = np.asarray(frames)
        if arr.ndim >= 1 and arr.shape[0] == 0:
            return []
        n = arr.shape[0] if arr.ndim >= 1 else 1
        if arr.ndim < 1:
            arr = arr.reshape(1)
        telem = get_telemetry()

        # Sanitize in stream order (the stuck-camera check is stateful).
        states: List[Optional[str]] = [self.sanitizer.check(arr[i]) for i in range(n)]
        positions = [i for i in range(n) if states[i] is None]

        scores_full = np.full(n, np.nan)
        margins_full = np.full(n, np.nan)
        decisions_full = np.zeros(n, dtype=bool)
        if positions:
            stack = as_tensor(
                np.stack([arr[i] for i in positions]),
                getattr(self.detector, "dtype", None),
            )
            try:
                scores, margins = self._score_valid(
                    stack, self._index, positions, telem
                )
            except StageError as exc:
                # A single stage of the compiled plan blew up.  The monitor
                # is a safety component: degrade the affected frames under
                # the fail-safe policy, naming the faulting stage, instead
                # of letting the exception take the whole stream down.
                stage_state = f"stage:{exc.stage or 'unknown'}"
                for position in positions:
                    states[position] = stage_state
            else:
                threshold_rule = self.detector.one_class.detector
                finite = np.isfinite(scores)
                decisions = np.zeros(len(positions), dtype=bool)
                if np.any(finite):
                    decisions[finite] = threshold_rule.predict(scores[finite])
                for k, position in enumerate(positions):
                    if not finite[k]:
                        # A NaN score would compare False against any
                        # threshold and silently read as "not novel" —
                        # route it to the degraded path instead.
                        states[position] = "non_finite_score"
                    scores_full[position] = scores[k]
                    margins_full[position] = margins[k]
                    decisions_full[position] = decisions[k]

        return [
            self._ingest_verdict(
                states[i] or "ok",
                scores_full[i],
                margins_full[i],
                decisions_full[i],
                telem,
            )
            for i in range(n)
        ]

    def _ingest_verdict(
        self, state: str, score: float, margin: float, decision: bool, telem
    ) -> FrameVerdict:
        """Fold one frame's outcome into the window/alarm/fault state."""
        if state == "ok":
            is_novel = bool(decision)
            self._last_good_novel = is_novel
        elif self.fail_safe == "novel":
            is_novel = True
        else:  # "hold": repeat the last cleanly scored verdict
            is_novel = self._last_good_novel
        was_active = self.alarm_active
        self._recent.append(is_novel)
        alarm = self.alarm_active
        if alarm:
            self._alarm_frames.append(self._index)
        if alarm and not was_active:
            self._transitions.append((self._index, None))
        elif was_active and not alarm:
            raised_at, _ = self._transitions[-1]
            self._transitions[-1] = (raised_at, self._index)
        if state != "ok":
            self._degraded_frames.append(self._index)
            self._degraded_counts[state] = self._degraded_counts.get(state, 0) + 1
        if telem.enabled:
            telem.counter("monitor.frames").inc()
            if state == "ok":
                telem.histogram("monitor.score").observe(float(score))
                # The live score distribution a /metrics scraper watches
                # for threshold drift (same series the serving engine
                # feeds when scoring goes through it).
                telem.window_histogram("monitor.score_window").observe(float(score))
                telem.gauge("monitor.threshold_margin").set(float(margin))
            else:
                telem.counter("monitor.degraded_frames").inc()
                telem.event(
                    "monitor.degraded", frame=self._index, state=state,
                    fail_safe=self.fail_safe,
                )
            if is_novel:
                telem.counter("monitor.novel_frames").inc()
            if alarm and not was_active:
                telem.counter("monitor.alarms_raised").inc()
                telem.event("monitor.alarm_raised", frame=self._index)
            elif was_active and not alarm:
                telem.counter("monitor.alarms_cleared").inc()
                telem.event("monitor.alarm_cleared", frame=self._index)
        verdict = FrameVerdict(
            index=self._index,
            score=float(score),
            is_novel=is_novel,
            alarm=alarm,
            state=state,
        )
        self._index += 1
        if self._journal_sink is not None and self._index % self._journal_every == 0:
            self._journal_sink()
        return verdict

    def observe_with_steering(
        self, frame: np.ndarray
    ) -> Tuple[FrameVerdict, Optional[float]]:
        """Score one frame and predict its steering angle in one pass.

        The detector's fused ``score_with_steering`` entry point (its
        compiled plan shares one CNN forward between the steering head and
        the saliency cascade) gives the closed-loop simulator both the
        novelty verdict and the steering command for the price of a single
        forward; the simulator only calls this when the detector and the
        policy share a model.  Frames that take any degraded path return
        ``None`` for the angle (the caller must then steer via its own
        policy — commanding an angle computed from a faulty frame would
        defeat the sanitizer).
        """
        fused = self.detector.score_with_steering
        arr = np.asarray(frame)
        telem = get_telemetry()
        state = self.sanitizer.check(arr)
        score = float("nan")
        margin = float("nan")
        decision = False
        angle: Optional[float] = None
        if state is None:
            stack = as_tensor(arr[None], self.detector.dtype)
            try:
                if telem.enabled:
                    with telem.span("monitor.frame", index=self._index):
                        scores, angles = fused(stack)
                else:
                    scores, angles = fused(stack)
            except StageError as exc:
                state = f"stage:{exc.stage or 'unknown'}"
            else:
                score = float(scores[0])
                if np.isfinite(score):
                    state = "ok"
                    angle = float(angles[0])
                    rule = self.detector.one_class.detector
                    decision = bool(rule.predict(scores)[0])
                    margin = float(rule.novelty_margin(scores)[0])
                else:
                    state = "non_finite_score"
        return self._ingest_verdict(state or "ok", score, margin, decision, telem), angle
