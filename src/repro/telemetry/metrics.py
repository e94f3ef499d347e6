"""Process-local metric instruments: counters, gauges, histograms.

The registry is deliberately tiny — no labels, no exposition formats, no
background threads.  Instruments are named with dotted lowercase paths
(``monitor.score``, ``trainer.grad_norm``) and live for the duration of one
telemetry session; :meth:`MetricsRegistry.snapshot` turns the whole
registry into a plain dict that serializes straight into the JSONL trace.

Histograms keep fixed-bucket counts (for cheap distribution rendering) and
a running count/total/min/max over their whole life, plus the most recent
:data:`QUANTILE_WINDOW` observations for the p50/p95/p99 summaries — computed
with the same :func:`repro.utils.timer.percentile` interpolation the
:class:`~repro.utils.timer.Timer` uses, not bucket-boundary estimates, and
exact until the window first fills.  Memory stays bounded however long a
session runs.
"""

from __future__ import annotations

import math
import re
from collections import deque
from typing import Deque, Dict, Optional, Sequence, Tuple

from repro.exceptions import ConfigurationError
from repro.utils.timer import percentile

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_]+)*$")

#: Default histogram buckets: log-spaced upper bounds covering microseconds
#: to tens of seconds when observing latencies, and most score ranges when
#: observing losses.  Values above the last bound land in an overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(
    base * 10.0**exp for exp in range(-6, 2) for base in (1.0, 2.5, 5.0)
)

#: Most recent observations a :class:`Histogram` keeps for its percentiles.
QUANTILE_WINDOW = 1024


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(
            f"metric names are dotted lowercase identifiers, got {name!r}"
        )
    return name


class Counter:
    """Monotonically increasing count (alarms raised, frames seen)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ConfigurationError(
                f"counter {self.name} cannot decrease (inc by {amount})"
            )
        self.value += amount


class Gauge:
    """Last-written value of a quantity that can move both ways."""

    __slots__ = ("name", "value", "updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Optional[float] = None
        self.updates = 0

    def set(self, value: float) -> None:
        """Record the current value of the gauge."""
        self.value = float(value)
        self.updates += 1


class Histogram:
    """Fixed-bucket histogram with running totals and recent percentiles.

    ``bucket_counts``, ``count``, ``total``, ``min`` and ``max`` cover every
    observation; :meth:`quantile` covers the last :data:`QUANTILE_WINDOW`.

    Parameters
    ----------
    name:
        Dotted metric name.
    buckets:
        Ascending upper bounds; an implicit overflow bucket catches values
        above the last bound.  Defaults to :data:`DEFAULT_BUCKETS`.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "total", "min", "max", "_recent")

    def __init__(self, name: str, buckets: Optional[Sequence[float]] = None) -> None:
        bounds = tuple(float(b) for b in (buckets or DEFAULT_BUCKETS))
        if not bounds or any(nxt <= prev for prev, nxt in zip(bounds, bounds[1:])):
            raise ConfigurationError(
                f"histogram {name} needs strictly ascending bucket bounds"
            )
        self.name = name
        self.buckets = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._recent = WindowHistogram(name, maxlen=QUANTILE_WINDOW)

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self._recent.observe(value)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated percentile of the recent observations.

        ``nan`` when the histogram is empty; the lone value when there is
        exactly one observation.  Never raises on an empty series.
        """
        return self._recent.quantile(q)

    def summary(self) -> Dict[str, float]:
        """The rollup recorded in snapshots: lifetime count/mean/min/max,
        p50/p95/p99 over the recent window."""
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(50.0),
            "p95": self.quantile(95.0),
            "p99": self.quantile(99.0),
        }


class WindowHistogram:
    """Sliding-window distribution over the last ``maxlen`` observations.

    Where :class:`Histogram` accumulates for a whole session, a window
    histogram answers "what does the score distribution look like *right
    now*" — the live view a scraper needs to see threshold drift (Shekar
    et al. 2022) rather than a session-lifetime average.  Exposed on
    ``/metrics`` as a summary with quantile labels.
    """

    __slots__ = ("name", "maxlen", "window", "observed")

    def __init__(self, name: str, maxlen: int = 1024) -> None:
        if maxlen < 1:
            raise ConfigurationError(
                f"window histogram {name} needs maxlen >= 1, got {maxlen}"
            )
        self.name = name
        self.maxlen = int(maxlen)
        self.window: Deque[float] = deque(maxlen=self.maxlen)
        self.observed = 0  # lifetime count, including evicted observations

    def observe(self, value: float) -> None:
        """Record one observation (evicting the oldest once full)."""
        self.window.append(float(value))
        self.observed += 1

    @property
    def count(self) -> int:
        """Observations currently in the window."""
        return len(self.window)

    def quantile(self, q: float) -> float:
        """Percentile over the current window (``nan`` when empty)."""
        return percentile(self.window, q)

    def summary(self) -> Dict[str, float]:
        """Rollup of the current window plus the lifetime ``observed``."""
        if not self.window:
            return {"count": 0, "observed": self.observed}
        values = list(self.window)
        return {
            "count": len(values),
            "observed": self.observed,
            "mean": float(sum(values)) / len(values),
            "min": min(values),
            "max": max(values),
            "p50": percentile(values, 50.0),
            "p95": percentile(values, 95.0),
            "p99": percentile(values, 99.0),
        }


class MetricsRegistry:
    """Get-or-create home for every instrument in one telemetry session."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._windows: Dict[str, WindowHistogram] = {}

    def _claim(self, name: str, kind: Dict[str, object]) -> None:
        for family in (self._counters, self._gauges, self._histograms, self._windows):
            if family is not kind and name in family:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a different kind"
                )

    def counter(self, name: str) -> Counter:
        """The counter named ``name`` (created on first request)."""
        if name not in self._counters:
            self._claim(_check_name(name), self._counters)
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name`` (created on first request)."""
        if name not in self._gauges:
            self._claim(_check_name(name), self._gauges)
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        """The histogram named ``name`` (created on first request).

        ``buckets`` only takes effect at creation; later requests return
        the existing instrument unchanged.
        """
        if name not in self._histograms:
            self._claim(_check_name(name), self._histograms)
            self._histograms[name] = Histogram(name, buckets=buckets)
        return self._histograms[name]

    def window_histogram(self, name: str, maxlen: int = 1024) -> WindowHistogram:
        """The sliding-window histogram named ``name`` (created on first
        request; ``maxlen`` only takes effect at creation)."""
        if name not in self._windows:
            self._claim(_check_name(name), self._windows)
            self._windows[name] = WindowHistogram(name, maxlen=maxlen)
        return self._windows[name]

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Plain-dict view of every instrument (JSON-serializable)."""
        snap = {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }
        if self._windows:
            snap["windows"] = {
                n: w.summary() for n, w in sorted(self._windows.items())
            }
        return snap

    def render(self) -> str:
        """Human-readable multi-line report of the current snapshot."""
        return render_snapshot(self.snapshot())


def render_snapshot(snapshot: Dict[str, Dict[str, object]]) -> str:
    """Format a :meth:`MetricsRegistry.snapshot` dict as a text block."""
    lines: List[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    if counters:
        lines.append("counters:")
        lines.extend(f"  {n:<32} {v:>12g}" for n, v in sorted(counters.items()))
    if gauges:
        lines.append("gauges:")
        lines.extend(
            f"  {n:<32} {'unset' if v is None else format(v, '>12.6g')}"
            for n, v in sorted(gauges.items())
        )
    if histograms:
        lines.append("histograms:")
        for name, summary in sorted(histograms.items()):
            if not summary.get("count"):
                lines.append(f"  {name:<32} (empty)")
                continue
            lines.append(
                f"  {name:<32} n={summary['count']:<6} mean={summary['mean']:.6g} "
                f"p50={summary['p50']:.6g} p95={summary['p95']:.6g} "
                f"p99={summary['p99']:.6g} max={summary['max']:.6g}"
            )
    windows = snapshot.get("windows", {})
    if windows:
        lines.append("windows:")
        for name, summary in sorted(windows.items()):
            if not summary.get("count"):
                lines.append(f"  {name:<32} (empty)")
                continue
            lines.append(
                f"  {name:<32} n={summary['count']:<6} "
                f"observed={summary['observed']:<8} mean={summary['mean']:.6g} "
                f"p50={summary['p50']:.6g} p95={summary['p95']:.6g} "
                f"p99={summary['p99']:.6g}"
            )
    return "\n".join(lines) if lines else "(no metrics recorded)"
