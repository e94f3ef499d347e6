"""The telemetry runtime: an active backend behind ``get_telemetry()``.

Instrumented code throughout the library does::

    telem = get_telemetry()
    with telem.span("vbp.forward", frames=n):
        ...
    telem.counter("monitor.alarms_raised").inc()

By default the active backend is a process-wide :class:`NullTelemetry`
whose instruments and spans are shared no-op singletons, so instrumented
hot paths cost a couple of attribute lookups and nothing else (verified by
``benchmarks/test_telemetry_overhead.py``).  :func:`enable_telemetry` (or
the :func:`telemetry_session` context manager, which the CLI's
``--telemetry`` flag uses) swaps in a real :class:`Telemetry` that records
metrics, traces spans, and streams JSONL records to disk.

Code that wants to skip *preparing* telemetry data entirely (for example
computing a gradient norm only to discard it) can branch on
``get_telemetry().enabled``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry, WindowHistogram
from repro.telemetry.sink import EventSink, JsonlSink
from repro.telemetry.spans import SpanRecord, Tracer
from repro.telemetry.trace import TraceContext

#: Bucket bounds used for span-duration histograms (seconds, 1µs..50s).
SPAN_BUCKETS = tuple(
    base * 10.0**exp for exp in range(-6, 2) for base in (1.0, 5.0)
)


class _NullSpan:
    """Reusable no-op context manager returned by :meth:`NullTelemetry.span`."""

    __slots__ = ()

    #: Untraced: no trace context to hand on (a live span's own context).
    context = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


class _NullCounter:
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_SPAN = _NullSpan()
_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullTelemetry:
    """Disabled backend: every operation is a shared no-op."""

    enabled = False

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def window_histogram(self, name: str, maxlen: int = 1024) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def span(self, name: str, trace: Any = None, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def add_span(self, name: str, duration: float, **kwargs: Any) -> None:
        pass

    def replay_span(self, record: Dict[str, Any]) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def close(self) -> None:
        pass


class Telemetry:
    """Enabled backend: metrics registry + span tracer + event sinks.

    Parameters
    ----------
    jsonl_path:
        When given, every span/event record (and a final metrics snapshot
        on :meth:`close`) is appended to this file as JSON lines.
    registry:
        Share an existing :class:`MetricsRegistry` instead of creating one.
    """

    enabled = True

    def __init__(self, jsonl_path=None, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = Tracer(on_finish=self._on_span_finish)
        self.sinks: List[EventSink] = []
        if jsonl_path is not None:
            self.sinks.append(JsonlSink(jsonl_path))
        self._wall_start = time.time()
        self._closed = False
        # Serving emits from several threads at once (socket handlers, the
        # dispatch loop); one lock keeps sink writes whole-record atomic.
        self._emit_lock = threading.Lock()

    # -- instruments (delegate to the registry) -------------------------
    def counter(self, name: str) -> Counter:
        return self.registry.counter(name)

    def gauge(self, name: str) -> Gauge:
        return self.registry.gauge(name)

    def histogram(self, name: str, buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self.registry.histogram(name, buckets=buckets)

    def window_histogram(self, name: str, maxlen: int = 1024) -> WindowHistogram:
        return self.registry.window_histogram(name, maxlen=maxlen)

    # -- spans and events ------------------------------------------------
    def span(self, name: str, trace: Any = None, **attributes: Any):
        """Context manager timing a named region (see :class:`Tracer`).

        ``trace`` accepts a :class:`~repro.telemetry.trace.TraceContext`
        to parent under, or ``"new"`` to root a fresh trace at this span.
        """
        return self.tracer.span(name, trace=trace, **attributes)

    def add_span(
        self,
        name: str,
        duration: float,
        context: Optional[TraceContext] = None,
        end: Optional[float] = None,
        **attributes: Any,
    ) -> None:
        """Record a synthetic (non-lexical) span; see :meth:`Tracer.add_span`."""
        self.tracer.add_span(name, duration, context=context, end=end, **attributes)

    def replay_span(self, record: Dict[str, Any]) -> None:
        """Re-emit a span record dict produced in another process.

        The worker pool collects span records inside worker processes and
        ships them back in the scoring reply; the parent replays them here
        so one JSONL sink holds the whole request tree.  Feeds the same
        ``span.<name>`` duration histogram as a locally finished span.
        """
        name = record.get("name", "unknown")
        duration = float(record.get("duration", 0.0))
        self.histogram(f"span.{name}", buckets=SPAN_BUCKETS).observe(duration)
        payload = dict(record)
        payload["type"] = "span"
        payload.setdefault("t", time.time() - self._wall_start)
        self._emit(payload)

    def event(self, name: str, **fields: Any) -> None:
        """Record one discrete occurrence with key/value payload."""
        self._emit(
            {
                "type": "event",
                "name": name,
                "t": time.time() - self._wall_start,
                "fields": _jsonable(fields),
            }
        )

    def _on_span_finish(self, record: SpanRecord) -> None:
        self.histogram(f"span.{record.name}", buckets=SPAN_BUCKETS).observe(
            record.duration
        )
        payload = {
            "type": "span",
            "name": record.name,
            "t": record.start,
            "duration": record.duration,
            "parent": record.parent,
            "depth": record.depth,
            "attrs": _jsonable(record.attributes),
        }
        if record.trace_id is not None:
            payload["trace_id"] = record.trace_id
            payload["span_id"] = record.span_id
            payload["parent_span_id"] = record.parent_span_id
        self._emit(payload)

    def _emit(self, record: Dict[str, Any]) -> None:
        with self._emit_lock:
            for sink in self.sinks:
                sink.emit(record)

    def add_sink(self, sink: EventSink) -> None:
        """Attach another sink (tests use :class:`MemorySink`)."""
        self.sinks.append(sink)

    def snapshot(self) -> Dict[str, Any]:
        """Current metrics snapshot (see :meth:`MetricsRegistry.snapshot`)."""
        return self.registry.snapshot()

    def close(self) -> None:
        """Emit the final metrics snapshot and close every sink."""
        if self._closed:
            return
        self._closed = True
        self._emit(
            {
                "type": "snapshot",
                "t": time.time() - self._wall_start,
                "metrics": self.registry.snapshot(),
            }
        )
        for sink in self.sinks:
            sink.close()


def _jsonable(mapping: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-friendly scalars."""
    out: Dict[str, Any] = {}
    for key, value in mapping.items():
        if isinstance(value, (bool, int, float, str)) or value is None:
            out[key] = value
        elif hasattr(value, "item"):  # numpy scalar
            out[key] = value.item()
        else:
            out[key] = str(value)
    return out


_NULL = NullTelemetry()
_ACTIVE: Any = _NULL


def get_telemetry():
    """The process-wide active backend (null unless a session is open)."""
    return _ACTIVE


def enable_telemetry(jsonl_path=None, registry: Optional[MetricsRegistry] = None) -> Telemetry:
    """Install (and return) an enabled backend as the active telemetry.

    An already-active session is closed first — sessions do not nest.
    """
    global _ACTIVE
    if _ACTIVE is not _NULL:
        _ACTIVE.close()
    _ACTIVE = Telemetry(jsonl_path=jsonl_path, registry=registry)
    return _ACTIVE


def disable_telemetry() -> None:
    """Close the active session (if any) and restore the null backend."""
    global _ACTIVE
    if _ACTIVE is not _NULL:
        _ACTIVE.close()
        _ACTIVE = _NULL


@contextmanager
def telemetry_session(jsonl_path=None, registry: Optional[MetricsRegistry] = None) -> Iterator[Telemetry]:
    """Scoped telemetry: enable on entry, snapshot + restore null on exit.

    >>> from repro.telemetry import telemetry_session, get_telemetry
    >>> with telemetry_session() as telem:
    ...     with get_telemetry().span("work"):
    ...         pass
    ...     n = telem.histogram("span.work").count
    >>> n
    1
    """
    telem = enable_telemetry(jsonl_path=jsonl_path, registry=registry)
    try:
        yield telem
    finally:
        disable_telemetry()
