"""Span-based tracing for nested wall-clock measurement.

A span measures one named region of work (``vbp.forward``,
``trainer.epoch``).  Spans nest lexically — entering a span inside another
records the parent name and depth — so a trace of one monitored frame reads
as a tree: ``monitor.frame`` containing ``pipeline.score`` containing
``vbp.forward`` and ``one_class.score``.

The tracer is process-local and keeps one open-span stack per thread, so
spans opened concurrently on different threads (socket handlers, dispatch
threads) nest only under their own thread's spans.  It keeps no finished
records: each one goes to the ``on_finish`` callback (the telemetry
runtime's sinks) and is then dropped.

Spans can additionally be *trace-linked* (see :mod:`repro.telemetry.trace`):
``span(name, trace=ctx)`` parents the span under an explicit
:class:`~repro.telemetry.trace.TraceContext` (``trace="new"`` starts a
fresh trace with this span as root), and a span opened with no ``trace=``
inherits the ambient thread-local context, so nested instrumentation joins
a request's trace automatically.  Trace-linked spans carry
``trace_id``/``span_id``/``parent_span_id`` on their records;
:meth:`Tracer.add_span` records a synthetic span for regions that cannot
be a lexical ``with`` block (queue wait measured across threads).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Union

from repro.telemetry.trace import TraceContext, current_trace, use_trace


@dataclass
class SpanRecord:
    """One finished span.

    Attributes
    ----------
    name:
        Dotted span name.
    index:
        Monotone per-tracer sequence number (finish order).
    start:
        Start time in seconds relative to the tracer's epoch.
    duration:
        Wall-clock seconds spent inside the span (includes children).
    parent:
        Name of the enclosing span on the same thread, or ``None`` at top
        level.
    depth:
        Nesting depth on the recording thread (0 = top level).
    attributes:
        Key/value pairs attached at entry (plus ``error=True`` when the
        span exited via an exception).
    trace_id / span_id / parent_span_id:
        Distributed-trace linkage (``None`` for spans recorded outside any
        trace context); see :mod:`repro.telemetry.trace`.
    """

    name: str
    index: int
    start: float
    duration: float
    parent: Optional[str]
    depth: int
    attributes: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None
    span_id: Optional[str] = None
    parent_span_id: Optional[str] = None


class _ActiveSpan:
    """Context manager for one live span (returned by :meth:`Tracer.span`)."""

    __slots__ = (
        "_tracer",
        "name",
        "attributes",
        "_start",
        "parent",
        "depth",
        "_trace",
        "context",
        "_scope",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attributes: Dict[str, Any],
        trace: Union[TraceContext, str, None] = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attributes = attributes
        self._start = 0.0
        self.parent: Optional[str] = None
        self.depth = 0
        self._trace = trace
        #: The span's own trace context (set on entry; ``None`` untraced).
        self.context: Optional[TraceContext] = None
        self._scope = None

    def __enter__(self) -> "_ActiveSpan":
        stack = self._tracer._stacks.spans
        self.parent = stack[-1].name if stack else None
        self.depth = len(stack)
        stack.append(self)
        if self._trace == "new":
            self.context = TraceContext.new_root()
        else:
            parent_ctx = self._trace if self._trace is not None else current_trace()
            if parent_ctx is not None:
                self.context = parent_ctx.child()
        if self.context is not None:
            self._scope = use_trace(self.context)
            self._scope.__enter__()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._start
        if self._scope is not None:
            self._scope.__exit__(exc_type, exc, tb)
            self._scope = None
        stack = self._tracer._stacks.spans
        # Tolerate out-of-order exits (generators, test teardown): pop back
        # to this span instead of corrupting the stack.
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        if exc_type is not None:
            self.attributes["error"] = True
        self._tracer._finish(self, duration)
        return False


class _ThreadStacks(threading.local):
    """The open spans of the calling thread, innermost last."""

    def __init__(self) -> None:
        self.spans: List[_ActiveSpan] = []


class Tracer:
    """Creates nested spans and hands finished records to a callback.

    Parameters
    ----------
    on_finish:
        Called with each :class:`SpanRecord` as the span exits (the
        telemetry runtime uses this to feed sinks and latency histograms).
        The tracer keeps nothing itself; to inspect records in-process,
        collect them here (``Tracer(on_finish=records.append)``) or attach
        a :class:`~repro.telemetry.sink.MemorySink` to the session.
    """

    def __init__(self, on_finish: Optional[Callable[[SpanRecord], None]] = None) -> None:
        self._stacks = _ThreadStacks()
        self._on_finish = on_finish
        self._epoch = time.perf_counter()
        self._indices = itertools.count()

    @property
    def depth(self) -> int:
        """The calling thread's nesting depth (0 when it has no open span)."""
        return len(self._stacks.spans)

    def span(
        self,
        name: str,
        trace: Union[TraceContext, str, None] = None,
        **attributes: Any,
    ) -> _ActiveSpan:
        """A context manager timing the named region.

        Key/value ``attributes`` are attached to the finished record; more
        can be added inside the block via the yielded span's
        ``attributes`` dict.  ``trace`` parents the span under an explicit
        :class:`~repro.telemetry.trace.TraceContext` (``"new"`` starts a
        fresh trace rooted at this span); with no ``trace`` the span
        inherits the ambient thread-local context, if any.
        """
        return _ActiveSpan(self, name, dict(attributes), trace=trace)

    def now(self) -> float:
        """Current time relative to the tracer's epoch (for synthetic spans)."""
        return time.perf_counter() - self._epoch

    def add_span(
        self,
        name: str,
        duration: float,
        context: Optional[TraceContext] = None,
        end: Optional[float] = None,
        **attributes: Any,
    ) -> SpanRecord:
        """Record a synthetic span that was not a lexical ``with`` block.

        Cross-thread regions — a request's queue wait, its end-to-end
        latency — start on one thread and end on another, so they cannot
        be context managers.  The caller supplies the measured ``duration``
        and (optionally) the span's own trace ``context``; ``end`` is the
        finish time relative to :meth:`now` (default: now), from which the
        start offset is derived.
        """
        finished = self.now() if end is None else end
        record = SpanRecord(
            name=name,
            index=next(self._indices),
            start=finished - duration,
            duration=duration,
            parent=None,
            depth=0,
            attributes=dict(attributes),
            trace_id=None if context is None else context.trace_id,
            span_id=None if context is None else context.span_id,
            parent_span_id=None if context is None else context.parent_id,
        )
        if self._on_finish is not None:
            self._on_finish(record)
        return record

    def _finish(self, span: _ActiveSpan, duration: float) -> None:
        context = span.context
        record = SpanRecord(
            name=span.name,
            index=next(self._indices),
            start=span._start - self._epoch,
            duration=duration,
            parent=span.parent,
            depth=span.depth,
            attributes=span.attributes,
            trace_id=None if context is None else context.trace_id,
            span_id=None if context is None else context.span_id,
            parent_span_id=None if context is None else context.parent_id,
        )
        if self._on_finish is not None:
            self._on_finish(record)
