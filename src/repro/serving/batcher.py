"""Micro-batching request queue with bounded admission.

Single-frame requests arrive one at a time (a camera feed, socket
clients); batched numpy matmuls are where the throughput is.  The
:class:`MicroBatcher` bridges the two: producers :meth:`~MicroBatcher.offer`
individual requests into a bounded FIFO, consumers (the engine's dispatch
threads) pull *micro-batches*: a free consumer takes whatever is queued,
up to ``max_batch_size``, and never holds a batch open for frames that
have not arrived.  Requests that arrive while a batch is being scored form
the next one, so batches grow with load and need no timer.  A full queue
rejects at admission (the caller turns that into a typed
:class:`~repro.serving.results.Overloaded` outcome) instead of queueing
unboundedly.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.serving.results import PendingResult
from repro.telemetry.trace import TraceContext


@dataclass
class QueuedRequest:
    """One admitted request waiting to be scored."""

    frame: np.ndarray
    pending: PendingResult
    enqueued_at: float
    #: Absolute ``time.monotonic()`` deadline, or ``None`` for no deadline.
    deadline_at: Optional[float]
    #: Root trace context of this request (``None`` when telemetry is off);
    #: the value that carries the request's identity across the queue.
    trace: Optional[TraceContext] = None
    #: Durable request-ledger id (``None`` when journaling is off); the
    #: engine resolves it alongside the :class:`PendingResult`, so a
    #: crash leaves exactly the unresolved ids on disk.
    ledger_id: Optional[int] = None
    #: Priority class the request was admitted under; routes it to the
    #: right queue of a :class:`~repro.serving.admission.WeightedClassBatcher`
    #: (the plain FIFO ignores it).
    qos_class: str = "interactive"
    #: Client identity from the wire protocol (``None`` = anonymous /
    #: in-process); admission quotas are keyed on it.
    client_id: Optional[str] = None


class MicroBatcher:
    """Bounded FIFO that hands out micro-batches to consumer threads.

    Parameters
    ----------
    max_batch_size:
        Largest batch a single :meth:`next_batch` call returns.
    capacity:
        Admission bound: :meth:`offer` refuses once this many requests
        are queued (explicit backpressure).
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        capacity: int = 64,
    ) -> None:
        if max_batch_size < 1:
            raise ConfigurationError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self.max_batch_size = int(max_batch_size)
        self.capacity = int(capacity)
        self._queue: Deque[QueuedRequest] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._bursts = 0  # open burst() blocks; consumers wait them out

    def __len__(self) -> int:
        """Current queue depth."""
        with self._cond:
            return len(self._queue)

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""
        return self._closed

    def offer(self, request: QueuedRequest) -> bool:
        """Admit a request; ``False`` when full or closed (backpressure)."""
        with self._cond:
            if self._closed or len(self._queue) >= self.capacity:
                return False
            self._queue.append(request)
            self._cond.notify()
            return True

    @contextmanager
    def burst(self) -> Iterator[None]:
        """Queue a burst whole: consumers take nothing while the block
        runs, so the burst splits into the same batches on every call, not
        into whatever a consumer found queued when it woke."""
        with self._cond:
            self._bursts += 1
        try:
            yield
        finally:
            with self._cond:
                self._bursts -= 1
                self._cond.notify_all()

    def next_batch(self) -> Optional[List[QueuedRequest]]:
        """Block while the queue is empty (or a :meth:`burst` is being
        queued), then return what is queued (up to ``max_batch_size``);
        ``None`` once closed and drained.

        Safe for multiple consumer threads: each call takes its batch
        under the queue lock.
        """
        with self._cond:
            while self._bursts or not self._queue:
                if self._closed:
                    return None
                self._cond.wait()
            size = min(len(self._queue), self.max_batch_size)
            return [self._queue.popleft() for _ in range(size)]

    def close(self) -> List[QueuedRequest]:
        """Refuse further admissions, wake consumers, return the leftovers.

        The caller owns the returned requests and must resolve their
        futures (the engine fails them as "engine closed").
        """
        with self._cond:
            self._closed = True
            leftovers = list(self._queue)
            self._queue.clear()
            self._cond.notify_all()
            return leftovers
