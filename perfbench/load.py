"""The load process: seeded frames and the closed and open phases.

Both phases drive the server from this one process, one thread and one
``ServingClient`` connection per camera.

* Closed phase: each connection sends its next frame when the previous
  reply arrives.
* Open phase: camera ``i`` sends frame ``k`` at
  ``start + offset_i + k / rate_i``, however late the previous reply was;
  a frame is timed from when it was due, so a stall is charged to every
  frame it delays.

Each phase draws its frame orders from its own seeded stream, so the
same seed replays the same traffic.
"""

from __future__ import annotations

import resource
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

monotonic = time.monotonic

#: A camera that falls this far behind its schedule stops sending; the
#: frames it still owed count as failed ("due but not sent").
MAX_BEHIND_S = 5.0


@dataclass
class Record:
    """One score request as the load process saw it."""

    conn: int
    frame: int
    due: float
    sent: float
    done: float
    status: str
    port: int = 0
    wire_id: int = 0
    score: Optional[float] = None
    is_novel: Optional[bool] = None

    @property
    def latency_s(self) -> float:
        """Due-to-reply time; infinite unless the verdict is ``ok``."""
        if self.status != "ok":
            return float("inf")
        return self.done - self.due


@dataclass
class Phase:
    name: str
    start: float
    end: float
    records: List[Record] = field(default_factory=list)
    cpu_s: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def render_frames(image_shape: Tuple[int, int], seed: int, count: int) -> np.ndarray:
    """A seeded DSU drive with a seeded share of DSI frames mixed in."""
    from repro.datasets import SyntheticIndoor, SyntheticUdacity

    rng = np.random.default_rng(seed)
    n_dsi = int(round(count * rng.uniform(0.2, 0.35)))
    drive = SyntheticUdacity(image_shape).render_drive(count - n_dsi, rng=seed).frames
    indoor = SyntheticIndoor(image_shape).render_batch(n_dsi, rng=seed + 1).frames
    frames = np.concatenate([drive, indoor])
    return frames[rng.permutation(count)]


def local_port(client) -> int:
    """The connection's local port: with the wire id, the request's name
    in a trace (0 if the client does not expose its socket)."""
    sock = getattr(client, "_sock", None)
    return sock.getsockname()[1] if sock is not None else 0


def _send(client, frame: np.ndarray, identity, conn: int, index: int, due: float) -> Record:
    from repro.exceptions import ServingError

    client_id, priority = identity
    sent = monotonic()
    try:
        reply = client.score(frame, client_id=client_id, priority=priority)
    except ServingError as exc:
        return Record(conn, index, due, sent, monotonic(), f"transport: {exc}")
    done = monotonic()
    record = Record(conn, index, due, sent, done, str(reply.get("status")))
    record.wire_id = int(reply.get("id", 0))
    if record.status == "ok":
        record.score = float(reply["score"])
        record.is_novel = bool(reply["is_novel"])
    return record


def _stream(stream: Sequence[int], conn: int) -> np.random.Generator:
    return np.random.default_rng([*stream, conn])


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def closed_phase(clients, identities, frames: np.ndarray, stream: Sequence[int],
                 seconds: float) -> Phase:
    """Each connection keeps exactly one request in flight for ``seconds``."""
    phase = Phase("closed", 0.0, 0.0)
    per_conn: List[List[Record]] = [[] for _ in clients]

    def loop(conn: int) -> None:
        order = _stream(stream, conn).permutation(len(frames))
        k = 0
        while monotonic() < phase.end:
            index = int(order[k % len(order)])
            now = monotonic()
            per_conn[conn].append(
                _send(clients[conn], frames[index], identities[conn], conn, index, now)
            )
            k += 1

    cpu = _cpu()
    phase.start = monotonic()
    phase.end = phase.start + seconds
    _run_threads([lambda c=c: loop(c) for c in range(len(clients))])
    return _finish(phase, per_conn, clients, cpu)


def open_phase(clients, identities, frames: np.ndarray, stream: Sequence[int],
               seconds: float, rates: Sequence[float], offsets: Sequence[float]) -> Phase:
    """Camera ``i`` sends on a fixed period ``1 / rates[i]``, starting
    ``offsets[i]`` seconds in, for ``seconds``."""
    phase = Phase("open", 0.0, 0.0)
    per_conn: List[List[Record]] = [[] for _ in clients]

    def loop(conn: int) -> None:
        order = _stream(stream, conn).permutation(len(frames))
        period = 1.0 / rates[conn]
        k = 0
        while True:
            due = phase.start + offsets[conn] + k * period
            if due >= phase.end:
                return
            index = int(order[k % len(order)])
            now = monotonic()
            if now - due > MAX_BEHIND_S:
                per_conn[conn].append(Record(conn, index, due, now, now, "unsent"))
            else:
                if due > now:
                    time.sleep(due - now)
                per_conn[conn].append(
                    _send(clients[conn], frames[index], identities[conn], conn, index, due)
                )
            k += 1

    cpu = _cpu()
    # Leave the threads 100 ms to start before the first frame is due.
    phase.start = monotonic() + 0.1
    phase.end = phase.start + seconds
    _run_threads([lambda c=c: loop(c) for c in range(len(clients))])
    return _finish(phase, per_conn, clients, cpu)


def _finish(phase: Phase, per_conn, clients, cpu_before: float) -> Phase:
    phase.cpu_s = _cpu() - cpu_before
    for conn, records in enumerate(per_conn):
        port = local_port(clients[conn])
        for record in records:
            record.port = port
    phase.records = [r for recs in per_conn for r in recs]
    return phase
