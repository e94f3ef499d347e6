"""Per-request attribution of traced spans to layers.

Each request's spans form one tree, rooted at the client's
``client.request`` span:

* spans on one thread nest by the stack they were recorded on;
* the server's spans for the request hang under the client's wait for the
  reply header (``client.wait``);
* the batch that scored the request — its queue wait and fill wait, then
  the dispatch iteration with everything under it — hangs under the
  server's ``engine.wait`` for that request;
* a pool worker's spans hang under the ``pool.request`` that was waiting on
  that worker when they started;
* a thread that waited on another thread's work resumes some time after
  that work ended: the request thread after its batch's dispatch
  iteration (``engine.wake``), and the client after the server wrote the
  reply (``client.wake``: the loopback hop, then the load process's
  thread getting a core and its GIL back).  Each such trailing gap is a
  span of its own, so it is charged to the layer that waits instead of
  hiding in ``unattributed``.

Every child is clipped to its parent and to the end of the sibling before
it, so the children of a span never overlap.  A span's self time is its
duration minus the part its children cover; summed over a tree the self
times equal the root's duration exactly, so the layer self times plus
``unattributed_ms`` add up to the mean client latency.
"""

from __future__ import annotations

import bisect
import json
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Kernels reported per scored frame, from the profiler totals each
#: traced process dumps.
KERNELS = (
    "conv2d_forward",
    "conv_transpose2d",
    "dense_forward",
    "relu_forward",
    "leaky_relu_forward",
    "sigmoid_forward",
)

#: Least share of the mean client latency the layers must explain
#: (``trace.attributed_share``) for a traced run to pass.
MIN_ATTRIBUTED = 0.9

#: Layer each span's self time is charged to.  Waits that no layer
#: explains (the request's loopback hop and the server connection
#: thread waking up to it) stay unattributed.
LAYER_OF = {
    "client.request": "service.client_encode",
    "client.send": "service.client_encode",
    "client.dumps": "service.client_encode",
    "client.wait": "unattributed",
    "client.wake": "loadgen.wake",
    "client.recv": "service.client_decode",
    "client.read": "service.client_decode",
    "client.loads": "service.client_decode",
    "server.recv": "service.server_decode",
    "server.read": "service.server_decode",
    "server.loads": "service.server_decode",
    "server.to_array": "service.server_decode",
    "server.respond": "service.server_respond",
    "server.serialize": "service.server_respond",
    "server.send": "service.server_respond",
    "server.dumps": "service.server_respond",
    "engine.submit": "engine.submit",
    "engine.wait": "unattributed",
    "engine.wake": "engine.wake",
    "admission.admit": "admission.admit",
    "durability.ledger": "durability.ledger",
    "batcher.queue": "batcher.queue_wait",
    "batcher.fill": "batcher.fill_wait",
    "engine.dispatch": "engine.dispatch",
    "pool.score_batch": "pool.transport",
    "pool.request": "pool.transport",
    "telemetry.emit": "telemetry.emit",
}

#: Per-request layer metrics: (layer, metric name, scale from seconds).
REQUEST_LAYERS = (
    ("service.client_encode", "service.client_encode_ms", 1e3),
    ("service.client_decode", "service.client_decode_ms", 1e3),
    ("service.server_decode", "service.server_decode_ms", 1e3),
    ("service.server_respond", "service.server_respond_ms", 1e3),
    ("admission.admit", "admission.admit_us", 1e6),
    ("engine.submit", "engine.submit_us", 1e6),
    ("batcher.queue_wait", "batcher.queue_wait_ms", 1e3),
    ("batcher.fill_wait", "batcher.fill_wait_ms", 1e3),
    ("engine.dispatch", "engine.dispatch_ms", 1e3),
    ("engine.wake", "engine.wake_ms", 1e3),
    ("pool.transport", "pool.transport_ms", 1e3),
    ("pipeline.compute", "pipeline.compute_ms", 1e3),
    ("durability.ledger", "durability.ledger_ms", 1e3),
    ("telemetry.emit", "telemetry.emit_ms", 1e3),
    ("loadgen.wake", "loadgen.wake_ms", 1e3),
    ("unattributed", "unattributed_ms", 1e3),
)

STAGES = (
    "cnn_forward",
    "saliency_cascade",
    "reconstruct",
    "similarity",
    "verdict",
)


def layer_of(name: str) -> str:
    if name.startswith("stage."):
        return "pipeline.compute"
    return LAYER_OF.get(name, "unattributed")


@dataclass
class Span:
    pid: int
    sid: int
    parent: int
    name: str
    start: float
    end: float
    tid: int
    rid: object
    attrs: Optional[dict]


@dataclass
class Node:
    span: Span
    start: float
    end: float
    children: List["Node"] = field(default_factory=list)


def _rid(value) -> Optional[Tuple[int, int]]:
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(
        isinstance(v, int) for v in value
    ):
        return (value[0], value[1])
    return None


class Trace:
    """All spans of one traced run, indexed for tree building."""

    def __init__(self, dumps: Iterable[dict]) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        #: Kernel name -> [calls, seconds, flops, bytes] over all processes.
        self.kernels: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        self.children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
        self.client_root: Dict[Tuple[int, int], Span] = {}
        self.server_roots: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
        self.batch_of: Dict[Tuple[int, int], Tuple[Span, int]] = {}
        self.dispatch_of: Dict[Tuple[int, int], Span] = {}
        self.worker_roots: Dict[int, List[Span]] = defaultdict(list)
        for dump in dumps:
            pid, role = int(dump["pid"]), dump["role"]
            for name, count in dump.get("counts", {}).items():
                self.counts[name] += int(count)
            for name, totals in dump.get("kernels", {}).items():
                self.kernels[name] = [a + b for a, b in zip(self.kernels[name], totals)]
            for raw in dump["spans"]:
                span = Span(pid, *raw)
                self.spans.append(span)
                if span.parent:
                    self.children[(pid, span.parent)].append(span)
                    continue
                self._index_root(span, role)
        for spans in self.children.values():
            spans.sort(key=lambda s: s.start)
        for spans in self.server_roots.values():
            spans.sort(key=lambda s: s.start)
        for spans in self.worker_roots.values():
            spans.sort(key=lambda s: s.start)
        self.worker_starts = {
            pid: [s.start for s in spans] for pid, spans in self.worker_roots.items()
        }

    def _index_root(self, span: Span, role: str) -> None:
        if role == "worker":
            self.worker_roots[span.pid].append(span)
        elif span.name == "client.request":
            rid = _rid(span.rid)
            if rid is not None:
                self.client_root[rid] = span
        elif span.name in ("batcher.next_batch", "engine.dispatch"):
            for i, value in enumerate(span.rid or ()):
                rid = _rid(value)
                if rid is None:
                    continue
                if span.name == "engine.dispatch":
                    self.dispatch_of[rid] = span
                else:
                    self.batch_of[rid] = (span, i)
        elif span.name.startswith("server."):
            rid = _rid(span.rid)
            if rid is not None:
                self.server_roots[rid].append(span)

    # -- tree building -------------------------------------------------
    def tree(self, rid: Tuple[int, int]) -> Optional[Node]:
        root_span = self.client_root.get(rid)
        if root_span is None:
            return None
        root = Node(root_span, root_span.start, root_span.end)
        self._expand(root, self._local_children(root_span))
        reply_wait = _last(root, "client.wait")
        if reply_wait is not None:
            self._expand(reply_wait, self.server_roots.get(rid, []))
            engine_wait = _last(reply_wait, "engine.wait")
            if engine_wait is not None:
                self._expand(engine_wait, self._batch_spans(rid))
                _wake(engine_wait, "engine.wake")
            _wake(reply_wait, "client.wake")
        return root

    def _local_children(self, span: Span) -> List[Span]:
        found = list(self.children.get((span.pid, span.sid), []))
        if span.name == "pool.request" and span.attrs:
            pid = span.attrs.get("worker_pid")
            roots = self.worker_roots.get(pid, [])
            starts = self.worker_starts.get(pid, [])
            lo = bisect.bisect_left(starts, span.start)
            hi = bisect.bisect_left(starts, span.end)
            found += roots[lo:hi]
        return found

    def _batch_spans(self, rid) -> List[Span]:
        spans = []
        batch = self.batch_of.get(rid)
        if batch is not None:
            next_batch, i = batch
            enqueued = next_batch.attrs["enqueued"]
            # The batcher pops a request as soon as it is both queued and
            # the batch's window has opened (the first request's arrival,
            # or the call if it was already queued); it then waits for the
            # window to fill.
            opened = max(next_batch.start, enqueued[0])
            popped = max(enqueued[i], opened)
            spans.append(Span(next_batch.pid, -1, 0, "batcher.queue",
                              enqueued[i], popped, next_batch.tid, rid, None))
            spans.append(Span(next_batch.pid, -2, 0, "batcher.fill",
                              popped, next_batch.end, next_batch.tid, rid, None))
        dispatch = self.dispatch_of.get(rid)
        if dispatch is not None:
            spans.append(dispatch)
        return sorted(spans, key=lambda s: s.start)

    def _expand(self, node: Node, spans: Sequence[Span]) -> None:
        floor = node.start
        for span in sorted(spans, key=lambda s: s.start):
            start = max(span.start, floor)
            end = min(span.end, node.end)
            if end <= start:
                continue
            child = Node(span, start, end)
            node.children.append(child)
            floor = end
            self._expand(child, self._local_children(span))


def _wake(node: Node, name: str) -> None:
    """Charge the gap after a waiting span's last child to ``name``."""
    if not node.children or node.children[-1].end >= node.end:
        return
    start, span = node.children[-1].end, node.span
    node.children.append(Node(
        Span(span.pid, -3, 0, name, start, node.end, span.tid, span.rid, None),
        start, node.end,
    ))


def _last(node: Node, name: str) -> Optional[Node]:
    found = None
    stack = [node]
    while stack:
        current = stack.pop()
        if current.span.name == name and (found is None or current.start > found.start):
            found = current
        stack.extend(current.children)
    return found


def self_times(root: Node) -> Dict[str, float]:
    """Seconds of self time per span name over one tree."""
    totals: Dict[str, float] = defaultdict(float)
    stack = [root]
    while stack:
        node = stack.pop()
        covered = sum(child.end - child.start for child in node.children)
        totals[node.span.name] += (node.end - node.start) - covered
        stack.extend(node.children)
    return totals


def load_dumps(directory: Path) -> List[dict]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("spans-*.json"))]


def layer_metrics(trace: Trace, rids: Sequence[Tuple[int, int]]) -> Dict[str, float]:
    """Per-layer metrics from a traced run's requests (``rids``)."""
    per_layer: Dict[str, float] = defaultdict(float)
    latency = 0.0
    encoded = 0.0
    trees = 0
    for rid in rids:
        root = trace.tree(rid)
        if root is None:
            continue
        trees += 1
        latency += root.end - root.start
        for name, seconds in self_times(root).items():
            per_layer[layer_of(name)] += seconds
        dumps = _last(root, "client.dumps")
        if dumps is not None and dumps.span.attrs:
            encoded += dumps.span.attrs.get("bytes", 0)
    n = max(trees, 1)
    metrics = {
        metric: per_layer.get(layer, 0.0) / n * scale
        for layer, metric, scale in REQUEST_LAYERS
    }
    metrics["latency_mean_ms"] = latency / n * 1e3
    metrics["trace.requests"] = float(trees)
    metrics["trace.attributed_share"] = (
        1.0 - per_layer.get("unattributed", 0.0) / latency if latency else 0.0
    )
    metrics["service.request_kb"] = encoded / n / 1e3
    metrics.update(_batch_metrics(trace))
    return metrics


def _batch_metrics(trace: Trace) -> Dict[str, float]:
    """Work-normalised views: per scored frame, per batch, per decision."""
    duration: Dict[str, float] = defaultdict(float)
    frames: Dict[str, int] = defaultdict(int)
    batches = batched = admits = rejected = 0
    for span in trace.spans:
        name = span.name
        if name.startswith("stage."):
            duration[name] += span.end - span.start
            frames[name] += int((span.attrs or {}).get("frames", 0))
        elif name == "batcher.next_batch":
            batches += 1
            batched += len(span.rid or ())
        elif name == "admission.admit":
            admits += 1
            rejected += not (span.attrs or {}).get("admitted", True)
    scored = max(frames.get("stage.cnn_forward", 0), 1)
    metrics = {
        "batcher.batch_size": batched / batches if batches else 0.0,
        "admission.rejected_share": rejected / admits if admits else 0.0,
        "pool.restarts": float(trace.counts.get("pool.restarts", 0)),
    }
    for stage in STAGES:
        key = f"stage.{stage}"
        metrics[f"{key}_ms"] = duration[key] / max(frames[key], 1) * 1e3
    for kernel in KERNELS:
        _, seconds, flops, nbytes = trace.kernels.get(kernel, (0, 0.0, 0.0, 0.0))
        metrics[f"kernel.{kernel}_ms"] = seconds / scored * 1e3
        metrics[f"kernel.{kernel}_mflop"] = flops / scored / 1e6
        metrics[f"kernel.{kernel}_mb"] = nbytes / scored / 1e6
    return metrics


def trace_problems(dumps: Sequence[dict], trace: Trace,
                   metrics: Dict[str, float]) -> List[str]:
    """Why a traced run's layer figures cannot be trusted (empty = none).

    A hook whose target is gone, a process that wrote no spans, or a trace
    that explains too little of the latency would make a layer read 0 ms
    exactly as if it had been bypassed or made free.
    """
    problems = [
        f"{d['role']} {d['pid']}: hook target {name} not found"
        for d in dumps for name in d.get("missing", ())
    ]
    roles = {d["role"] for d in dumps}
    problems += [f"no span dump from the {role}" for role in ("client", "server")
                 if role not in roles]
    dumped = {int(d["pid"]) for d in dumps}
    workers = {(s.attrs or {}).get("worker_pid") for s in trace.spans
               if s.name == "pool.request"}
    problems += [f"pool worker {pid} wrote no span dump"
                 for pid in sorted(p for p in workers if p is not None and p not in dumped)]
    if metrics["trace.requests"] == 0:
        problems.append("no traced request could be attributed")
    elif metrics["trace.attributed_share"] < MIN_ATTRIBUTED:
        problems.append(
            f"layers explain {metrics['trace.attributed_share']:.1%} of the mean "
            f"client latency, below {MIN_ATTRIBUTED:.0%}"
        )
    return problems
