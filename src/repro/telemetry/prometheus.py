"""Prometheus text exposition for the metrics registry, plus a scrape server.

:func:`render_prometheus` turns a :class:`~repro.telemetry.metrics.MetricsRegistry`
(or a snapshot dict from one) into the Prometheus text format, version
0.0.4 — the format every scraper and ``curl`` understands:

* counters become ``<name>_total`` counter series,
* gauges become gauge series (unset gauges are omitted),
* histograms become cumulative ``_bucket{le="..."}`` series with the
  conventional ``_sum`` / ``_count`` companions,
* sliding-window histograms (live score distributions) become summaries
  with ``{quantile="..."}`` labels plus a ``_window_size`` gauge, so
  threshold drift is visible to an external scraper without tailing JSONL.

Dotted metric names are mapped to Prometheus identifiers by replacing
dots with underscores and prefixing ``repro_`` (``serving.scored`` →
``repro_serving_scored_total``).  A few *labeled families*
(:data:`LABELED_FAMILIES`) are special-cased: the registry has no label
support, so the serving layer encodes one label dimension as the final
dotted segment (``serving.queue_delay.critical``), and the exporter
folds those back into proper Prometheus labels
(``repro_serving_queue_delay{class="critical"}``) — one family, one
``# TYPE`` line, one series per class/reason, the shape dashboards
expect.

:class:`MetricsServer` is a stdlib :class:`~http.server.ThreadingHTTPServer`
serving ``GET /metrics`` (the rendered registry) and ``GET /healthz`` (a
JSON health document from a caller-supplied probe).  It runs on a daemon
thread so attaching it to the serving service or the stream monitor costs
nothing on the hot path — rendering happens only when a scrape arrives.
"""

from __future__ import annotations

import json
import math
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.exceptions import ConfigurationError
from repro.telemetry.metrics import MetricsRegistry

#: Quantiles exposed for sliding-window summaries.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Dotted-name families whose final segment renders as a Prometheus label
#: rather than being baked into the metric name.  The metrics registry is
#: deliberately label-free; these are the dimensions the serving layer
#: encodes as a name suffix (``serving.queue_delay.critical``).
LABELED_FAMILIES = {
    "serving.queue_delay": "class",
    "serving.admission.admitted": "class",
    "serving.admission.rejected": "reason",
}


def _prom_name(name: str) -> str:
    """Map a dotted registry name onto a Prometheus metric identifier."""
    return "repro_" + name.replace(".", "_")


def _prom_series(name: str) -> Tuple[str, str]:
    """``(metric_name, label)`` for a dotted registry name.

    Names under a :data:`LABELED_FAMILIES` family return the family's
    Prometheus name plus a ``key="value"`` label string; everything else
    returns its own name and an empty label.
    """
    for family, label in LABELED_FAMILIES.items():
        prefix = family + "."
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            if suffix and "." not in suffix:
                return _prom_name(family), f'{label}="{suffix}"'
    return _prom_name(name), ""


def _labels(*parts: str) -> str:
    """Join label fragments into a ``{...}`` block (empty when no labels)."""
    joined = ",".join(part for part in parts if part)
    return f"{{{joined}}}" if joined else ""


def _label_pair(key: str, value: Any) -> str:
    """One ``key="value"`` label fragment."""
    return f'{key}="{value}"'


def _prom_value(value: float) -> str:
    """Format a sample value (Prometheus spells non-finite values out)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def render_prometheus(source: Union[MetricsRegistry, Dict[str, Any]]) -> str:
    """Render a registry (or a ``snapshot()`` dict) as Prometheus text.

    Accepting either form lets the live ``/metrics`` endpoint render the
    current registry while ``repro telemetry`` can re-render the snapshot
    a finished run left in its JSONL trace.
    """
    if isinstance(source, MetricsRegistry):
        lines = _render_registry(source)
    elif isinstance(source, dict):
        lines = _render_snapshot(source)
    else:
        raise ConfigurationError(
            "render_prometheus needs a MetricsRegistry or snapshot dict, "
            f"got {type(source).__name__}"
        )
    return "\n".join(lines) + "\n" if lines else ""


def _type_line(lines: List[str], seen: set, series: str, kind: str) -> None:
    """Emit one ``# TYPE`` line per family (labeled series share theirs)."""
    if series not in seen:
        seen.add(series)
        lines.append(f"# TYPE {series} {kind}")


def _render_registry(registry: MetricsRegistry) -> List[str]:
    lines: List[str] = []
    seen: set = set()
    for name, counter in sorted(registry._counters.items()):
        base, label = _prom_series(name)
        _type_line(lines, seen, f"{base}_total", "counter")
        lines.append(f"{base}_total{_labels(label)} {_prom_value(counter.value)}")
    for name, gauge in sorted(registry._gauges.items()):
        if gauge.value is None:
            continue
        base, label = _prom_series(name)
        _type_line(lines, seen, base, "gauge")
        lines.append(f"{base}{_labels(label)} {_prom_value(gauge.value)}")
    for name, hist in sorted(registry._histograms.items()):
        base, label = _prom_series(name)
        _type_line(lines, seen, base, "histogram")
        cumulative = 0
        for bound, bucket_count in zip(hist.buckets, hist.bucket_counts):
            cumulative += bucket_count
            lines.append(
                f"{base}_bucket"
                f'{_labels(label, _label_pair("le", _prom_value(bound)))}'
                f" {cumulative}"
            )
        cumulative += hist.bucket_counts[-1]
        lines.append(
            f'{base}_bucket{_labels(label, _label_pair("le", "+Inf"))} {cumulative}'
        )
        lines.append(f"{base}_sum{_labels(label)} {_prom_value(hist.total)}")
        lines.append(f"{base}_count{_labels(label)} {hist.count}")
    for name, window in sorted(registry._windows.items()):
        base, label = _prom_series(name)
        _type_line(lines, seen, base, "summary")
        for q in SUMMARY_QUANTILES:
            lines.append(
                f'{base}{_labels(label, _label_pair("quantile", q))}'
                f" {_prom_value(window.quantile(q * 100.0))}"
            )
        values = list(window.window)
        lines.append(f"{base}_sum{_labels(label)} {_prom_value(float(sum(values)))}")
        lines.append(f"{base}_count{_labels(label)} {window.observed}")
        _type_line(lines, seen, f"{base}_window_size", "gauge")
        lines.append(f"{base}_window_size{_labels(label)} {len(values)}")
    return lines


def _render_snapshot(snapshot: Dict[str, Any]) -> List[str]:
    lines: List[str] = []
    seen: set = set()
    for name, value in sorted(snapshot.get("counters", {}).items()):
        base, label = _prom_series(name)
        _type_line(lines, seen, f"{base}_total", "counter")
        lines.append(f"{base}_total{_labels(label)} {_prom_value(value)}")
    for name, value in sorted(snapshot.get("gauges", {}).items()):
        if value is None:
            continue
        base, label = _prom_series(name)
        _type_line(lines, seen, base, "gauge")
        lines.append(f"{base}{_labels(label)} {_prom_value(value)}")
    # Snapshots keep percentile rollups, not raw buckets, so both session
    # histograms and windows degrade to summaries here.
    for kind in ("histograms", "windows"):
        for name, summary in sorted(snapshot.get(kind, {}).items()):
            base, label = _prom_series(name)
            _type_line(lines, seen, base, "summary")
            count = summary.get("count", 0)
            if count:
                for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
                    lines.append(
                        f'{base}{_labels(label, _label_pair("quantile", q))}'
                        f" {_prom_value(summary[key])}"
                    )
                lines.append(
                    f"{base}_sum{_labels(label)} {_prom_value(summary['mean'] * count)}"
                )
            lines.append(f"{base}_count{_labels(label)} {summary.get('observed', count)}")
    return lines


class MetricsServer:
    """Stdlib HTTP server exposing ``/metrics`` and ``/healthz``.

    Parameters
    ----------
    registry:
        The registry rendered on each ``/metrics`` scrape.
    health:
        Zero-argument callable returning a JSON-serializable health dict;
        ``/healthz`` answers 200 when it reports ``{"healthy": true}``
        (the default probe) and 503 otherwise.
    host / port:
        Bind address.  ``port=0`` picks a free port — read it back from
        :attr:`port` after :meth:`start` (tests and parallel CI use this).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        health: Optional[Callable[[], Dict[str, Any]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.health = health if health is not None else (lambda: {"healthy": True})
        self.host = host
        self.port = port
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsServer":
        """Bind and serve on a daemon thread; returns self for chaining."""
        if self._server is not None:
            return self
        outer = self

        class _Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
                path = self.path.split("?", 1)[0]
                if path == "/metrics":
                    body = render_prometheus(outer.registry).encode("utf-8")
                    self.send_response(200)
                    self.send_header("Content-Type", CONTENT_TYPE)
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                elif path == "/healthz":
                    try:
                        report = outer.health()
                    except Exception as exc:  # probe itself failing = unhealthy
                        report = {"healthy": False, "error": str(exc)}
                    body = json.dumps(report, sort_keys=True).encode("utf-8")
                    status = 200 if report.get("healthy") else 503
                    self.send_response(status)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(body)))
                    self.end_headers()
                    self.wfile.write(body)
                else:
                    self.send_response(404)
                    self.send_header("Content-Length", "0")
                    self.end_headers()

            def log_message(self, fmt: str, *args: Any) -> None:
                pass  # scrapes are high-frequency; keep stderr quiet

        server = ThreadingHTTPServer((self.host, self.port), _Handler)
        server.daemon_threads = True
        self._server = server
        self.port = server.server_address[1]
        # stop() waits for serve_forever's next poll; a short poll keeps
        # shutdown prompt.
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        """Base URL of the running server (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut the server down and join its thread."""
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> bool:
        self.stop()
        return False
