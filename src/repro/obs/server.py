"""Live metric surfaces: a background ``/metrics`` endpoint and a
periodic snapshot writer.

Both are pure stdlib and strictly opt-in — nothing here is imported on
a hot path, and neither touches a registry that is not explicitly
handed to it.

* :class:`MetricsServer` — a daemon-threaded
  :class:`~http.server.ThreadingHTTPServer` exposing

  * ``/metrics`` — the registry in Prometheus exposition format
    (what ``repro simulate --serve-metrics :9100`` serves, scrapeable
    mid-run);
  * ``/series.json`` — the per-window record series
    (:mod:`repro.obs.snapshots`), the data source for
    ``repro top http://host:port``; ``?since=N`` returns only the
    records from index ``N`` on, so pollers fetch each window once;
  * ``/alerts.json`` — the SLO engine's rules, active alerts and
    alert history (:mod:`repro.obs.slo`; an empty document when no
    engine is attached);
  * ``/shards.json`` — per-shard / per-tenant rollups of every
    ``shard=`` / ``tenant=`` labelled series
    (:func:`~repro.obs.crossproc.shard_tenant_summary`), the data
    source for the shards/tenants panes of ``repro top``;
  * ``/healthz`` — liveness probe.

  Unknown paths get a JSON 404 body (``{"error": "not found", ...}``)
  so programmatic pollers fail loudly and parseably.

  Binding port 0 picks an ephemeral port (exposed as ``.port`` after
  :meth:`~MetricsServer.start`), which is what the tests use.

* :class:`PeriodicMetricsWriter` — a daemon thread re-rendering the
  registry to a file every ``interval`` seconds
  (``--metrics-interval``), so an external collector can tail a
  long run without speaking HTTP.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .crossproc import shard_tenant_summary
from .export import to_prometheus, write_metrics
from .registry import MetricsRegistry
from .slo import NULL_SLO_ENGINE

__all__ = [
    "MetricsServer",
    "PeriodicMetricsWriter",
    "parse_serve_spec",
]


def parse_serve_spec(spec: str) -> Tuple[str, int]:
    """Parse a ``--serve-metrics`` spec: ``:9100``, ``9100`` or
    ``host:9100`` (default host ``127.0.0.1``)."""
    spec = spec.strip()
    host, sep, port_text = spec.rpartition(":")
    if not sep:
        host, port_text = "", spec
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad --serve-metrics spec {spec!r}: expected [host]:port"
        )
    if not 0 <= port <= 65535:
        raise ValueError(f"port out of range in --serve-metrics {spec!r}")
    return host, port


class _MetricsHandler(BaseHTTPRequestHandler):
    """Request handler bound to one registry via the server object."""

    server_version = "repro-metrics/1"

    def _send(self, status: int, content_type: str, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        registry: MetricsRegistry = self.server.registry  # type: ignore
        parts = urlsplit(self.path)
        path = parts.path
        if path == "/metrics":
            body = to_prometheus(registry).encode("utf-8")
            self._send(
                200, "text/plain; version=0.0.4; charset=utf-8", body
            )
        elif path == "/series.json":
            since = 0
            raw = parse_qs(parts.query).get("since", ["0"])[-1]
            try:
                since = max(0, int(raw))
            except ValueError:
                self._send(
                    400, "application/json",
                    json.dumps(
                        {"error": "bad since parameter", "since": raw}
                    ).encode("utf-8") + b"\n",
                )
                return
            with registry._lock:
                series = list(registry.window_series[since:])
            body = json.dumps(series).encode("utf-8")
            self._send(200, "application/json", body)
        elif path == "/alerts.json":
            slo = getattr(self.server, "slo", None) or NULL_SLO_ENGINE
            body = json.dumps(slo.as_json(), sort_keys=True).encode("utf-8")
            self._send(200, "application/json", body)
        elif path == "/shards.json":
            body = json.dumps(
                shard_tenant_summary(registry), sort_keys=True
            ).encode("utf-8")
            self._send(200, "application/json", body)
        elif path in ("/", "/healthz"):
            self._send(200, "text/plain; charset=utf-8", b"ok\n")
        else:
            body = json.dumps(
                {
                    "error": "not found",
                    "path": path,
                    "endpoints": [
                        "/metrics", "/series.json", "/alerts.json",
                        "/shards.json", "/healthz",
                    ],
                }
            ).encode("utf-8") + b"\n"
            self._send(404, "application/json", body)

    def log_message(self, format: str, *args) -> None:
        """Silence per-request stderr logging (a scraper polling every
        second would otherwise bury the run's own output)."""


class MetricsServer:
    """A background HTTP server over one metrics registry."""

    def __init__(
        self,
        registry: MetricsRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        slo=None,
    ) -> None:
        self.registry = registry
        self.host = host
        self.requested_port = port
        self.port: Optional[int] = None
        #: SLO engine served at ``/alerts.json`` (``None`` -> empty doc).
        self.slo = slo
        self._httpd: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "MetricsServer":
        """Bind and serve in a daemon thread; returns self (``.port``
        holds the bound port, useful with port 0)."""
        if self._httpd is not None:
            return self
        httpd = ThreadingHTTPServer(
            (self.host, self.requested_port), _MetricsHandler
        )
        httpd.daemon_threads = True
        httpd.registry = self.registry  # type: ignore[attr-defined]
        httpd.slo = self.slo  # type: ignore[attr-defined]
        self._httpd = httpd
        self.port = httpd.server_address[1]
        self._thread = threading.Thread(
            target=httpd.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._httpd is None:
            return
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._httpd = None
        self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class PeriodicMetricsWriter:
    """Re-render a registry to ``path`` every ``interval`` seconds in a
    daemon thread (plus once on :meth:`stop`, so the file always ends
    at the final state)."""

    def __init__(
        self,
        registry: MetricsRegistry,
        path: str,
        fmt: str = "json",
        interval: float = 5.0,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.registry = registry
        self.path = path
        self.fmt = fmt
        self.interval = interval
        self.writes = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def _write(self) -> None:
        write_metrics(self.registry, self.path, self.fmt)
        self.writes += 1

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self._write()

    def start(self) -> "PeriodicMetricsWriter":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop,
                name="repro-metrics-writer",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._write()

    def __enter__(self) -> "PeriodicMetricsWriter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
