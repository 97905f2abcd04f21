"""Stdlib HTTP front-end of the compilation service (no new dependencies).

Endpoints (all JSON):

``POST /compile``
    body: one :class:`repro.service.api.CompileRequest` dict -- the problem
    (``source`` or ``operands``+``assignments``) plus a nested ``options``
    object (:meth:`repro.options.CompileOptions.to_wire`).  200 with a
    :class:`~repro.service.api.CompileResponse` dict on success; 400 when
    the request is malformed (including any top-level field other than
    these) or the compilation fails (the body still carries the full
    ``ok=False`` response with its ``error`` field).
``POST /batch``
    body: ``{"requests": [<request>, ...]}``.  Always 200 when the batch is
    well-formed; per-request failures are flagged by ``ok`` inside
    ``{"responses": [...], "count": N, "failed": M}``.  When the executor's
    per-worker in-flight bound would be exceeded (backpressure), the whole
    batch -- and likewise a single ``/compile`` -- is rejected with ``429``
    and a ``Retry-After`` header instead of queueing without limit.
``POST /execute``
    body: a ``/compile`` request dict plus a nested ``execute`` object
    (:class:`repro.exec.api.ExecuteRequest`): compile the program AND run
    it through the execution tier -- emit the solved plan as a standalone
    module, import it, execute it against the supplied ``payloads`` (or
    seeded property-respecting random operands) and validate the numerics
    against the direct reference evaluation within ``rtol``.  200 with an
    :class:`~repro.exec.api.ExecuteResponse` dict on success; 400 with the
    full ``ok=False`` response (its ``phase`` names the failing stage) on
    compile/run/validation failure.  Per-phase latencies land in the
    ``repro_execute_phase_seconds`` histogram on ``/metrics``; validation
    failures increment ``repro_execute_validation_failures`` and emit one
    structured warning line.
``POST /profile``
    body: a ``/compile`` request dict; profiling is forced on
    (``options.profile = true``) and the response is ``text/plain``
    collapsed stacks (``frame;frame;frame count_µs`` lines) ready to pipe
    straight into ``flamegraph.pl``.  400 with the JSON ``ok=False``
    response when the compilation fails.
``POST /snapshot``
    persist the executor's cache state (plan cache + match cache) to the
    configured ``--snapshot-dir`` (:mod:`repro.persist.snapshot`); 200 with
    the write metadata, 409 when no snapshot directory is configured.
``GET /stats``
    pooled cache telemetry (see :mod:`repro.telemetry`): per-layer
    hit rates, occupancy and eviction counts, per worker and fleet-wide.
``GET /metrics``
    Prometheus text exposition (scrape with any Prometheus-compatible
    agent, or plain ``curl``): every pooled cache-telemetry layer as
    ``repro_<counter>{layer=...}`` gauges, the pool counters as
    ``repro_pool_*`` gauges and the per-endpoint request-latency
    histograms (``repro_request_latency_seconds``), plus streaming
    quantile series (``repro_*_latency_seconds{quantile="0.5|0.95|0.99"}``)
    rendered from the mergeable analytics sketches.
``GET /analytics``
    workload analytics (:mod:`repro.obs.analytics`): top-k heavy-hitter
    request signatures (Space-Saving sketch, merged across pool workers)
    with per-signature request counts, plan-hit rates and mean latencies,
    plus per-phase/per-endpoint latency quantile summaries.
``GET /timeseries``
    time-series ring buffers of key counters (requests, plan hits, 429
    rejections, validation failures) as ``[[unix_time, value], ...]``
    series at the configured resolution/retention.
``GET /healthz``
    liveness: pings every worker (restarting dead ones), 200 when all are
    alive, 503 when degraded.

Every response carries an ``X-Request-Id`` header (echoing the client's
header or the body's ``request_id`` when supplied, freshly generated
otherwise); the same id travels through the pool workers into the
response body and the structured access-log lines (one JSON line per
request through :mod:`repro.obs.logging`, silent unless the process
opted in via ``configure_logging``).

Connections are HTTP/1.1 keep-alive; each response (status line, headers
and body) goes out in a single socket write, with Nagle's algorithm off.

The server is a :class:`http.server.ThreadingHTTPServer`; concurrency comes
from the worker pool behind it (HTTP threads block on queue round-trips,
not on solves).  Start it from the command line via ``python -m
repro.frontend --serve`` or programmatically via :func:`start_server` (tests
use port 0 to get an ephemeral port).  The command-line server shuts down
cleanly -- workers joined, shutdown snapshot saved -- on SIGINT and SIGTERM
alike.
"""

from __future__ import annotations

import json
import math
import signal
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import urlparse

from ..obs.analytics import (
    analytics_enabled,
    analytics_report,
    merge_analytics_states,
    render_quantile_lines,
    service_analytics,
    timeseries_report,
)
from ..obs.logging import get_logger, log_rate_limited
from ..obs.metrics import render_prometheus, service_metrics
from .api import CompileRequest, RequestError
from .pool import PoolSaturatedError

__all__ = ["ServiceHTTPServer", "start_server", "run_server"]

#: Largest request body accepted, in bytes (guards the stdlib server
#: against unbounded reads; far above any realistic chain spec).
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Endpoints that get their own latency-histogram label; anything else is
#: pooled under ``other`` so unknown paths cannot grow label cardinality.
_KNOWN_ENDPOINTS = frozenset(
    {
        "/healthz",
        "/stats",
        "/metrics",
        "/compile",
        "/batch",
        "/snapshot",
        "/execute",
        "/analytics",
        "/timeseries",
        "/profile",
    }
)

_LOG = get_logger("service.http")


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one executor."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], executor) -> None:
        super().__init__(address, _ServiceRequestHandler)
        self.executor = executor


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server_version = "repro-compilation-service/1.0"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY on every connection (stdlib StreamRequestHandler knob).
    disable_nagle_algorithm = True

    # ------------------------------------------------------------- plumbing
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # The stdlib's plain-text access log is replaced by one structured
        # JSON line per request (see _handle); silent unless the hosting
        # process opted in via repro.obs.configure_logging.
        pass

    def _send_json(
        self, status: int, payload: dict, extra_headers: Optional[dict] = None
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self._send_body(status, body, "application/json", extra_headers)

    def _send_text(
        self, status: int, text: str, content_type: str = "text/plain; charset=utf-8"
    ) -> None:
        self._send_body(status, text.encode("utf-8"), content_type, None)

    def _send_body(
        self,
        status: int,
        body: bytes,
        content_type: str,
        extra_headers: Optional[dict],
    ) -> None:
        self._status = status
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        request_id = getattr(self, "_request_id", None)
        if request_id is not None:
            self.send_header("X-Request-Id", request_id)
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        if self.request_version == "HTTP/0.9":  # body only, no head
            self.wfile.write(body)
            return
        # Status line, headers and body leave in ONE write: a second small
        # send on a keep-alive socket would wait out the client's delayed
        # ACK under Nagle's algorithm (~40 ms per response).
        self._headers_buffer.extend((b"\r\n", body))
        self.flush_headers()

    def _read_json(self) -> object:
        length = int(self.headers.get("Content-Length", 0) or 0)
        if length <= 0:
            raise RequestError("missing request body")
        if length > MAX_BODY_BYTES:
            # The oversized body is never read; close the keep-alive
            # connection after the 400 so the bytes cannot corrupt the
            # next request on the socket.
            self.close_connection = True
            raise RequestError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RequestError(f"invalid JSON body: {exc}") from exc

    # ------------------------------------------------------------- handlers
    def do_GET(self) -> None:  # noqa: N802 -- stdlib naming
        self._handle("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 -- stdlib naming
        self._handle("POST", self._handle_post)

    def _handle(self, method: str, inner) -> None:
        """Shared per-request envelope: request id, latency, access log.

        Every response echoes an ``X-Request-Id`` header (the client's, when
        supplied; a fresh one otherwise); every request lands one
        observation in the per-endpoint latency histogram ``/metrics``
        renders and one structured access-log line.
        """
        started = time.perf_counter()
        path = urlparse(self.path).path
        # The header id seeds request-id propagation; /compile replaces it
        # with the response's canonical id (which travels through the pool
        # workers on the request wire).
        self._request_id = self.headers.get("X-Request-Id") or uuid.uuid4().hex
        self._status: Optional[int] = None
        try:
            inner(path)
        finally:
            elapsed = time.perf_counter() - started
            endpoint = path if path in _KNOWN_ENDPOINTS else "other"
            service_metrics().histogram(
                "repro_request_latency_seconds",
                help_text="HTTP request latency by endpoint, in seconds",
                endpoint=endpoint,
                method=method,
            ).observe(elapsed)
            if analytics_enabled():
                # The quantile-sketch twin of the histogram above: true
                # p50/p95/p99 per endpoint rather than bucket edges.
                service_analytics().observe_latency(
                    "endpoint_latency_seconds", "endpoint", endpoint, elapsed
                )
            _LOG.info(
                "http request",
                extra={
                    "method": method,
                    "path": path,
                    "status": self._status,
                    "duration_ms": round(elapsed * 1e3, 3),
                    "request_id": self._request_id,
                },
            )

    def _handle_get(self, path: str) -> None:
        executor = self.server.executor
        try:
            if path == "/healthz":
                health = executor.ping()
                status = 200 if health.get("status") == "ok" else 503
                self._send_json(status, health)
            elif path == "/stats":
                self._send_json(200, executor.stats())
            elif path == "/metrics":
                self._send_text(200, self._render_metrics(executor))
            elif path == "/analytics":
                self._send_json(
                    200,
                    analytics_report(
                        self._pooled_analytics(executor),
                        service_analytics().state(),
                    ),
                )
            elif path == "/timeseries":
                merged = merge_analytics_states(
                    [self._pooled_analytics(executor), service_analytics().state()]
                )
                self._send_json(200, timeseries_report(merged))
            else:
                self._send_json(404, {"error": f"unknown path {path!r}"})
        except Exception as exc:  # noqa: BLE001 -- never drop the connection
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})

    @staticmethod
    def _pooled_analytics(executor) -> dict:
        """The fleet-wide ``analytics`` telemetry layer (merged sketches)."""
        stats = executor.stats()
        return (stats.get("caches") or {}).get("analytics") or {}

    def _render_metrics(self, executor) -> str:
        """The ``GET /metrics`` body: Prometheus text exposition of the
        pooled cache-telemetry layers, the pool counters, the HTTP latency
        histograms and the streaming-quantile latency series."""
        stats = executor.stats()
        gauges = {"service_workers": stats.get("workers", 0)}
        for key, value in (stats.get("pool") or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                gauges[f"pool_{key}"] = value
        body = render_prometheus(
            cache_layers=stats.get("caches") or {},
            registry=service_metrics(),
            extra_gauges=gauges,
        )
        # Quantile gauges use metric names of their own, so appending
        # keeps every metric's samples contiguous as the format requires.
        return body + render_quantile_lines(
            [
                (stats.get("caches") or {}).get("analytics"),
                service_analytics().state(),
            ]
        )

    def _observe_execution(self, response) -> None:
        """Per-phase latency histograms and validation-failure accounting
        for one ``/execute`` response."""
        metrics = service_metrics()
        for key, elapsed in (response.timing or {}).items():
            if not key.endswith("_s"):
                continue
            metrics.histogram(
                "repro_execute_phase_seconds",
                help_text="POST /execute latency by phase, in seconds",
                phase=key[:-2],
            ).observe(elapsed)
            if analytics_enabled():
                service_analytics().observe_latency(
                    "execute_phase_latency_seconds", "phase", key[:-2], elapsed
                )
        # Touched on every execute (not just failures) so the exposition
        # shows an explicit zero sample before the first divergence.
        failures = metrics.counter(
            "repro_execute_validation_failures",
            help_text="Executions whose result diverged from the reference",
        )
        failures.inc(0.0)
        if response.validated is False:
            failures.inc()
            if analytics_enabled():
                service_analytics().record_point("validation_failures")
            # Token-bucket suppressed: a replayed divergent request must
            # not emit one warning line per request.
            log_rate_limited(
                _LOG,
                "warning",
                "execute validation failed",
                key="http-execute-validation",
                request_id=response.request_id,
                engine=response.engine,
                implementation=response.implementation,
                max_rel_error=response.max_rel_error,
                worker=response.worker,
                error=response.error,
            )

    def _handle_post(self, path: str) -> None:
        executor = self.server.executor
        try:
            if path == "/snapshot":
                # No body required: the snapshot target is server-side
                # configuration (--snapshot-dir), not request data.  Any
                # body a client does send must still be drained -- the
                # connection is keep-alive (HTTP/1.1), and unread bytes
                # would be parsed as the start of the next request.
                length = int(self.headers.get("Content-Length", 0) or 0)
                if length > MAX_BODY_BYTES:
                    # Too large to drain: drop the connection after the
                    # error response instead of leaving unread bytes.
                    self.close_connection = True
                    raise RequestError(
                        f"request body exceeds {MAX_BODY_BYTES} bytes"
                    )
                if length > 0:
                    self.rfile.read(length)
                if getattr(executor, "snapshot_dir", None) is None:
                    self._send_json(
                        409,
                        {"error": "no snapshot directory configured (--snapshot-dir)"},
                    )
                else:
                    self._send_json(200, executor.save_snapshot())
                return
            payload = self._read_json()
            if path == "/compile":
                # Propagate the header id into the request wire (unless the
                # body carries its own): it rides through the pool worker
                # into the response and every log line along the way.
                if isinstance(payload, dict) and not payload.get("request_id"):
                    payload = dict(payload, request_id=self._request_id)
                request = CompileRequest.from_dict(payload)
                response = executor.submit(request)
                self._request_id = response.request_id or self._request_id
                self._send_json(200 if response.ok else 400, response.to_dict())
            elif path == "/execute":
                # Imported lazily (repro.exec.api imports this package).
                from ..exec.api import ExecuteRequest

                if isinstance(payload, dict) and not payload.get("request_id"):
                    payload = dict(payload, request_id=self._request_id)
                exec_request = ExecuteRequest.from_dict(payload)
                exec_response = executor.execute(exec_request)
                self._request_id = exec_response.request_id or self._request_id
                self._observe_execution(exec_response)
                self._send_json(
                    200 if exec_response.ok else 400, exec_response.to_dict()
                )
            elif path == "/profile":
                # A /compile request with profiling forced on; returns the
                # collapsed stacks as text/plain, ready to pipe straight
                # into flamegraph.pl.
                if isinstance(payload, dict) and not payload.get("request_id"):
                    payload = dict(payload, request_id=self._request_id)
                request = CompileRequest.from_dict(payload)
                request.options = request.options.replace(profile=True)
                response = executor.submit(request)
                self._request_id = response.request_id or self._request_id
                if not response.ok:
                    self._send_json(400, response.to_dict())
                else:
                    collapsed = (response.profile or {}).get("collapsed", "")
                    self._send_text(200, collapsed)
            elif path == "/batch":
                if not isinstance(payload, dict) or not isinstance(
                    payload.get("requests"), list
                ):
                    raise RequestError("batch body must be {'requests': [...]}")
                requests = [
                    CompileRequest.from_dict(entry) for entry in payload["requests"]
                ]
                responses = executor.compile_batch(requests)
                self._send_json(
                    200,
                    {
                        "responses": [response.to_dict() for response in responses],
                        "count": len(responses),
                        "failed": sum(1 for r in responses if not r.ok),
                    },
                )
            else:
                self._send_json(404, {"error": f"unknown path {path!r}"})
        except PoolSaturatedError as exc:
            if analytics_enabled():
                service_analytics().record_point("rejections_429")
            retry_after = max(1, math.ceil(exc.retry_after))
            self._send_json(
                429,
                {"error": str(exc), "retry_after": retry_after},
                extra_headers={"Retry-After": str(retry_after)},
            )
        except RequestError as exc:
            self._send_json(400, {"error": str(exc)})
        except Exception as exc:  # noqa: BLE001 -- never drop the connection
            self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})


def start_server(
    executor, host: str = "127.0.0.1", port: int = 0
) -> Tuple[ServiceHTTPServer, threading.Thread]:
    """Start a server on a background thread; returns ``(server, thread)``.

    Pass ``port=0`` to bind an ephemeral port; the bound address is at
    ``server.server_address``.  The caller owns shutdown:
    ``server.shutdown(); thread.join(); executor.close()``.
    """
    server = ServiceHTTPServer((host, port), executor)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-service-http", daemon=True
    )
    thread.start()
    return server, thread


def run_server(
    executor, host: str = "127.0.0.1", port: int = 8077
) -> int:
    """Serve until SIGINT or SIGTERM (the blocking CLI path).

    Both signals leave through the same ``finally``: the executor is
    closed, so pool workers are joined (never orphaned) and the shutdown
    snapshot is saved.  Must run on the main thread (signal handlers).
    """
    server = ServiceHTTPServer((host, port), executor)
    bound_host, bound_port = server.server_address[:2]
    mode = "in-process" if executor.workers == 0 else f"{executor.workers} workers"
    print(
        f"repro compilation service listening on http://{bound_host}:{bound_port} "
        f"({mode})",
        flush=True,
    )
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
        executor.close()
    return 0


def _interrupt(signum, frame) -> None:
    """SIGTERM handler of :func:`run_server`: unwind like Ctrl-C."""
    raise KeyboardInterrupt
