"""JSON-over-HTTP plumbing shared by the mining service and the cluster worker.

Response writers, the request-body reader, ``GET /metrics`` content
negotiation, the 404 body and the server settings — nothing about
either server's routes, so the worker never imports the service.  A
malformed request raises :class:`~repro.exceptions.InvalidParameterError`,
which each server answers with its own 400 body.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Mapping

from repro.exceptions import InvalidParameterError
from repro.obs.prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus

NOT_FOUND: dict[str, object] = {
    "error": {"code": "not_found", "message": "unknown endpoint"}
}


class JsonRequestHandler(BaseHTTPRequestHandler):
    """Request-handler base: JSON/text responses and body framing."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: object) -> None:
        """Quiet by default: telemetry lives in /metrics, not stderr."""

    def _send_json(
        self,
        status: int,
        payload: dict[str, object],
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload, indent=1).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(
        self, status: int, body: str, content_type: str = "text/plain"
    ) -> None:
        encoded = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(encoded)))
        self.end_headers()
        self.wfile.write(encoded)

    def _content_length(self) -> int:
        """The declared body length (0 when absent).

        Anything but a non-negative decimal integer raises and closes the
        connection after the answer: ``rfile.read(-1)`` would block until
        the client hangs up, and the next request's start is unknown.
        """
        text = (self.headers.get("Content-Length") or "0").strip()
        if not (text.isascii() and text.isdigit()):
            self.close_connection = True
            raise InvalidParameterError(
                f"Content-Length must be a non-negative integer, got {text!r}"
            )
        return int(text)

    def _read_body(self) -> bytes:
        """The request body, framed by :meth:`_content_length`."""
        length = self._content_length()
        return self.rfile.read(length) if length else b""

    def _send_metrics(
        self,
        query: Mapping[str, list[str]],
        snapshot: dict[str, dict[str, object]],
    ) -> None:
        """``GET /metrics`` with content negotiation.

        JSON by default; the Prometheus text exposition format when the
        client asks for it — explicitly (``?format=prometheus``) or via
        an ``Accept`` header preferring ``text/plain``.  Any other
        ``format`` raises :class:`InvalidParameterError`.
        """
        values = query.get("format")
        fmt = values[-1] if values else None
        accept = self.headers.get("Accept") or ""
        if fmt is None and "text/plain" in accept:
            fmt = "prometheus"
        if fmt == "prometheus":
            self._send_text(
                200,
                render_prometheus(snapshot),
                content_type=PROMETHEUS_CONTENT_TYPE,
            )
        elif fmt in (None, "json"):
            self._send_json(200, {
                "format": "repro.service-metrics",
                "version": 1,
                "metrics": snapshot,
            })
        else:
            raise InvalidParameterError(
                f"unknown metrics format {fmt!r}; use 'json' or 'prometheus'"
            )


class JsonHTTPServer(ThreadingHTTPServer):
    """Server settings both HTTP front-ends share."""

    daemon_threads = True
    allow_reuse_address = True
    # admission control is the servers' job, not the accept backlog's:
    # hold connection bursts long enough to answer each one properly
    request_queue_size = 128
