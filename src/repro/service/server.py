"""The ``afraid-sim serve`` HTTP/JSON front end.

Pure stdlib: a :class:`http.server.ThreadingHTTPServer` (one thread per
connection, daemonised) over the :class:`~repro.service.manager.JobManager`.

Endpoints::

    GET    /healthz            liveness + queue occupancy
    GET    /metrics            Prometheus text exposition (obs.export)
    POST   /jobs               submit a job (202; 400 bad spec; 429 full)
    GET    /jobs               every job's snapshot
    GET    /jobs/<id>          one job's snapshot (404 unknown)
    GET    /jobs/<id>/result   per-cell results once terminal (409 before)
    GET    /jobs/<id>/events   NDJSON event stream; ``?since=N`` resumes,
                               ``?follow=0`` returns without blocking
    GET    /timeline           service-wide correlation timeline as NDJSON
                               (``?since=N`` filters by event seq)
    DELETE /jobs/<id>          cancel the job's unfinished cells

Backpressure is explicit: a full queue answers ``429`` with a
``Retry-After`` header and the occupancy in the body, so clients can
implement honest retry loops instead of timing out blind.
"""

from __future__ import annotations

import json
import re
import threading
import typing

from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.export import prometheus_text
from repro.service.manager import JobManager, QueueFull, ServiceClosed
from repro.service.protocol import ProtocolError, parse_job_payload

_JOB_PATH = re.compile(r"^/jobs/(?P<id>[^/]+)(?P<rest>/result|/events)?$")

#: Maximum accepted request body (a ladder over every workload is ~1 KB;
#: this is purely an abuse guard).
MAX_BODY_BYTES = 1 << 20


def _json_safe(value):
    if isinstance(value, float) and value != value:  # NaN
        return None
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    return value


def encode_json(payload: dict) -> bytes:
    """Strict-JSON body bytes (infinities as ``"inf"``, the cache convention)."""
    return (json.dumps(_json_safe(payload)) + "\n").encode("utf-8")


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the manager; all bodies are JSON or NDJSON."""

    server_version = "afraid-sim-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def manager(self) -> JobManager:
        return self.server.manager  # type: ignore[attr-defined]

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib name
        if not self.server.quiet:  # type: ignore[attr-defined]
            super().log_message(format, *args)

    # -- plumbing ---------------------------------------------------------------

    def _reply(self, status: int, payload: dict, headers: dict | None = None) -> None:
        body = encode_json(payload)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _reply_text(self, status: int, text: str, content_type: str) -> None:
        body = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, message: str, headers: dict | None = None) -> None:
        self._reply(status, {"error": message}, headers)

    def _read_body(self):
        """The request's JSON body; a bad length or body is a :class:`ProtocolError`."""
        header = self.headers.get("Content-Length") or "0"
        length = int(header) if header.isdigit() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The unread body would be parsed as the next request.
            self.close_connection = True
            if length < 0:
                raise ProtocolError(f"bad Content-Length {header!r}")
            raise ProtocolError(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ProtocolError("empty request body; expected a JSON job payload")
        try:
            return json.loads(raw)
        except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
            raise ProtocolError(f"request body is not valid JSON: {exc}") from None

    # -- routes -----------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib casing
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._reply(200, self.manager.health())
            return
        if path == "/metrics":
            self._reply_text(
                200,
                prometheus_text(self.manager.metrics.registry),
                "text/plain; version=0.0.4",
            )
            return
        if path == "/jobs":
            self._reply(
                200, {"jobs": [job.snapshot() for job in self.manager.list_jobs()]}
            )
            return
        if path == "/timeline":
            self._serve_timeline(query)
            return
        match = _JOB_PATH.match(path)
        if match is None:
            self._error(404, f"no such route: {path}")
            return
        job = self.manager.get(match.group("id"))
        if job is None:
            self._error(404, f"no such job: {match.group('id')}")
            return
        rest = match.group("rest")
        if rest is None:
            self._reply(200, job.snapshot())
        elif rest == "/result":
            if not job.terminal:
                self._error(409, f"job {job.id} is {job.state}; results need a terminal job")
            else:
                self._reply(200, job.result_payload())
        else:
            self._stream_events(job, query)

    def do_POST(self) -> None:  # noqa: N802 - stdlib casing
        if self.path.partition("?")[0] != "/jobs":
            self._error(404, f"no such route: {self.path}")
            return
        try:
            job = self.manager.submit(parse_job_payload(self._read_body()))
        except ProtocolError as exc:
            self._error(400, str(exc))
        except QueueFull as exc:
            self._error(
                429,
                str(exc),
                headers={
                    "Retry-After": "1",
                    "X-Queue-Pending": str(exc.pending),
                    "X-Queue-Limit": str(exc.limit),
                },
            )
        except ServiceClosed as exc:
            self._error(503, str(exc))
        else:
            self._reply(202, job.snapshot())

    def do_DELETE(self) -> None:  # noqa: N802 - stdlib casing
        match = _JOB_PATH.match(self.path.partition("?")[0])
        if match is None or match.group("rest") is not None:
            self._error(404, f"no such route: {self.path}")
            return
        job = self.manager.cancel(match.group("id"))
        if job is None:
            self._error(404, f"no such job: {match.group('id')}")
        else:
            self._reply(200, job.snapshot())

    def _serve_timeline(self, query: str) -> None:
        """``GET /timeline``: the service-wide correlation timeline, NDJSON.

        One JSON object per event (the same schema the nemesis soak
        writes as ``timeline.jsonl``); ``?since=N`` returns only events
        with ``seq >= N`` for incremental polling.
        """
        params = dict(
            part.split("=", 1) for part in query.split("&") if "=" in part
        )
        try:
            since = int(params.get("since", 0))
        except ValueError:
            self._error(400, f"bad since={params.get('since')!r}")
            return
        lines = [
            encode_json(payload)
            for payload in self.manager.timeline.to_payloads()
            if payload["seq"] >= since
        ]
        body = b"".join(lines)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # -- NDJSON event streaming ---------------------------------------------------

    def _stream_events(self, job, query: str) -> None:
        params = dict(
            part.split("=", 1) for part in query.split("&") if "=" in part
        )
        try:
            since = int(params.get("since", 0))
        except ValueError:
            self._error(400, f"bad since={params.get('since')!r}")
            return
        follow = params.get("follow", "1") not in ("0", "false", "no")

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()

        def write_chunk(data: bytes) -> None:
            self.wfile.write(f"{len(data):x}\r\n".encode("ascii"))
            self.wfile.write(data)
            self.wfile.write(b"\r\n")

        try:
            while True:
                events = (
                    job.wait_events(since, timeout=1.0)
                    if follow
                    else job.events[since:]
                )
                for event in events:
                    write_chunk(encode_json(event))
                since += len(events)
                if not follow or (job.terminal and since >= len(job.events)):
                    break
            self.wfile.write(b"0\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to clean up


class ServiceServer(ThreadingHTTPServer):
    """The daemon's listener; one daemon thread per connection."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        manager: JobManager,
        quiet: bool = True,
        handler: type[BaseHTTPRequestHandler] = ServiceHandler,
    ) -> None:
        super().__init__(address, handler)
        self.manager = manager
        self.quiet = quiet

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def run_server(
    manager: JobManager,
    host: str = "127.0.0.1",
    port: int = 0,
    install_signal_handlers: bool = True,
    quiet: bool = True,
    on_ready: typing.Callable[[ServiceServer], None] | None = None,
) -> None:
    """Serve until SIGTERM/SIGINT, then drain gracefully.

    Graceful drain: stop accepting connections, finish every admitted
    cell (writing results through to the cache), then stop the worker
    pool.  A second signal is not special-cased — the drain is already
    as fast as the in-flight cells allow.
    """
    server = ServiceServer((host, port), manager, quiet=quiet)

    if install_signal_handlers:
        import signal

        def _initiate_shutdown(_signum, _frame) -> None:
            # serve_forever() must be unblocked from another thread.
            threading.Thread(target=server.shutdown, daemon=True).start()

        signal.signal(signal.SIGTERM, _initiate_shutdown)
        signal.signal(signal.SIGINT, _initiate_shutdown)

    if on_ready is not None:
        on_ready(server)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
        manager.shutdown(drain=True)
