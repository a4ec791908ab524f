"""The stdlib HTTP binding and graceful shutdown for ``repro serve``.

One :class:`PredictionServer` (a ``ThreadingHTTPServer`` with daemon
handler threads) owns one :class:`~repro.serve.app.ServeApp`; the
request handler is a thin codec — read the body, hash it
(:func:`~repro.serve.protocol.replay_key`) and let ``app.replay``
answer a byte-identical repeat; otherwise parse the JSON body and call
``app.handle``; write the JSON response.  All decisions live in the
app, which is what the unit tests exercise without sockets.

Graceful shutdown: SIGTERM/SIGINT set a flag and stop the accept loop
*from a helper thread* (``HTTPServer.shutdown`` deadlocks when called
on the thread running ``serve_forever``), then
:func:`serve_until_shutdown` closes the app's scheduler, whose
admitted requests still compute, and the socket.  The CI smoke job
sends SIGTERM and asserts a clean exit.
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.logging import get_logger
from repro.serve.protocol import replay_key

logger = get_logger(__name__)

#: Largest request body accepted, in bytes; a corpus of experiment
#: time-series is a few MB, anything beyond this is a client error.
MAX_BODY_BYTES = 256 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a response leaves as two writes (headers, then body),
    # and with Nagle's algorithm the body would wait for the client's
    # delayed ACK of the headers, ~40 ms on every keep-alive response.
    disable_nagle_algorithm = True

    # -- request plumbing ------------------------------------------------------
    def _read_payload(self, method: str):
        """``(payload, key, None)`` for ``app.handle``, or
        ``(None, None, answer)`` when no parse is needed.

        ``answer`` is ``(status, body, content_type)``: a refusal, or
        ``app.replay``'s answer to a byte-identical repeat, asked for
        before the body is parsed.  Otherwise ``payload`` is the parsed
        body (``None`` without one) and ``key`` its replay key.

        Bodies are framed by ``Content-Length`` only.  A body this
        handler does not read would be parsed as the next keep-alive
        request, so every refusal of a body or of its framing closes
        the connection: a chunked body (411), a bad or repeated length,
        a body on a method that takes none, or an oversized one (400).
        A body that is not JSON, or not text, is a 400.
        """
        if "Transfer-Encoding" in self.headers:
            return self._refuse(
                411,
                "Transfer-Encoding is not supported; "
                "send the body with a Content-Length",
            )
        lengths = self.headers.get_all("Content-Length", [])
        if len(lengths) > 1:
            return self._refuse(
                400, f"more than one Content-Length: {lengths!r}"
            )
        declared = lengths[0] if lengths else "0"
        if not (declared.isascii() and declared.isdigit()):
            return self._refuse(400, f"invalid Content-Length {declared!r}")
        length = int(declared)
        if length == 0:
            return None, None, None
        if method != "POST":
            return self._refuse(400, f"{method} requests take no body")
        if length > MAX_BODY_BYTES:
            return self._refuse(
                400, f"request body exceeds {MAX_BODY_BYTES} bytes"
            )
        body = self.rfile.read(length)
        key = replay_key(self.path, body)
        answer = self.server.app.replay(self.path, key)
        if answer is not None:
            return None, None, answer
        try:
            return json.loads(body), key, None
        except ValueError as exc:  # bytes that are no text raise it too
            return None, None, _error(
                400, f"request body is not valid JSON: {exc}"
            )

    def _refuse(self, status: int, error: str):
        """Refuse a body or its framing and close the connection."""
        self.close_connection = True
        return None, None, _error(status, error)

    def _respond(self, status: int, body, content_type: str) -> None:
        payload = (
            body.encode()
            if isinstance(body, str)
            else json.dumps(body).encode()
        )
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _dispatch(self, method: str) -> None:
        payload, key, answer = self._read_payload(method)
        if answer is None:
            answer = self.server.app.handle(method, self.path, payload, key)
        self._respond(*answer)

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("POST")

    def log_message(self, format: str, *args) -> None:
        logger.debug("%s %s", self.address_string(), format % args)


def _error(status: int, error: str) -> tuple[int, dict, str]:
    return status, {"error": error}, "application/json"


class PredictionServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`ServeApp`."""

    daemon_threads = True

    def __init__(self, address, app):
        super().__init__(address, _Handler)
        self.app = app

    @property
    def port(self) -> int:
        return self.server_address[1]


def make_server(app, host: str = "127.0.0.1", port: int = 0) -> PredictionServer:
    """Bind a server; ``port=0`` picks a free port (read ``.port``)."""
    return PredictionServer((host, port), app)


def install_signal_handlers(server: PredictionServer) -> threading.Event:
    """Route SIGTERM/SIGINT to a graceful stop; returns the stop event.

    The handler must not call ``server.shutdown()`` directly — the
    signal arrives on the main thread, which is inside
    ``serve_forever``, and ``shutdown`` blocks until that loop exits.
    A helper thread breaks the cycle.
    """
    stop = threading.Event()

    def _stop(signum, frame):
        if stop.is_set():
            return
        stop.set()
        logger.info("signal %d: draining and shutting down", signum)
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    return stop


def serve_until_shutdown(
    server: PredictionServer, *, drain_timeout: float = 30.0
) -> bool:
    """Run the accept loop until a signal, then drain and close.

    Returns whether the scheduler drained cleanly within
    ``drain_timeout`` seconds.
    """
    install_signal_handlers(server)
    logger.info(
        "serving on %s:%d", server.server_address[0], server.port
    )
    try:
        server.serve_forever()
    finally:
        drained = server.app.shutdown(drain_timeout=drain_timeout)
        server.server_close()
    return drained
