"""HTTP binding over real sockets, plus the CLI's graceful shutdown."""

from __future__ import annotations

import http.client
import json
import os
import re
import resource
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.exceptions import ServeError
from repro.serve.app import ServeApp
from repro.serve.loadgen import http_json
from repro.serve.server import make_server
from repro.workloads import scaling_corpus


@pytest.fixture
def live_server(warm_service):
    app = ServeApp(warm_service, references_digest="http-test")
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.port}"
    server.shutdown()
    app.shutdown(drain_timeout=10.0)
    server.server_close()
    thread.join(timeout=10.0)


def test_healthz_over_http(live_server):
    status, body = http_json("GET", f"{live_server}/healthz")
    assert status == 200
    assert body["status"] == "ok"


def test_rank_over_http_cold_then_warm(live_server, target_payload):
    payload = {"target": target_payload}
    status, cold = http_json("POST", f"{live_server}/v1/rank", payload)
    assert status == 200
    assert cold["meta"]["cache_tier"] == "compute"
    status, warm = http_json("POST", f"{live_server}/v1/rank", payload)
    assert status == 200
    assert warm["meta"]["cache_tier"] == "memory"
    assert warm["result"] == cold["result"]


def test_unknown_route_404_over_http(live_server):
    status, body = http_json("GET", f"{live_server}/v1/missing")
    assert status == 404


def test_invalid_json_body_400(live_server):
    import urllib.request

    request = urllib.request.Request(
        f"{live_server}/v1/rank",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            status = response.status
            body = json.loads(response.read())
    except urllib.error.HTTPError as error:
        status = error.code
        body = json.loads(error.read())
    assert status == 400
    assert "not valid JSON" in body["error"]


def test_body_that_is_not_text_is_400(live_server):
    """Bytes that decode as no text are a 400 like any other body that
    is not JSON, not a dropped connection."""
    host, port = live_server.rsplit("/", 1)[-1].split(":")
    connection = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        connection.request(
            "POST", "/v1/rank", body=b'{"target": "\xff"}',
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        status, body = response.status, json.loads(response.read())
    finally:
        connection.close()
    assert status == 400
    assert "not valid JSON" in body["error"]


def test_http_json_raises_on_unreachable():
    with pytest.raises(ServeError):
        http_json("GET", "http://127.0.0.1:9/healthz", timeout=2)


class _StubApp:
    """Answers every request at once, so only the transport is timed."""

    def replay(self, path, key):
        return None

    def handle(self, method, path, payload, key=None):
        return 200, {"ok": True, "echo": payload}, "application/json"


def test_keepalive_responses_do_not_stall():
    """Headers and body leave as two writes; with Nagle's algorithm on,
    the body waits for the client's delayed ACK (~40 ms per response)."""
    server = make_server(_StubApp(), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=10)
    try:
        body = json.dumps({"target": []})
        latencies = []
        for _ in range(30):
            start = time.perf_counter()
            connection.request(
                "POST", "/v1/rank", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {
                "ok": True, "echo": {"target": []},
            }
            latencies.append(time.perf_counter() - start)
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert statistics.median(latencies) < 0.010


@pytest.mark.parametrize("declared", ["abc", "-5", "1.5", "+5", ""])
def test_bad_content_length_is_400_and_closes(declared):
    """A Content-Length that is not a non-negative integer gets a 400
    and a closed connection; the unread body (here a second request)
    must not be parsed as the next keep-alive request."""
    server = make_server(_StubApp(), port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    smuggled = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
    header = b"Content-Length: " + declared.encode() + b"\r\n"
    try:
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            sock.sendall(
                b"POST /v1/rank HTTP/1.1\r\nHost: localhost\r\n"
                + header + b"\r\n" + smuggled
            )
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close" in head
    assert "invalid Content-Length" in json.loads(body)["error"]
    assert raw.count(b"HTTP/1.1 ") == 1


class _RecordingApp(_StubApp):
    """A stub app that remembers every request that reached it."""

    def __init__(self):
        self.calls = []

    def handle(self, method, path, payload, key=None):
        self.calls.append((method, path))
        return super().handle(method, path, payload, key)


def _send_raw(app, request: bytes) -> bytes:
    """Everything a fresh server answers to ``request`` on one socket,
    read until the server closes it."""
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        with socket.create_connection(
            ("127.0.0.1", server.port), timeout=5
        ) as sock:
            sock.sendall(request)
            raw = b""
            while chunk := sock.recv(65536):
                raw += chunk
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return raw


def test_chunked_body_is_411_and_closes():
    """A chunked body is not framed by this server; treated as bodiless,
    it would be parsed as the next keep-alive request (here a second
    request the app would answer too)."""
    app = _RecordingApp()
    smuggled = b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n"
    raw = _send_raw(
        app,
        b"POST /v1/rank HTTP/1.1\r\nHost: localhost\r\n"
        b"Transfer-Encoding: chunked\r\n\r\n"
        + f"{len(smuggled):x}\r\n".encode() + smuggled + b"\r\n0\r\n\r\n",
    )
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 411 ")
    assert b"\r\nConnection: close" in head
    assert "Transfer-Encoding" in json.loads(body)["error"]
    assert raw.count(b"HTTP/1.1 ") == 1
    assert app.calls == []


def test_repeated_content_length_is_400_and_closes():
    """Framed by the first of two lengths, the body would be parsed as
    the next keep-alive request."""
    app = _RecordingApp()
    smuggled = b"GET /v1/jobs/x HTTP/1.1\r\nHost: localhost\r\n\r\n"
    raw = _send_raw(
        app,
        b"POST /v1/rank HTTP/1.1\r\nHost: localhost\r\n"
        b"Content-Length: 0\r\n"
        + f"Content-Length: {len(smuggled)}\r\n\r\n".encode()
        + smuggled,
    )
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close" in head
    assert "more than one Content-Length" in json.loads(body)["error"]
    assert raw.count(b"HTTP/1.1 ") == 1
    assert app.calls == []


def test_body_on_get_is_400_and_closes():
    """Only POST bodies are read; a body on any other method is refused
    before it can be parsed as the next keep-alive request."""
    app = _RecordingApp()
    smuggled = b"GET /v1/jobs/x HTTP/1.1\r\nHost: localhost\r\n\r\n"
    raw = _send_raw(
        app,
        b"GET /healthz HTTP/1.1\r\nHost: localhost\r\n"
        + f"Content-Length: {len(smuggled)}\r\n\r\n".encode()
        + smuggled,
    )
    head, _, body = raw.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 400 ")
    assert b"\r\nConnection: close" in head
    assert "GET requests take no body" in json.loads(body)["error"]
    assert raw.count(b"HTTP/1.1 ") == 1
    assert app.calls == []


#: Soft open-file limit the CLI server must boot under.  Far below the
#: common 1024 default, so per-reference file descriptors would show.
FD_SOFT_LIMIT = 256


def _lower_fd_soft_limit() -> None:
    """``preexec_fn``: lower the soft ``RLIMIT_NOFILE``, keep the hard one."""
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    resource.setrlimit(resource.RLIMIT_NOFILE, (FD_SOFT_LIMIT, hard))


@pytest.mark.slow
def test_cli_serve_sigterm_drains_cleanly(tmp_path):
    """Boot ``repro serve`` for real, hit it, SIGTERM it, expect exit 0.

    The references are the 84-experiment scaling corpus (what ``repro
    corpus --kind scaling`` builds) and the server runs with few file
    descriptors: holding state per reference matrix must not stop it
    from booting.
    """
    references_path = tmp_path / "references.npz"
    scaling_corpus(random_state=7).save_npz(references_path)

    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(root / "src")
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--references", str(references_path),
            "--port", "0",
            "--state-dir", str(tmp_path / "state"),
            "--jobs", "1",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
        cwd=str(tmp_path),
        preexec_fn=_lower_fd_soft_limit,
    )
    try:
        port = None
        output = []
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            output.append(line)
            match = re.search(r"http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port, "server never printed its boot line:\n" + "".join(output)

        status, body = http_json(
            "GET", f"http://127.0.0.1:{port}/healthz", timeout=30
        )
        assert status == 200
        status, _ = http_json(
            "POST",
            f"http://127.0.0.1:{port}/v1/rank",
            {"target": [], "mode": "sync"},
            timeout=30,
        )
        assert status == 400  # empty target rejected, but routed

        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=60) == 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
