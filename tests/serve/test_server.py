"""HTTP binding over real sockets, plus the CLI's graceful shutdown."""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
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


def test_http_json_raises_on_unreachable():
    with pytest.raises(ServeError):
        http_json("GET", "http://127.0.0.1:9/healthz", timeout=2)


class _StubApp:
    """Answers every request at once, so only the transport is timed."""

    def handle(self, method, path, payload):
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


@pytest.mark.slow
def test_cli_serve_sigterm_drains_cleanly(serve_references, tmp_path):
    """Boot ``repro serve`` for real, hit it, SIGTERM it, expect exit 0."""
    references_path = tmp_path / "references.npz"
    serve_references.save_npz(references_path)

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
    )
    try:
        port = None
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if not line:
                break
            match = re.search(r"http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port, "server never printed its boot line"

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
