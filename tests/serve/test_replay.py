"""Byte-identical repeats answered from the response cache unparsed.

A synchronous 200 records the body's replay key (a SHA-256 of the
endpoint and the raw bytes) as an alias of its request digest; the same
bytes again get the memory hit's envelope without a parse, a decode or
a digest.  These tests pin that the replay is that memory hit byte for
byte, that only byte-identical bodies at the same endpoint replay, that
nothing but a synchronous 200 records an alias, and that aliases stay
within the cache's bound and never name another digest's answer.
"""

from __future__ import annotations

import copy
import http.client
import json
import math
import os
import sys
import threading
import time
import types

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry, get_metrics, set_metrics
from repro.serve import app as app_module
from repro.serve import server as server_module
from repro.serve.app import ServeApp
from repro.serve.cache import ResponseCache
from repro.serve.protocol import replay_key
from repro.serve.server import make_server
from tests.serve.test_protocol import respelled

RANK = "/v1/rank"
PREDICT = "/v1/predict"


@pytest.fixture
def fresh_metrics():
    previous = set_metrics(MetricsRegistry())
    yield get_metrics()
    set_metrics(previous)


@pytest.fixture
def app(warm_service, fresh_metrics):
    application = ServeApp(warm_service, references_digest="replay-test")
    yield application
    application.shutdown(drain_timeout=10.0)


@pytest.fixture
def served(app):
    """``app`` behind a live HTTP server; yields ``(app, port)``."""
    server = make_server(app, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield app, server.port
    server.shutdown()
    server.server_close()
    thread.join(timeout=10.0)


def body_of(payload) -> bytes:
    """The bytes a client sends: ``json.dumps``, as ``http_json`` does."""
    return json.dumps(payload).encode()


def post(app, path: str, body: bytes):
    """What the HTTP handler does with one POSTed body."""
    key = replay_key(path, body)
    answer = app.replay(path, key)
    if answer is None:
        answer = app.handle("POST", path, json.loads(body), key)
    return answer


def post_http(conn, path: str, body: bytes) -> tuple[int, bytes]:
    conn.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    response = conn.getresponse()
    return response.status, response.read()


def counter(name: str) -> float:
    metrics = get_metrics()
    return metrics.counter(name).value if name in metrics else 0.0


@pytest.fixture
def spies(monkeypatch):
    """Counts of the parse, decode and digest calls the app makes."""
    calls = {"loads": 0, "decode": 0, "digest": 0}

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return spy

    monkeypatch.setattr(
        app_module,
        "decode_experiments",
        counting("decode", app_module.decode_experiments),
    )
    monkeypatch.setattr(
        app_module,
        "request_digest",
        counting("digest", app_module.request_digest),
    )
    monkeypatch.setattr(
        server_module,
        "json",
        types.SimpleNamespace(
            loads=counting("loads", json.loads), dumps=json.dumps
        ),
    )
    return calls


def predict_payload(target_payload):
    return {"target": target_payload, "source_sku": "s4", "target_sku": "s8"}


class TestReplayIsTheMemoryHit:
    def test_http_repeat_answers_the_memory_hit_bytes_unparsed(
        self, served, target_payload, spies
    ):
        app, port = served
        payload = {"target": target_payload}
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            status, cold = post_http(conn, RANK, body_of(payload))
            assert status == 200
            assert json.loads(cold)["meta"]["cache_tier"] == "compute"
            before = dict(spies)
            status, replayed = post_http(conn, RANK, body_of(payload))
            assert status == 200
            assert spies == before
            # The same target respelled takes the full path to the
            # memory hit that today answers a repeat.
            status, memory = post_http(
                conn, RANK, respelled(payload).encode()
            )
            assert status == 200
            assert spies == {
                name: count + 1 for name, count in before.items()
            }
        finally:
            conn.close()
        assert json.loads(memory)["meta"]["cache_tier"] == "memory"
        assert replayed == memory
        assert counter("serve.response_cache.replays_total") == 1

    @pytest.mark.parametrize("path", [RANK, PREDICT])
    def test_replay_entry_answers_the_memory_hit(
        self, app, target_payload, spies, path
    ):
        body = body_of(predict_payload(target_payload))
        key = replay_key(path, body)
        assert app.replay(path, key) is None
        status, cold, _ = app.handle("POST", path, json.loads(body), key)
        assert status == 200
        assert cold["meta"]["cache_tier"] == "compute"
        # Without a key the full path records no alias and answers the
        # repeat from memory, as it did before aliases existed.
        status, memory, ctype = app.handle("POST", path, json.loads(body))
        assert memory["meta"]["cache_tier"] == "memory"
        before = dict(spies)
        replayed = app.replay(path, key)
        assert spies == before
        assert replayed == (status, memory, ctype)
        assert json.dumps(replayed[1]) == json.dumps(memory)

    def test_replay_records_what_a_memory_hit_records(
        self, app, target_payload, fresh_metrics
    ):
        body = body_of({"target": target_payload})
        post(app, RANK, body)

        def recorded():
            snapshot = fresh_metrics.snapshot()
            return {
                name: snapshot[name].get("value", snapshot[name].get("count"))
                for name in snapshot
            }

        start = recorded()
        app.handle("POST", RANK, json.loads(body))
        memory = recorded()
        assert app.replay(RANK, replay_key(RANK, body))[0] == 200
        replayed = recorded()

        def delta(after, before):
            return {
                name: after[name] - before.get(name, 0)
                for name in after
                if after[name] != before.get(name, 0)
                and name != "serve.response_cache.replays_total"
            }

        assert delta(replayed, memory) == delta(memory, start) == {
            "serve.request_ms": 1,
            "serve.requests_total": 1,
            "serve.responses.2xx_total": 1,
            "serve.response_cache.hits_total": 1,
        }
        assert replayed["serve.response_cache.replays_total"] == 1
        assert "serve_response_cache_replays_total 1" in (
            fresh_metrics.to_prometheus()
        )


#: Whitespace a JSON text may carry around its value.
PADDING = st.text(alphabet=" \t\r\n", max_size=3)


@st.composite
def spellings(draw, payload):
    """Other JSON texts of ``payload``: respelled numbers and reversed
    keys, sorted keys, or other whitespace."""
    if draw(st.booleans()):
        text = respelled(payload)
    else:
        text = json.dumps(
            payload,
            sort_keys=draw(st.booleans()),
            indent=draw(st.sampled_from([None, 0, 1, 2])),
            separators=draw(
                st.sampled_from([None, (",", ":"), (" , ", " : ")])
            ),
        )
    return (draw(PADDING) + text + draw(PADDING)).encode()


class TestOtherBytesTakeTheFullPath:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_respelled_bodies_are_memory_hits_under_the_cold_digest(
        self, app, target_payload, data
    ):
        payload = {"target": target_payload}
        original = body_of(payload)
        status, cold, _ = post(app, RANK, original)
        assert status == 200
        # Re-aliases the original, whatever an earlier example aliased.
        app.handle("POST", RANK, payload, replay_key(RANK, original))
        body = data.draw(spellings(payload))
        assume(body != original)
        key = replay_key(RANK, body)
        assert app.replay(RANK, key) is None
        status, warm, _ = app.handle("POST", RANK, json.loads(body), key)
        assert status == 200
        assert warm["meta"]["cache_tier"] == "memory"
        assert warm["digest"] == cold["digest"]
        assert warm["result"] == cold["result"]
        # Now the respelling is the entry's one alias.
        assert app.replay(RANK, key)[1] == warm
        assert app.replay(RANK, replay_key(RANK, original)) is None

    def test_one_body_at_two_endpoints_is_two_keys(self, target_payload):
        body = body_of(predict_payload(target_payload))
        assert replay_key(RANK, body) != replay_key(PREDICT, body)
        assert replay_key(RANK + "/", body) == replay_key(RANK, body)
        assert replay_key(RANK, body) != replay_key(RANK, body + b" ")

    def test_a_ranked_body_is_not_replayed_as_a_prediction(
        self, app, target_payload
    ):
        body = body_of(predict_payload(target_payload))
        status, ranked, _ = post(app, RANK, body)
        assert status == 200
        status, predicted, _ = post(app, PREDICT, body)
        assert status == 200
        assert predicted["meta"] == {
            "cache_tier": "compute", "endpoint": PREDICT,
        }
        assert predicted["digest"] != ranked["digest"]
        assert "predicted_throughput" in predicted["result"]


def non_finite(target_payload):
    entries = copy.deepcopy(target_payload)
    entries[0]["resource_series"][3][1] = math.inf
    return {"target": entries}


class TestOnlySynchronous200sAreReplayed:
    @pytest.mark.parametrize(
        "path, make",
        [
            (RANK, lambda target: {"target": "nope"}),
            (RANK, lambda target: {"target": []}),
            (RANK, lambda target: [target]),
            (RANK, non_finite),
            (PREDICT, non_finite),
            (
                PREDICT,
                lambda target: {
                    "target": target, "source_sku": "s4",
                    "target_sku": "s4096",
                },
            ),
            (RANK, lambda target: {"target": target, "mode": "async"}),
        ],
        ids=[
            "malformed", "empty", "not-an-object", "non-finite-rank",
            "non-finite-predict", "unknown-sku", "async",
        ],
    )
    def test_a_400_is_never_replayed(
        self, app, target_payload, path, make
    ):
        body = body_of(make(target_payload))
        for _ in range(2):
            status, answer, _ = post(app, path, body)
            assert status == 400, answer
            assert not app.response_cache.has_alias(replay_key(path, body))
        assert counter("serve.response_cache.replays_total") == 0

    def test_a_sync_mode_body_replays_the_bare_answer(
        self, app, target_payload, spies
    ):
        """``"mode": "sync"`` is other bytes for the bare request: its
        first send is a memory hit that records its own alias, and its
        repeat replays the bare request's digest unparsed."""
        status, bare, _ = post(app, RANK, body_of({"target": target_payload}))
        assert status == 200
        body = body_of({"target": target_payload, "mode": "sync"})
        status, first, _ = post(app, RANK, body)
        assert (status, first["meta"]["cache_tier"]) == (200, "memory")
        before = dict(spies)
        status, repeat, _ = post(app, RANK, body)
        assert status == 200
        assert spies == before
        assert repeat == first
        assert repeat["digest"] == bare["digest"]
        assert counter("serve.response_cache.replays_total") == 1

    def test_a_replayable_body_after_shutdown_gets_the_503(
        self, app, target_payload, spies
    ):
        body = body_of({"target": target_payload})
        post(app, RANK, body)
        assert post(app, RANK, body)[1]["meta"]["cache_tier"] == "memory"
        assert app.shutdown(drain_timeout=10.0)
        before = dict(spies)
        assert app.replay(RANK, replay_key(RANK, body)) == (
            503, {"error": "server is shutting down"}, "application/json",
        )
        assert spies == before
        # A body with no alias takes the full path to the same 503.
        other = body_of({"target": target_payload, "n": 1})
        status, answer, _ = post(app, RANK, other)
        assert (status, answer) == (503, {"error": "server is shutting down"})


class TestBound:
    def test_an_evicted_alias_falls_through_and_recomputes(
        self, warm_service, target_payload, fresh_metrics
    ):
        application = ServeApp(
            warm_service, references_digest="evict", response_cache_size=1
        )
        try:
            first = body_of({"target": target_payload})
            _, cold, _ = post(application, RANK, first)
            other = body_of({"target": target_payload, "n": 1})
            post(application, RANK, other)
            key = replay_key(RANK, first)
            assert not application.response_cache.has_alias(key)
            assert application.replay(RANK, key) is None
            status, again, _ = post(application, RANK, first)
        finally:
            application.shutdown(drain_timeout=10.0)
        assert status == 200
        assert again["meta"]["cache_tier"] == "compute"
        assert again["digest"] == cold["digest"]
        assert again["result"] == cold["result"]

    def test_app_aliases_stay_within_the_bound(
        self, warm_service, target_payload, fresh_metrics
    ):
        size = 3
        application = ServeApp(
            warm_service, references_digest="churn", response_cache_size=size
        )
        cache = application.response_cache
        try:
            for n in range(3 * size):
                body = body_of({"target": target_payload, "n": n})
                assert post(application, RANK, body)[0] == 200
                assert post(application, RANK, body)[1]["meta"][
                    "cache_tier"
                ] == "memory"
                assert len(cache._aliases) <= size
        finally:
            application.shutdown(drain_timeout=10.0)
        assert counter("serve.response_cache.replays_total") == 3 * size

    def test_cache_aliases_stay_within_the_bound(self, fresh_metrics):
        size = 8
        cache = ResponseCache(size)
        for n in range(3 * size):
            digest = f"d{n}"
            cache.put(digest, {"digest": digest})
            # Spellings of earlier digests, too: one alias per entry.
            for m in range(max(0, n - 3), n + 1):
                cache.alias(f"k{n}-{m}", f"d{m}")
            assert len(cache._aliases) == len(cache._alias_of) <= size
            for key, named in cache._aliases.items():
                assert named in cache
                assert cache._alias_of[named] == key
        assert cache.replay("k0-0") is None
        assert cache.replay(f"k{3 * size - 1}-{3 * size - 1}") == (
            f"d{3 * size - 1}", {"digest": f"d{3 * size - 1}"},
        )

    def test_an_alias_needs_a_live_entry(self, fresh_metrics):
        cache = ResponseCache(4)
        cache.alias("k", "never-put")
        assert not cache.has_alias("k")
        assert cache.replay("k") is None
        assert "serve.response_cache.hits_total" not in fresh_metrics


def test_threads_never_replay_another_digests_answer(fresh_metrics):
    """Writers churn entries and aliases through a small cache while
    readers replay; every replay must name its key's digest and answer
    that digest's response, and the aliases must stay within the bound.
    """
    size, digests, seconds = 4, 12, 1.5
    cache = ResponseCache(size)
    errors: list[str] = []
    stop = threading.Event()

    def write(n: int) -> None:
        digest = n % digests
        cache.put(f"d{digest}", {"digest": f"d{digest}"})
        # Key k{d}-{s} only ever names digest d.
        cache.alias(f"k{digest}-{n % 3}", f"d{digest}")

    def read(n: int) -> None:
        digest = n % digests
        hit = cache.replay(f"k{digest}-{n % 3}")
        if hit is not None and hit != (f"d{digest}", {"digest": f"d{digest}"}):
            errors.append(f"k{digest}-{n % 3} replayed {hit!r}")
        if len(cache._aliases) > size:
            errors.append(f"{len(cache._aliases)} aliases")

    def loop(step, n: int) -> None:
        try:
            while not stop.is_set():
                step(n)
                n += 1
        except Exception as exc:  # noqa: BLE001 - reported by the test
            errors.append(f"{type(exc).__name__}: {exc}")

    n_threads = (os.cpu_count() or 1) + 2
    threads = [
        threading.Thread(target=loop, args=(write if i % 2 else read, i))
        for i in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        time.sleep(seconds)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(cache._aliases) == len(cache._alias_of) <= size
    assert counter("serve.response_cache.replays_total") > 0
