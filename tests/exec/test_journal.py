"""The shared JSONL discipline: torn-tail healing, concurrent writers,
and the one key-value store built on it.

``repro.exec.journal`` is the single append/load implementation behind
the fit cache, the distance cache, the run ledger and the job queue.
Beyond the single-writer torn-tail contract, this file drives
**multiple writer processes** against one file: POSIX serializes
append-mode writes, and because the healing newline and the row go out
as one ``write()``, two processes can interleave whole rows but never
corrupt each other's bytes.

:class:`TestKeyValueStores` runs the loader's row-shape rules and the
on-disk byte format through both
:class:`~repro.exec.journal.KeyValueJournal` stores.  Each store's
round trip, torn tails, ``clear`` and coercion are pinned next to it
(``tests/similarity/test_distcache.py``, ``tests/ml/test_fitexec.py``),
and its non-finite guard in ``tests/exec/test_finite_guard.py``.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.exec.journal import append_jsonl, load_jsonl
from repro.ml.fitexec import FitCache
from repro.obs.metrics import MetricsRegistry, set_metrics
from repro.similarity.distcache import DistanceCache

ROWS_PER_WRITER = 200


class TestAppend:
    def test_appends_one_line_per_row(self, tmp_path):
        path = tmp_path / "j.jsonl"
        assert append_jsonl(path, {"a": 1})
        assert append_jsonl(path, {"b": 2})
        assert path.read_text() == '{"a": 1}\n{"b": 2}\n'

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "j.jsonl"
        assert append_jsonl(path, {"a": 1})
        assert path.exists()

    def test_sort_keys_canonicalizes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        append_jsonl(path, {"b": 2, "a": 1}, sort_keys=True)
        assert path.read_text() == '{"a": 1, "b": 2}\n'

    def test_heals_torn_tail_before_appending(self, tmp_path):
        """A SIGKILL mid-append leaves no trailing newline; the next
        append must not fuse its row onto the torn one."""
        path = tmp_path / "j.jsonl"
        append_jsonl(path, {"a": 1})
        with path.open("a") as handle:
            handle.write('{"key": "torn')  # killed mid-write
        append_jsonl(path, {"b": 2})
        rows, corrupt = load_jsonl(path)
        assert rows == [{"a": 1}, {"b": 2}]
        assert corrupt == 1  # the torn row itself, now on its own line

    def test_failure_is_swallowed_and_reported(self, tmp_path):
        # The parent "directory" is a file: mkdir and open both fail.
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert not append_jsonl(blocker / "j.jsonl", {"a": 1})


class TestLoad:
    def test_missing_file_is_empty(self, tmp_path):
        assert load_jsonl(tmp_path / "absent.jsonl") == ([], 0)

    def test_counts_corrupt_lines_without_failing(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"a": 1}\nnot json\n{"b": 2}\n{"truncated')
        rows, corrupt = load_jsonl(path)
        assert rows == [{"a": 1}, {"b": 2}]
        assert corrupt == 2

    def test_skips_blank_lines(self, tmp_path):
        """The worst a duplicate concurrent heal injects is an empty
        line; loaders must skip it silently, not count it corrupt."""
        path = tmp_path / "j.jsonl"
        path.write_text('{"a": 1}\n\n\n{"b": 2}\n')
        assert load_jsonl(path) == ([{"a": 1}, {"b": 2}], 0)


def _writer(path, writer_id, n_rows):
    for sequence in range(n_rows):
        assert append_jsonl(path, {"writer": writer_id, "seq": sequence})


class TestConcurrentWriters:
    """Two processes appending to one file never corrupt each other."""

    @pytest.mark.parametrize("n_writers", [2, 4])
    def test_all_rows_survive_intact(self, tmp_path, n_writers):
        path = tmp_path / "shared.jsonl"
        processes = [
            multiprocessing.Process(
                target=_writer, args=(path, writer_id, ROWS_PER_WRITER)
            )
            for writer_id in range(n_writers)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
            assert process.exitcode == 0
        rows, corrupt = load_jsonl(path)
        assert corrupt == 0
        assert len(rows) == n_writers * ROWS_PER_WRITER
        # Every writer's rows arrive complete and in its own order —
        # interleaving across writers is allowed, tearing is not.
        for writer_id in range(n_writers):
            sequence = [
                row["seq"] for row in rows if row["writer"] == writer_id
            ]
            assert sequence == list(range(ROWS_PER_WRITER))

    def test_concurrent_heals_keep_file_parseable(self, tmp_path):
        """Writers racing against a torn tail still produce a file where
        every *valid* row parses; the torn row is the only casualty."""
        path = tmp_path / "shared.jsonl"
        path.write_text('{"writer": -1, "seq": 0}\n{"torn')
        processes = [
            multiprocessing.Process(target=_writer, args=(path, w, 50))
            for w in range(2)
        ]
        for process in processes:
            process.start()
        for process in processes:
            process.join()
            assert process.exitcode == 0
        rows, corrupt = load_jsonl(path)
        assert corrupt == 1  # the pre-torn row, healed onto its own line
        assert len(rows) == 1 + 100
        for line in path.read_text().splitlines():
            if line.strip() and "torn" not in line:
                json.loads(line)


#: Each store, a value it keeps, and two lines in the byte format of
#: the files it has always written (the keys are real pair and fit
#: keys), so entries on disk stay addressable.
STORES = {
    "distance": (
        DistanceCache,
        0.1 + 0.2,
        b'{"key": "cf1ed5dfeeae7e2226fafccd7ee0ad2eff921ceb529e8d6af3ae8609'
        b'84ddccee", "value": 0.30000000000000004}\n'
        b'{"key": "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb'
        b'bbbb", "value": 1e-300}\n',
    ),
    "fit": (
        FitCache,
        {"scores": [0.25, 0.75], "n": 3},
        b'{"key": "fc6cfd3317605ccc3521fa5b978ee1f97cc48e118cc302236c8bccbe'
        b'88ab7957", "value": {"scores": [0.25, 0.30000000000000004], '
        b'"n": 3}}\n'
        b'{"key": "cccccccccccccccccccccccccccccccccccccccccccccccccccccccc'
        b'cccccccc", "value": [1.5, [2.0, -0.0]]}\n',
    ),
}


@pytest.fixture(params=sorted(STORES))
def store(request):
    """``(store class, a value it keeps, its file's bytes)``."""
    return STORES[request.param]


@pytest.fixture
def metrics():
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    yield registry
    set_metrics(previous)


class TestKeyValueStores:
    def test_corrupt_lines_counted_not_fatal(self, tmp_path, store, metrics):
        cls, value, _ = store
        path = tmp_path / cls.filename
        path.write_text(
            "not json at all\n"
            + json.dumps({"key": "none", "value": None}) + "\n"
            + json.dumps({"key": 7, "value": value}) + "\n"
            + json.dumps({"no_key": 1}) + "\n"
            + json.dumps(["key", value]) + "\n"
            + json.dumps({"key": "ok", "value": value}) + "\n"
        )
        cache = cls(tmp_path)
        assert len(cache) == 1
        assert cache.get("ok") == value
        assert metrics.counter(f"{cls.family}.corrupt_total").value == 5

    def test_existing_files_stay_addressable(self, tmp_path, store):
        """Entries written in the long-standing byte format load as the
        same entries, and a store writes those entries back byte for
        byte."""
        cls, _, raw = store
        old, new = tmp_path / "old", tmp_path / "new"
        old.mkdir()
        (old / cls.filename).write_bytes(raw)
        loaded = cls(old)
        expected = {}
        for line in raw.decode().splitlines():
            row = json.loads(line)
            expected[row["key"]] = row["value"]
        assert len(loaded) == len(expected)
        rewritten = cls(new)
        for key, value in expected.items():
            assert loaded.get(key) == value
            rewritten.put(key, value)
        assert (new / cls.filename).read_bytes() == raw
