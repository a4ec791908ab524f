"""Zero-copy array passing between the scheduler and its workers.

Every parallel stage of the pipeline ships numpy arrays to worker
processes — representation matrices to distance chunks, feature
matrices to tree batches — and pickling those arrays into the pool's
IPC pipe is pure overhead: the worker only ever *reads* them.  This
module replaces the pickled copies with content-addressed references:

- :meth:`ArrayStore.put` publishes an array once — into a
  ``multiprocessing.shared_memory`` segment, or an ``np.memmap`` spool
  file when shared memory is unavailable — and returns a tiny picklable
  :class:`ArrayRef` (name, shape, dtype, digest; a few hundred bytes
  regardless of array size).
- :func:`resolve_refs` runs worker-side and materializes each ref as a
  **read-only** view of the published bytes.  Attachments are cached
  per process, so a worker that executes many tasks over the same
  corpus maps each array once.

The store is content-addressed (SHA-256 over dtype, shape, and raw
bytes — the same discipline as the corpus/distance/fit cache keys), so
publishing the same array twice dedupes to one segment, and the bytes a
worker sees are exactly the bytes the parent held: zero-copy passing
cannot perturb the serial == jobs=N bit-for-bit contract.

Lifecycle: the parent that created the store owns the segments and
frees them on :meth:`ArrayStore.close` (the store is a context
manager).  Every live store is additionally tracked in a weak set and
closed by an :mod:`atexit` hook, so a long-running process (the
``repro serve`` server) that dies without unwinding its stores does not
leak ``/dev/shm`` segments across restarts; :meth:`ArrayStore.prune`
frees everything *except* a pinned digest set mid-flight, which is how
a server keeps its corpus arrays published across requests without
accumulating per-request temporaries.  Worker-side attachments are
views; on Linux the kernel keeps the backing pages alive until the last
map goes away, so workers may outlive ``close()`` mid-shutdown without
faulting on pages they still hold.  A long-lived *worker* clears its
attachment cache with :func:`detach_all`.

A process may install one **ambient** store
(:func:`set_ambient_store`): parallel stages that would otherwise
create a throwaway store per call publish through the ambient one
instead — and never close it.  Because :meth:`ArrayStore.put` dedupes
by content digest, arrays shared across calls (a server's reference
corpus) are published exactly once for the life of the store.  Workers attach by mapping the segment's ``/dev/shm`` backing
file read-only rather than through ``SharedMemory`` — attaching is
borrowing, not owning, and going through ``SharedMemory`` would tangle
the borrowed segment into the ``multiprocessing`` resource tracker's
ownership bookkeeping.

``REPRO_EXEC_ARRAYS`` selects the backend: ``shm`` (default where
available), ``mmap`` (spool files; when ``/dev/shm`` is too small or
missing), or ``off`` (callers fall back to pickled arrays — what the
IPC benchmark uses as its baseline).
"""

from __future__ import annotations

import atexit
import hashlib
import os
import shutil
import tempfile
import weakref
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.obs.logging import get_logger

logger = get_logger(__name__)

#: Environment switch: ``shm`` | ``mmap`` | ``off`` | ``auto`` (default).
ARRAYS_ENV = "REPRO_EXEC_ARRAYS"


def arrays_enabled() -> bool:
    """Whether callers should publish arrays instead of pickling them."""
    return os.environ.get(ARRAYS_ENV, "auto").lower() != "off"


#: Live stores awaiting cleanup; weak so a collected store drops out.
_LIVE_STORES: "weakref.WeakSet" = weakref.WeakSet()


@atexit.register
def _close_live_stores() -> None:
    """Free every still-open store's segments at interpreter exit.

    Shared-memory segments outlive their process unless unlinked; a
    long-running server killed mid-request (or a caller that never
    unwound its ``with`` block) would otherwise leak ``/dev/shm`` until
    reboot.
    """
    for store in list(_LIVE_STORES):
        try:
            store.close()
        except Exception:  # pragma: no cover - best-effort shutdown
            pass


#: The process-wide ambient store, when one is installed.
_AMBIENT_STORE: "ArrayStore | None" = None


def set_ambient_store(store: "ArrayStore | None") -> "ArrayStore | None":
    """Install ``store`` as the process's ambient store.

    While installed, parallel stages publish arrays through it instead
    of creating (and closing) a private store per call, so content
    shared across calls is published once.  The installer owns the
    store's lifetime.  Returns the previously installed store.
    """
    global _AMBIENT_STORE
    previous = _AMBIENT_STORE
    _AMBIENT_STORE = store
    return previous


def ambient_store() -> "ArrayStore | None":
    """The installed ambient store, or ``None``."""
    return _AMBIENT_STORE


def acquire_store(want: bool) -> "tuple[ArrayStore | None, bool]":
    """The store a parallel stage should publish through, if any.

    Returns ``(store, owned)``: the ambient store when one is installed
    (``owned=False`` — the caller must not close it), otherwise a fresh
    private store when ``want`` is true and publishing is enabled
    (``owned=True`` — the caller closes it when the fan-out ends).
    """
    if not (want and arrays_enabled()):
        return None, False
    ambient = ambient_store()
    if ambient is not None:
        return ambient, False
    return ArrayStore(), True


@dataclass(frozen=True)
class ArrayRef:
    """A picklable handle to a published array.

    ``kind`` is ``"shm"`` (``name`` is a shared-memory segment name),
    ``"mmap"`` (``name`` is a spool-file path), or ``"inline"`` for
    zero-byte arrays, whose payload *is* the metadata (shared-memory
    segments cannot be empty).
    """

    kind: str
    name: str
    shape: tuple
    dtype: str
    digest: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


def float64_digest(values) -> str:
    """SHA-256 content address of ``values`` as float64: shape plus bytes.

    The key the distance and fit caches address entries by.  Unlike
    :func:`array_ref_digest` it hashes no dtype, so an array and its
    float64 cast share one digest.
    """
    arr = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    digest = hashlib.sha256()
    digest.update(repr(arr.shape).encode("utf-8"))
    digest.update(arr.tobytes())
    return digest.hexdigest()


def array_ref_digest(arr: np.ndarray) -> str:
    """SHA-256 content address preserving dtype (exact byte round-trip)."""
    arr = np.ascontiguousarray(arr)
    digest = hashlib.sha256()
    digest.update(arr.dtype.str.encode("utf-8"))
    digest.update(repr(arr.shape).encode("utf-8"))
    digest.update(arr.tobytes())
    return digest.hexdigest()


class ArrayStore:
    """Parent-side registry of published arrays, content-deduplicated.

    One store serves one fan-out (a distance or forest call) or, when
    installed as the ambient store, a whole process: the parent
    publishes every array its tasks reference, ships the refs, and
    frees the segments when it is done.  Publishing is idempotent per
    content digest.
    """

    def __init__(self, backend: str | None = None, spool_dir=None):
        env = os.environ.get(ARRAYS_ENV, "auto").lower()
        backend = backend or ("auto" if env in ("off", "") else env)
        if backend not in ("auto", "shm", "mmap"):
            raise ValueError(f"unknown array-store backend {backend!r}")
        self._backend = backend
        self._spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._own_spool = False
        self._segments: dict[str, object] = {}  # digest -> SharedMemory
        self._refs: dict[str, ArrayRef] = {}
        self._closed = False
        _LIVE_STORES.add(self)

    def __enter__(self) -> "ArrayStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - depends on GC timing
        try:
            self.close()
        except Exception:
            pass

    def __len__(self) -> int:
        return len(self._refs)

    @property
    def nbytes(self) -> int:
        """Total bytes currently published (shm segments + spool files)."""
        return sum(
            ref.nbytes for ref in self._refs.values() if ref.kind != "inline"
        )

    def digests(self) -> set:
        """Content digests of everything currently published."""
        return set(self._refs)

    def put(self, arr: np.ndarray) -> ArrayRef:
        """Publish ``arr`` and return its ref (dedup by content)."""
        if self._closed:
            raise RuntimeError("ArrayStore is closed")
        arr = np.ascontiguousarray(np.asarray(arr))
        digest = array_ref_digest(arr)
        ref = self._refs.get(digest)
        if ref is not None:
            return ref
        if arr.nbytes == 0:
            ref = ArrayRef("inline", "", arr.shape, arr.dtype.str, digest)
        else:
            ref = self._publish(arr, digest)
        self._refs[digest] = ref
        return ref

    def _publish(self, arr: np.ndarray, digest: str) -> ArrayRef:
        if self._backend in ("auto", "shm"):
            try:
                return self._publish_shm(arr, digest)
            except OSError as exc:
                if self._backend == "shm":
                    raise
                logger.warning(
                    "shared memory unavailable (%s); spooling arrays to "
                    "memmap files", exc,
                )
                self._backend = "mmap"
        return self._publish_mmap(arr, digest)

    def _publish_shm(self, arr: np.ndarray, digest: str) -> ArrayRef:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        self._segments[digest] = shm
        return ArrayRef("shm", shm.name, arr.shape, arr.dtype.str, digest)

    def _publish_mmap(self, arr: np.ndarray, digest: str) -> ArrayRef:
        if self._spool_dir is None:
            self._spool_dir = Path(tempfile.mkdtemp(prefix="repro-arrays-"))
            self._own_spool = True
        self._spool_dir.mkdir(parents=True, exist_ok=True)
        path = self._spool_dir / f"{digest}.bin"
        if not path.exists():
            tmp = path.with_suffix(".tmp")
            tmp.write_bytes(arr.tobytes())
            os.replace(tmp, path)
        return ArrayRef("mmap", str(path), arr.shape, arr.dtype.str, digest)

    def get(self, ref: ArrayRef) -> np.ndarray:
        """Materialize a ref in this process (parent-side convenience)."""
        return resolve_ref(ref)

    def _free(self, digest: str, ref: ArrayRef) -> None:
        shm = self._segments.pop(digest, None)
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except OSError:
                pass
        elif ref.kind == "mmap":
            try:
                Path(ref.name).unlink()
            except OSError:
                pass

    def prune(self, keep=()) -> int:
        """Free every published array whose digest is not in ``keep``.

        A long-lived store (a server's ambient store) pins its corpus
        digests and prunes after each request, so per-request
        temporaries never accumulate in ``/dev/shm``.  Returns how many
        arrays were freed.
        """
        keep = set(keep)
        victims = [d for d in self._refs if d not in keep]
        for digest in victims:
            self._free(digest, self._refs.pop(digest))
        return len(victims)

    def close(self) -> None:
        """Free every published segment and spool file."""
        if self._closed:
            return
        self._closed = True
        for digest, ref in list(self._refs.items()):
            self._free(digest, ref)
        self._segments.clear()
        if self._own_spool and self._spool_dir is not None:
            shutil.rmtree(self._spool_dir, ignore_errors=True)
        self._refs.clear()
        _LIVE_STORES.discard(self)


#: Per-process attachment cache: a worker executing many tasks against
#: the same corpus attaches each segment exactly once.
_ATTACHED: dict[tuple[str, str], np.ndarray] = {}
#: Attached SharedMemory objects, kept alive alongside their views.
_ATTACHED_SEGMENTS: dict[str, object] = {}


def resolve_ref(ref: ArrayRef) -> np.ndarray:
    """Materialize one ref as a read-only array (cached per process)."""
    cache_key = (ref.kind, ref.name or ref.digest)
    cached = _ATTACHED.get(cache_key)
    if cached is not None:
        return cached
    if ref.kind == "inline":
        arr = np.empty(ref.shape, dtype=np.dtype(ref.dtype))
    elif ref.kind == "shm":
        backing = Path("/dev/shm") / ref.name.lstrip("/")
        if backing.exists():
            # Linux: map the segment's backing file directly.  Attaching
            # through SharedMemory would (re-)register the segment with
            # the multiprocessing resource tracker, whose unregister
            # bookkeeping races between forked workers and the owning
            # parent; a plain read-only map shares the same pages with
            # zero tracker involvement.
            arr = np.memmap(
                backing, dtype=np.dtype(ref.dtype), mode="r", shape=ref.shape
            )
        else:  # pragma: no cover - non-Linux shm namespace
            from multiprocessing import resource_tracker, shared_memory

            shm = shared_memory.SharedMemory(name=ref.name)
            try:
                # Attaching is borrowing: without this, the worker's
                # resource tracker unlinks the segment on exit out from
                # under the parent that still owns it.
                resource_tracker.unregister(shm._name, "shared_memory")
            except Exception:
                pass
            _ATTACHED_SEGMENTS[ref.name] = shm
            arr = np.ndarray(
                ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf
            )
    elif ref.kind == "mmap":
        arr = np.memmap(
            ref.name, dtype=np.dtype(ref.dtype), mode="r", shape=ref.shape
        )
    else:
        raise ValueError(f"unknown ArrayRef kind {ref.kind!r}")
    arr.flags.writeable = False
    _ATTACHED[cache_key] = arr
    return arr


def detach_all() -> None:
    """Drop this process's cached attachments (worker-side cleanup).

    A pool worker that serves many runs against different stores would
    otherwise keep every mapped segment alive for its whole life; a
    long-running server recycles workers and calls this between
    generations.
    """
    _ATTACHED.clear()
    for shm in _ATTACHED_SEGMENTS.values():
        try:
            shm.close()
        except OSError:  # pragma: no cover - platform-dependent
            pass
    _ATTACHED_SEGMENTS.clear()


def resolve_refs(obj):
    """Replace every :class:`ArrayRef` in a payload tree with its array.

    Walks tuples, lists, and dict values; anything else passes through
    untouched.  Both the serial path and the worker shell run payloads
    through this, so refs behave identically in-process and out.
    """
    if isinstance(obj, ArrayRef):
        return resolve_ref(obj)
    if isinstance(obj, tuple):
        return tuple(resolve_refs(item) for item in obj)
    if isinstance(obj, list):
        return [resolve_refs(item) for item in obj]
    if isinstance(obj, dict):
        return {key: resolve_refs(value) for key, value in obj.items()}
    return obj
