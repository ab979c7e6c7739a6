"""The shared cross-worker store and the repro-source fingerprint.

Compilation is pure given (input code, configuration, target, unroll
factor): the pipeline clones its input, the cost model is deterministic,
and per-compilation sessions mean no hidden global state feeds the
result.  That is why compiles are memoized at all; the one memo is the
service's ``compile`` task (:mod:`repro.serve.tasks`), which keys on its
request payload and stores the reply it sends, and which ``repro compile
--cache-dir`` runs in-process.

Task results persist in a :class:`SharedJsonStore`, a JSON document
store designed for *concurrent writers*: all workers of a
:mod:`repro.serve` pool (and successive service runs and CLI compiles)
point at the same directory, so one worker's cold result becomes every
other worker's hit.  Each entry is one file and the only record of its
result: it carries the writing process's pid, which lets a reader count
``cache.cross_worker_hits``, and its modification time is its recency
stamp, set on every write and every hit.  Truncated or garbage entries
are deleted and treated as misses (``cache.corrupt_entries``), never
raised.  Once a bounded store holds more than ``max_entries`` documents,
the ones with the oldest stamps are evicted in one batch
(``cache.evictions``).

:func:`repro_source_fingerprint` is folded into every task key, so a
store warmed by an older checkout misses instead of replaying results
the current code would not produce.
"""

from __future__ import annotations

import json
import hashlib
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

try:  # file locking is POSIX-only; the no-op fallback keeps single-process use working
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None  # type: ignore[assignment]

from ..observe import STAT
from ..observe.session import current_session

STAT_EVICTIONS = STAT("cache.evictions", "LRU evictions from the shared store")
STAT_CORRUPT = STAT(
    "cache.corrupt_entries", "truncated/garbage on-disk entries treated as misses"
)
STAT_CROSS_WORKER = STAT(
    "cache.cross_worker_hits", "disk hits on entries written by another process"
)

_SOURCE_FINGERPRINT: Optional[str] = None


def repro_source_fingerprint() -> str:
    """Content hash of every ``repro`` source module, cached per process.

    Folded into every task key (:func:`repro.serve.tasks.task_key`) so
    a persistent cache directory survives a code change *safely*:
    entries written by an older checkout simply stop matching and
    recompile, instead of replaying counters/reports the current
    compiler would no longer produce.
    """
    global _SOURCE_FINGERPRINT
    if _SOURCE_FINGERPRINT is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        hasher = hashlib.sha256()
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                relative = os.path.relpath(path, root)
                try:
                    with open(path, "rb") as handle:
                        body = handle.read()
                except OSError:
                    continue
                hasher.update(relative.encode("utf-8"))
                hasher.update(b"\x00")
                hasher.update(body)
                hasher.update(b"\x00")
        _SOURCE_FINGERPRINT = hasher.hexdigest()[:16]
    return _SOURCE_FINGERPRINT


# -- the shared on-disk store -------------------------------------------------------


def _is_entry(name: str) -> bool:
    """Whether a directory listing's ``name`` is a store entry (not a
    dotfile such as ``.lock``, nor an in-flight ``.tmp.<pid>`` write)."""
    return name.endswith(".json") and not name.startswith(".")


def _lock_file(handle) -> None:
    if fcntl is not None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)


def _unlock_file(handle) -> None:
    if fcntl is not None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class SharedJsonStore:
    """JSON document store shared across processes, one file per entry.

    Each document is one ``<key>.json`` file, written atomically
    (tmp + ``os.replace``) and wrapped as ``{"pid": writer, "doc": ...}``
    so readers can tell cross-process hits from own-process ones.  The
    file is the entry's only record: its modification time is its
    recency stamp, set explicitly (``time.time_ns()``) on every ``put``
    and every hit, so two operations microseconds apart still order.
    Reads take no lock and touch only their own entry.  A bounded
    ``put`` counts the entries with one ``os.listdir`` and stats none
    while the namespace holds at most ``max_entries``; once past the
    bound N it stats every entry under an ``flock`` on ``.lock`` and
    evicts the oldest-stamped ones down to N - N//8, so a bound of 256
    scans once per 32 writes and a bound under 8 trims to the bound
    itself.  An unbounded ``put`` never lists the directory.  Dotfiles
    are never entries.

    ``get`` never raises on bad entries — a truncated or garbage file is
    deleted, counted via ``cache.corrupt_entries``, and reported as a
    miss; ``last_get`` tells the caller why (``"hit"``/``"miss"``/
    ``"corrupt"``) so it can attach a remark.
    """

    def __init__(
        self,
        directory: str,
        namespace: str = "store",
        max_entries: Optional[int] = None,
    ) -> None:
        self.directory = os.path.join(directory, namespace)
        self.max_entries = max_entries
        self.last_get: str = "miss"
        os.makedirs(self.directory, exist_ok=True)
        self._lock_path = os.path.join(self.directory, ".lock")

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    @contextmanager
    def _locked(self) -> Iterator[None]:
        handle = open(self._lock_path, "a+", encoding="utf-8")
        try:
            _lock_file(handle)
            yield
        finally:
            _unlock_file(handle)
            handle.close()

    @staticmethod
    def _stamp(path: str) -> None:
        """Set ``path``'s recency stamp to now; an entry another process
        evicted in the meantime has nothing left to stamp."""
        now = time.time_ns()
        try:
            os.utime(path, ns=(now, now))
        except OSError:
            pass

    def _fire_entry_fault(self, path: str) -> None:
        """``serve.cache.entry`` fault hook: leave garbage at the entry's
        path so the read that follows takes the corrupt-as-miss path.
        One attribute check when nothing is armed."""
        faults = current_session().faults
        if faults is None or not getattr(faults, "armed", None):
            return

        def _scribble() -> None:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write('{"pid": 0, "doc": {truncated garbage')

        faults.fire("serve.cache.entry", corrupt=_scribble)

    def _evict(self, keep: str) -> None:
        """If more than ``max_entries`` entries remain (another writer
        may have trimmed since the caller counted), drop the
        oldest-stamped ones, never ``keep``, down to ``max_entries -
        max_entries // 8``.  Call only under the lock."""
        stamps: Dict[str, int] = {}
        with os.scandir(self.directory) as scan:
            for entry in scan:
                if not _is_entry(entry.name):
                    continue
                try:
                    stamps[entry.name[:-5]] = entry.stat().st_mtime_ns
                except OSError:  # removed since the listing
                    continue
        if len(stamps) <= self.max_entries:
            return
        excess = len(stamps) - (self.max_entries - self.max_entries // 8)
        stamps.pop(keep, None)
        stat = STAT_EVICTIONS.resolve(current_session().stats)
        for victim in sorted(stamps, key=stamps.__getitem__)[:excess]:
            try:
                os.remove(self._path(victim))
            except OSError:
                continue
            stat.add()

    # -- public API --

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Stored document for ``key`` or None; never raises on bad data."""
        stats = current_session().stats
        path = self._path(key)
        self._fire_entry_fault(path)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                wrapper = json.load(handle)
            doc = wrapper["doc"]
            writer_pid = int(wrapper["pid"])
        except FileNotFoundError:
            self.last_get = "miss"
            return None
        except (OSError, ValueError, KeyError, TypeError):
            STAT_CORRUPT.resolve(stats).add()
            self.last_get = "corrupt"
            self.discard(key)
            return None
        if writer_pid != os.getpid():
            STAT_CROSS_WORKER.resolve(stats).add()
        self._stamp(path)
        self.last_get = "hit"
        return doc

    def put(self, key: str, doc: Dict[str, object]) -> None:
        """Store ``doc`` under ``key``; past the bound, evict the oldest
        entries in one batch."""
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"pid": os.getpid(), "doc": doc}))
        os.replace(tmp, path)
        self._stamp(path)
        if self.max_entries is not None and len(self) > self.max_entries:
            with self._locked():
                self._evict(key)

    def discard(self, key: str) -> None:
        """Drop ``key`` (used for corrupt entries); missing keys are fine."""
        try:
            os.remove(self._path(key))
        except OSError:
            pass

    def keys(self) -> list:
        return sorted(
            name[:-5] for name in os.listdir(self.directory) if _is_entry(name)
        )

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.directory) if _is_entry(name))
