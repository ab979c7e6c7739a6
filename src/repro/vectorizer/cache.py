"""Content-addressed compile cache and the shared cross-worker store.

Compilation is pure given (module text, configuration, target, unroll
factor): the pipeline clones its input, the cost model is deterministic,
and PR 4's per-compilation sessions mean no hidden global state feeds the
result.  That makes the *printed module text* a sound cache key — two
modules that print identically compile identically.

The cache stores everything needed to rebuild a
:class:`~repro.vectorizer.pipeline.CompilationResult` without running a
single pass: the output module (as text, reparsed on hit), the
vectorization report, the counter snapshot, and the recorded wall times.
A cache hit therefore returns a result equal to a cold compile on every
deterministic field; ``compile_seconds``/``phase_seconds`` are replayed
from the original measurement (they describe the compile that produced
the artifact, not the lookup).

On-disk persistence is provided by :class:`SharedJsonStore`, a
file-locked, LRU-bounded JSON document store designed for *concurrent
writers*: all workers of a :mod:`repro.serve` pool (and successive
service runs) point at the same directory, so one worker's cold compile
becomes every other worker's hit.  Entries record the writing process's
pid, which lets a reader count ``cache.cross_worker_hits``.  Truncated
or garbage entries are deleted and treated as misses
(``cache.corrupt_entries``), never raised.  When the store holds more
than ``max_entries`` documents the least-recently-used ones are evicted
(``cache.evictions``); recency is tracked in a ``.index.json`` touched
under the lock on every hit.

Hits and misses are counted through the ambient
:class:`~repro.observe.session.CompilerSession` via ``cache.hits`` /
``cache.misses``.
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

from ..ir.instructions import Opcode
from ..ir.module import Module
from ..ir.parser import parse_module
from ..ir.printer import print_module
from ..machine.targets import DEFAULT_TARGET, TargetMachine
from ..observe import STAT
from ..observe.session import CompilerSession, current_session, use_session
from .pipeline import CompilationResult, compile_module
from .report import FunctionReport, GraphReport, VectorizationReport
from .reorder import SuperNodeRecord
from .slp import SLPConfig

STAT_HITS = STAT("cache.hits", "compile cache hits")
STAT_MISSES = STAT("cache.misses", "compile cache misses")
STAT_EVICTIONS = STAT("cache.evictions", "LRU evictions from the shared store")
STAT_CORRUPT = STAT(
    "cache.corrupt_entries", "truncated/garbage on-disk entries treated as misses"
)
STAT_CROSS_WORKER = STAT(
    "cache.cross_worker_hits", "disk hits on entries written by another process"
)
STAT_INDEX_REBUILDS = STAT(
    "cache.index_rebuilds", "recency indexes found corrupt and rebuilt from mtimes"
)

#: bump when the serialized entry layout changes; stale-version entries
#: on disk are treated as misses rather than deserialization errors
CACHE_FORMAT = 2

_SOURCE_FINGERPRINT: Optional[str] = None


def repro_source_fingerprint(refresh: bool = False) -> str:
    """Content hash of every ``repro`` source module, cached per process.

    Folded into cache keys so a persistent cache directory survives a
    code change *safely*: entries written by an older checkout simply
    stop matching and recompile, instead of replaying counters/reports
    the current compiler would no longer produce.  The
    ``REPRO_SOURCE_FINGERPRINT`` environment variable overrides the
    computed value (tests use it to simulate a code change without
    editing files).
    """
    global _SOURCE_FINGERPRINT
    override = os.environ.get("REPRO_SOURCE_FINGERPRINT")
    if override:
        return override
    if _SOURCE_FINGERPRINT is None or refresh:
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


def cache_key(
    module: Module,
    config: SLPConfig,
    target: TargetMachine = DEFAULT_TARGET,
    unroll_factor: int = 0,
) -> str:
    """SHA-256 over the printed module text and the compile parameters."""
    hasher = hashlib.sha256()
    hasher.update(print_module(module).encode("utf-8"))
    hasher.update(f"\x00{config.name}\x00{target.name}\x00{unroll_factor}".encode())
    hasher.update(f"\x00{repro_source_fingerprint()}".encode())
    return hasher.hexdigest()


# -- (de)serialization --------------------------------------------------------------


def _record_to_json(record: SuperNodeRecord) -> Dict[str, object]:
    return {
        "kind": record.kind,
        "lanes": record.lanes,
        "size": record.size,
        "family": record.family.name,
        "contains_inverse": record.contains_inverse,
        "vectorized": record.vectorized,
        "leaf_swaps": record.leaf_swaps,
        "trunk_swaps": record.trunk_swaps,
    }


def _record_from_json(data: Dict[str, object]) -> SuperNodeRecord:
    return SuperNodeRecord(
        kind=data["kind"],
        lanes=data["lanes"],
        size=data["size"],
        family=Opcode[data["family"]],
        contains_inverse=data["contains_inverse"],
        vectorized=data["vectorized"],
        leaf_swaps=data["leaf_swaps"],
        trunk_swaps=data["trunk_swaps"],
    )


def _graph_to_json(graph: GraphReport) -> Dict[str, object]:
    return {
        "function": graph.function,
        "block": graph.block,
        "lanes": graph.lanes,
        "cost": graph.cost,
        "vectorized": graph.vectorized,
        "node_count": graph.node_count,
        "gather_count": graph.gather_count,
        "supernodes": [_record_to_json(r) for r in graph.supernodes],
        "dump": graph.dump,
        "kind": graph.kind,
        "gather_reasons": list(graph.gather_reasons),
    }


def _graph_from_json(data: Dict[str, object]) -> GraphReport:
    return GraphReport(
        function=data["function"],
        block=data["block"],
        lanes=data["lanes"],
        cost=data["cost"],
        vectorized=data["vectorized"],
        node_count=data["node_count"],
        gather_count=data["gather_count"],
        supernodes=[_record_from_json(r) for r in data["supernodes"]],
        dump=data["dump"],
        kind=data["kind"],
        gather_reasons=list(data["gather_reasons"]),
    )


def result_to_json(result: CompilationResult) -> Dict[str, object]:
    """Serialize a compilation result to a JSON-compatible document."""
    return {
        "format": CACHE_FORMAT,
        "module": print_module(result.module),
        "report": {
            "config_name": result.report.config_name,
            "functions": [
                {"name": fn.name, "graphs": [_graph_to_json(g) for g in fn.graphs]}
                for fn in result.report.functions
            ],
        },
        "compile_seconds": result.compile_seconds,
        "phase_seconds": dict(result.phase_seconds),
        "counters": dict(result.counters),
    }


def result_from_json(data: Dict[str, object]) -> CompilationResult:
    """Rebuild a compilation result from :func:`result_to_json` output."""
    report = VectorizationReport(
        config_name=data["report"]["config_name"],
        functions=[
            FunctionReport(
                name=fn["name"],
                graphs=[_graph_from_json(g) for g in fn["graphs"]],
            )
            for fn in data["report"]["functions"]
        ],
    )
    return CompilationResult(
        module=parse_module(data["module"]),
        report=report,
        compile_seconds=data["compile_seconds"],
        phase_seconds=dict(data["phase_seconds"]),
        counters=dict(data["counters"]),
    )


# -- the shared on-disk store -------------------------------------------------------


def _lock_file(handle) -> None:
    if fcntl is not None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)


def _unlock_file(handle) -> None:
    if fcntl is not None:
        fcntl.flock(handle.fileno(), fcntl.LOCK_UN)


class SharedJsonStore:
    """File-locked, LRU-bounded JSON document store shared across processes.

    One ``<key>.json`` file per document, written atomically
    (tmp + ``os.replace``) and wrapped as ``{"pid": writer, "doc": ...}``
    so readers can tell cross-process hits from own-process ones.  A
    ``.index.json`` recency map, mutated only under an ``flock`` on
    ``.lock``, drives least-recently-used eviction once the store exceeds
    ``max_entries``.  The index is advisory: if it is missing or corrupt
    it is rebuilt from directory mtimes, so deleting it never loses data.

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
        self.namespace = namespace
        self.max_entries = max_entries
        self.last_get: str = "miss"
        os.makedirs(self.directory, exist_ok=True)
        self._lock_path = os.path.join(self.directory, ".lock")
        self._index_path = os.path.join(self.directory, ".index.json")

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

    # -- recency index (call only under the lock) --

    def _read_index(self) -> Dict[str, float]:
        corrupt = False
        try:
            with open(self._index_path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            entries = data.get("entries") if isinstance(data, dict) else None
            if isinstance(entries, dict):
                return {str(key): float(stamp) for key, stamp in entries.items()}
            corrupt = True
        except FileNotFoundError:
            pass  # fresh store: no index yet, nothing to recover from
        except (OSError, ValueError, TypeError):
            corrupt = True
        if corrupt:
            session = current_session()
            STAT_INDEX_REBUILDS.resolve(session.stats).add()
            session.remarks.recovery(
                "cache",
                f"recency index for {self.namespace!r} store was corrupt; "
                f"rebuilt from entry mtimes (no documents lost)",
                namespace=self.namespace,
            )
        # Rebuild from directory mtimes: the index is a hint, not truth.
        entries: Dict[str, float] = {}
        for name in os.listdir(self.directory):
            if name.startswith(".") or not name.endswith(".json"):
                continue
            try:
                entries[name[:-5]] = os.path.getmtime(
                    os.path.join(self.directory, name)
                )
            except OSError:
                continue
        return entries

    def _write_index(self, entries: Dict[str, float]) -> None:
        tmp = f"{self._index_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            # dumps runs the C encoder; dump streams through the Python one
            handle.write(json.dumps({"entries": entries}))
        os.replace(tmp, self._index_path)

    def _touch(self, key: str) -> None:
        with self._locked():
            entries = self._read_index()
            entries[key] = time.time()
            self._write_index(entries)

    def _fire_index_fault(self) -> None:
        """``serve.cache.index`` fault hook: scribble garbage over the
        recency index so the next ``_read_index`` exercises the rebuild
        path.  One attribute check when nothing is armed."""
        faults = current_session().faults
        if faults is None or not getattr(faults, "armed", None):
            return

        def _scribble() -> None:
            with open(self._index_path, "w", encoding="utf-8") as handle:
                handle.write('{"entries": {truncated garbage')

        faults.fire("serve.cache.index", corrupt=_scribble)

    # -- public API --

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """Stored document for ``key`` or None; never raises on bad data."""
        stats = current_session().stats
        path = self._path(key)
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
        self._touch(key)
        self.last_get = "hit"
        return doc

    def put(self, key: str, doc: Dict[str, object]) -> None:
        """Store ``doc`` under ``key``, evicting LRU entries over the cap."""
        stats = current_session().stats
        path = self._path(key)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"pid": os.getpid(), "doc": doc}))
        os.replace(tmp, path)
        with self._locked():
            self._fire_index_fault()
            entries = self._read_index()
            entries[key] = time.time()
            if self.max_entries is not None:
                while len(entries) > self.max_entries:
                    oldest = min(entries, key=entries.get)
                    if oldest == key:  # never evict what we just wrote
                        break
                    entries.pop(oldest)
                    try:
                        os.remove(self._path(oldest))
                    except OSError:
                        pass
                    STAT_EVICTIONS.resolve(stats).add()
            self._write_index(entries)

    def discard(self, key: str) -> None:
        """Drop ``key`` (used for corrupt entries); missing keys are fine."""
        try:
            os.remove(self._path(key))
        except OSError:
            pass
        with self._locked():
            entries = self._read_index()
            if entries.pop(key, None) is not None:
                self._write_index(entries)

    def keys(self) -> list:
        return sorted(
            name[:-5]
            for name in os.listdir(self.directory)
            if name.endswith(".json") and not name.startswith(".")
        )

    def __len__(self) -> int:
        return len(self.keys())


# -- the cache ----------------------------------------------------------------------


class CompileCache:
    """In-memory compile cache with optional shared on-disk persistence.

    With ``directory=None`` entries live only in this process.  With a
    directory, entries are also written through a :class:`SharedJsonStore`
    (namespace ``compile``) and lookups fall back to disk on an in-memory
    miss, so a warm directory survives process boundaries and is safely
    shared by concurrent service workers (the CI warm/hit check relies on
    this).  ``max_entries`` bounds the *on-disk* store with LRU eviction;
    the in-memory layer mirrors only what this process touched.

    ``last_lookup`` reports how the most recent :meth:`lookup` resolved:
    ``"memory"``, ``"disk"``, ``"miss"``, ``"stale"`` (format-version
    mismatch) or ``"corrupt"`` (garbage on disk, deleted and treated as a
    miss).
    """

    def __init__(
        self,
        directory: Optional[str] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        self.directory = directory
        self.max_entries = max_entries
        self.last_lookup: str = "miss"
        self._entries: Dict[str, Dict[str, object]] = {}
        self._store: Optional[SharedJsonStore] = None
        if directory is not None:
            self._store = SharedJsonStore(
                directory, namespace="compile", max_entries=max_entries
            )

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def shared_store(self) -> Optional[SharedJsonStore]:
        return self._store

    def lookup(self, key: str) -> Optional[CompilationResult]:
        """Return the cached result for ``key``, or None."""
        entry = self._entries.get(key)
        self.last_lookup = "memory"
        if entry is None and self._store is not None:
            candidate = self._store.get(key)
            self.last_lookup = self._store.last_get  # "hit"/"miss"/"corrupt"
            if candidate is not None:
                if candidate.get("format") == CACHE_FORMAT:
                    entry = candidate
                    self._entries[key] = entry
                    self.last_lookup = "disk"
                else:
                    self.last_lookup = "stale"
        if entry is None:
            if self.last_lookup in ("memory", "hit"):
                self.last_lookup = "miss"
            return None
        return result_from_json(entry)

    def store(self, key: str, result: CompilationResult) -> None:
        entry = result_to_json(result)
        self._entries[key] = entry
        if self._store is not None:
            self._store.put(key, entry)


def cached_compile_module(
    module: Module,
    config: SLPConfig,
    target: TargetMachine = DEFAULT_TARGET,
    verify: bool = True,
    unroll_factor: int = 0,
    session: Optional[CompilerSession] = None,
    cache: Optional[CompileCache] = None,
) -> CompilationResult:
    """:func:`compile_module`, memoized through ``cache``.

    ``cache=None`` degrades to a plain compile.  On a hit the stored
    result is rehydrated, ``cache.hits`` is bumped, the stored counter
    snapshot is replayed into the target session (so a hit accumulates
    the same counters a compile into that session would have), and a
    ``cache_hit`` analysis remark records the key and snapshot — cached
    compiles are distinguishable from cold ones instead of silently
    skipping the pipeline.  On a miss the module is compiled normally
    (into ``session`` or an ephemeral child, exactly as
    ``compile_module`` would) and the result is stored before being
    returned.  A corrupt on-disk entry is a miss with a ``cache_corrupt``
    analysis remark, never an exception.
    """
    if cache is None:
        return compile_module(
            module, config, target,
            verify=verify, unroll_factor=unroll_factor, session=session,
        )
    target_session = session if session is not None else current_session()
    key = cache_key(module, config, target, unroll_factor)
    with target_session.metrics.timer(
        "cache.lookup.seconds", "wall seconds per compile-cache lookup"
    ):
        # The shared store records its own stats (corrupt entries,
        # cross-worker hits) into the ambient session; scope it to the
        # same session the hit/miss counters target.
        with use_session(target_session):
            cached = cache.lookup(key)
    if cache.last_lookup == "corrupt":
        target_session.remarks.analysis(
            "cache",
            f"cache_corrupt: discarded garbage entry {key[:12]} for "
            f"{config.name}/{target.name}; compiling cold",
            key=key,
            config=config.name,
            target=target.name,
        )
    if cached is not None:
        STAT_HITS.resolve(target_session.stats).add()
        _gauge_hit_rate(target_session)
        for name, value in sorted(cached.counters.items()):
            target_session.stats.stat(name).add(value)
        target_session.remarks.analysis(
            "cache",
            f"cache_hit: replayed {config.name}/{target.name} compile of "
            f"module {module.name} from key {key[:12]}",
            key=key,
            config=config.name,
            target=target.name,
            unroll=unroll_factor,
            counters=dict(cached.counters),
        )
        return cached
    STAT_MISSES.resolve(target_session.stats).add()
    _gauge_hit_rate(target_session)
    result = compile_module(
        module, config, target,
        verify=verify, unroll_factor=unroll_factor, session=session,
    )
    with use_session(target_session):  # eviction stats, as for lookup
        cache.store(key, result)
    return result


def _gauge_hit_rate(session: CompilerSession) -> None:
    """Keep the ``cache.hit_rate`` gauge current with the session's
    hit/miss counters (no-op while metrics are disabled)."""
    if not session.metrics.enabled:
        return
    hits = session.stats.value(STAT_HITS.name)
    misses = session.stats.value(STAT_MISSES.name)
    total = hits + misses
    if total:
        session.metrics.gauge(
            "cache.hit_rate", hits / total,
            description="compile-cache hits / lookups for this session",
        )
