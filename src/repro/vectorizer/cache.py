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

Results persist in a :class:`SharedJsonStore`, a JSON document store
designed for *concurrent writers*: all workers of a :mod:`repro.serve`
pool (and successive service runs) point at the same directory, so one
worker's cold result becomes every other worker's hit.  The service
memoizes its task replies in stores of its own (see
:mod:`repro.serve.tasks`); :class:`CompileCache` is the store behind
``repro compile --cache-dir``.  Each entry is one file and the only
record of its result: it carries the writing process's pid, which lets
a reader count ``cache.cross_worker_hits``, and its modification time
is its recency stamp, set on every write and every hit.  Truncated or
garbage entries are deleted and treated as misses
(``cache.corrupt_entries``), never raised.  Once a bounded store holds
more than ``max_entries`` documents, the ones with the oldest stamps are
evicted in one batch (``cache.evictions``).

Compile-cache hits and misses are counted through the ambient
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
from ..observe import DECISION, STAT
from ..observe.session import Capture, CompilerSession, current_session, use_session
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

#: bump when the serialized entry layout changes; stale-version entries
#: on disk are treated as misses rather than deserialization errors
CACHE_FORMAT = 2

_SOURCE_FINGERPRINT: Optional[str] = None


def repro_source_fingerprint() -> str:
    """Content hash of every ``repro`` source module, cached per process.

    Folded into cache keys so a persistent cache directory survives a
    code change *safely*: entries written by an older checkout simply
    stop matching and recompile, instead of replaying counters/reports
    the current compiler would no longer produce.
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


# -- the cache ----------------------------------------------------------------------


class CompileCache:
    """Compile cache over a shared on-disk store, behind ``repro compile
    --cache-dir``.

    Entries live in a :class:`SharedJsonStore` (namespace ``compile``)
    under ``directory``, so a warm directory survives process boundaries
    (the CI warm/hit check relies on this).  The store is the only
    layer: every lookup reads the entry file, and ``max_entries`` bounds
    the store with least-recently-used eviction.

    ``last_lookup`` reports how the most recent :meth:`lookup` resolved:
    ``"hit"``, ``"miss"``, ``"stale"`` (format-version mismatch) or
    ``"corrupt"`` (garbage on disk, deleted and treated as a miss).
    """

    def __init__(self, directory: str, max_entries: Optional[int] = None) -> None:
        self.last_lookup: str = "miss"
        self._store = SharedJsonStore(
            directory, namespace="compile", max_entries=max_entries
        )

    def lookup(self, key: str) -> Optional[CompilationResult]:
        """Return the cached result for ``key``, or None."""
        entry = self._store.get(key)
        self.last_lookup = self._store.last_get  # "hit"/"miss"/"corrupt"
        if entry is None:
            return None
        if entry.get("format") != CACHE_FORMAT:
            self.last_lookup = "stale"
            return None
        return result_from_json(entry)

    def store(self, key: str, result: CompilationResult) -> None:
        self._store.put(key, result_to_json(result))


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

    ``cache=None`` degrades to a plain compile, and so does a session
    with decisions armed: a stored result cannot replay the decision
    records a compile makes.  On a hit the stored result is rehydrated,
    ``cache.hits`` is bumped, the stored counter snapshot is absorbed
    into the target session (so a hit accumulates the same counters a
    compile into that session would have), and a ``cache_hit`` analysis
    remark records the key and snapshot — cached compiles are
    distinguishable from cold ones instead of silently skipping the
    pipeline.  On a miss the module is compiled normally
    (into ``session`` or an ephemeral child, exactly as
    ``compile_module`` would) and the result is stored before being
    returned.  A corrupt on-disk entry is a miss with a ``cache_corrupt``
    analysis remark, never an exception.
    """
    target_session = session if session is not None else current_session()
    if cache is None or target_session.tracer.mask & DECISION:
        return compile_module(
            module, config, target,
            verify=verify, unroll_factor=unroll_factor, session=session,
        )
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
        target_session.tracer.remark(
            "analysis", "cache",
            f"cache_corrupt: discarded garbage entry {key[:12]} for "
            f"{config.name}/{target.name}; compiling cold",
            key=key,
            config=config.name,
            target=target.name,
        )
    if cached is not None:
        STAT_HITS.resolve(target_session.stats).add()
        _gauge_hit_rate(target_session)
        target_session.absorb(Capture(counters=dict(cached.counters)))
        target_session.tracer.remark(
            "analysis", "cache",
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
