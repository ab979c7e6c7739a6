"""Deterministic fault injection: named sites, armed on demand.

The robustness layer needs *reproducible* failures to prove its recovery
paths fire: tests and ``repro chaos`` arm exactly one site with one
mode and the instrumented code faults on the chosen hit, every time.
There is no randomness at the fire point — determinism comes from the
caller picking (site, mode, skip) from a seed, so a failing run replays
bit-for-bit.

Sites are declared statically here (the single source of truth the CLI
and tests enumerate) and instrumented modules call :meth:`FaultInjector.
fire` at the matching point.  ``fire`` is one dict lookup when nothing is
armed, so the hooks stay in hot paths unconditionally, like statistic
counters.

Modes:

* ``raise``   — raise :class:`FaultError` (a compiler crash);
* ``corrupt`` — run the site's corruption action, producing structurally
  invalid IR that the post-phase verifier must catch (proves the
  verify gate, not just exception handling);
* ``stall``   — burn wall-clock time (or interpreter steps), tripping
  the guarded driver's phase budget / the interpreter watchdog.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..observe.session import DEFAULT_SESSION, current_session

FAULT_MODES = ("raise", "corrupt", "stall")


class FaultError(RuntimeError):
    """A deliberately injected fault (never raised by real compiler bugs)."""


@dataclass(frozen=True)
class FaultSite:
    """One named point in the pipeline where faults can be injected."""

    name: str
    description: str
    #: subset of FAULT_MODES this site's instrumentation supports
    modes: Tuple[str, ...]
    #: the pipeline phase a fault at this site surfaces in
    phase: str


#: every registered site; instrumented modules fire these names verbatim
FAULT_SITES: Dict[str, FaultSite] = {
    site.name: site
    for site in (
        FaultSite(
            "simplify.module",
            "inside the simplify pass (exercises phase-skip recovery)",
            ("raise", "stall"),
            "simplify",
        ),
        FaultSite(
            "supernode.build-chain",
            "while growing a Multi-/Super-Node lane chain",
            ("raise",),
            "vectorize",
        ),
        FaultSite(
            "reorder.reorder",
            "during Super-Node leaf/trunk reordering",
            ("raise", "stall"),
            "vectorize",
        ),
        FaultSite(
            "reorder.generate-code",
            "while rewriting lane IR to the reordered model",
            ("raise",),
            "vectorize",
        ),
        FaultSite(
            "codegen.emit",
            "after vector code emission (corrupt drops the terminator)",
            ("raise", "corrupt"),
            "vectorize",
        ),
        FaultSite(
            "interp.step",
            "per interpreted instruction (exercises the step watchdog)",
            ("raise", "stall"),
            "execute",
        ),
        # -- compile-service sites (phase "service") -------------------
        # Worker-side sites are armed *inside* pool workers via the
        # fault plans the pool ships at spawn (generation 0 only, so a
        # respawned worker models a healthy replacement); parent-side
        # sites fire in the service/front-end process.
        FaultSite(
            "serve.worker.crash",
            "worker process dies hard mid-task (exercises respawn+requeue)",
            ("raise",),
            "service",
        ),
        FaultSite(
            "serve.worker.stall",
            "worker wedges past the service's stall budget mid-task",
            ("stall",),
            "service",
        ),
        FaultSite(
            "serve.task.error",
            "transient in-worker task failure (exercises client retry)",
            ("raise",),
            "service",
        ),
        FaultSite(
            "serve.pipe.frame",
            "worker sends a truncated/garbage result frame on its pipe",
            ("corrupt",),
            "service",
        ),
        FaultSite(
            "serve.cache.entry",
            "shared-store entry file scribbled with garbage before a read",
            ("corrupt",),
            "service",
        ),
        FaultSite(
            "serve.socket.disconnect",
            "socket server drops the client connection mid-request",
            ("raise",),
            "service",
        ),
        FaultSite(
            "serve.respawn",
            "respawning a dead worker fails (slot goes defunct)",
            ("raise",),
            "service",
        ),
    )
}

#: the sites reachable from ``compile_module`` (everything but the
#: interpreter, which only runs during simulation/oracle checks, and the
#: compile-service boundary, which only exists under ``repro serve``)
COMPILE_SITES: Tuple[str, ...] = tuple(
    name
    for name, site in FAULT_SITES.items()
    if site.phase not in ("execute", "service")
)

#: the compile-service boundary sites; ``repro chaos`` arms every one,
#: as it arms every (site, mode) of :data:`COMPILE_SITES`
SERVICE_SITES: Tuple[str, ...] = tuple(
    name for name, site in FAULT_SITES.items() if site.phase == "service"
)

#: service sites that fire *inside pool workers* — arming them means
#: shipping a plan to the worker at spawn (``WorkerPool(fault_plans=…)``)
WORKER_SIDE_SITES: Tuple[str, ...] = (
    "serve.worker.crash",
    "serve.worker.stall",
    "serve.task.error",
    "serve.pipe.frame",
    "serve.cache.entry",
)


def site_named(name: str) -> FaultSite:
    site = FAULT_SITES.get(name)
    if site is None:
        raise KeyError(
            f"unknown fault site {name!r}; registered: {sorted(FAULT_SITES)}"
        )
    return site


@dataclass
class FaultPlan:
    """One armed fault: where, how, and on which hit."""

    site: str
    mode: str
    #: number of hits to let pass before firing (0 = fire on first hit)
    skip: int = 0
    #: fire only once, then keep counting hits without firing
    once: bool = False
    hits: int = 0
    fired: int = 0


class FaultInjector:
    """Process-wide registry of armed fault plans.

    ``armed`` maps site name -> plan; the common case (nothing armed) is
    a single falsy-dict check in :meth:`fire`.
    """

    def __init__(self) -> None:
        self.armed: Dict[str, FaultPlan] = {}
        #: how long a "stall" burns by default — long enough to blow any
        #: test-sized phase budget, short enough to keep suites fast
        self.stall_seconds: float = 0.25

    # -- arming -----------------------------------------------------------

    def arm(
        self, site: str, mode: str = "raise", skip: int = 0, once: bool = False
    ) -> FaultPlan:
        declared = site_named(site)
        if mode not in declared.modes:
            raise ValueError(
                f"site {site!r} does not support mode {mode!r} "
                f"(supported: {list(declared.modes)})"
            )
        plan = FaultPlan(site=site, mode=mode, skip=skip, once=once)
        self.armed[site] = plan
        return plan

    def disarm_all(self) -> None:
        self.armed.clear()

    # -- the hook instrumented code calls ---------------------------------

    def fire(
        self,
        site: str,
        corrupt: Optional[Callable[[], None]] = None,
        stall: Optional[Callable[[], None]] = None,
    ) -> None:
        """Fault at ``site`` if a plan is armed for it.

        ``corrupt``/``stall`` are site-local actions supplied by the
        instrumented code (it knows what IR handle to scribble on or how
        to burn its budget); they run only when the matching mode is
        armed.
        """
        if not self.armed:
            return
        plan = self.armed.get(site)
        if plan is None:
            return
        plan.hits += 1
        if plan.hits <= plan.skip:
            return
        if plan.once and plan.fired:
            return
        plan.fired += 1
        if plan.mode == "raise":
            raise FaultError(f"injected fault at {site}")
        if plan.mode == "stall":
            if stall is not None:
                stall()
            else:
                time.sleep(self.stall_seconds)
            return
        if plan.mode == "corrupt":
            if corrupt is not None:
                corrupt()
            else:  # site offered no corruption action: degrade to a crash
                raise FaultError(f"injected fault (corrupt) at {site}")
            return
        raise AssertionError(f"unknown fault mode {plan.mode!r}")


# The default session's injector, disarmed (and therefore free) by
# default; code arms faults through :func:`current_faults` or an explicit
# session's ``faults`` slot.  CompilerSession keeps ``faults`` as an
# opaque slot precisely so observe/ never has to import this module;
# derived sessions share their parent's injector, so a fault armed
# before a guarded/fuzzed compile stays armed inside it.
DEFAULT_SESSION.faults = FaultInjector()


def current_faults() -> FaultInjector:
    """The ambient session's fault injector, bound lazily on first use."""
    session = current_session()
    injector = session.faults
    if injector is None:
        injector = session.faults = FaultInjector()
    return injector
