"""Named statistic counters — the repro's LLVM ``-stats``.

Modules register counters once at import time::

    from ..observe import STAT
    _TRUNK_MOVES = STAT("supernode.trunk-moves-applied", "trunk swaps applied")

and bump them on the hot path with ``_TRUNK_MOVES.add()`` — exactly like
LLVM's ``STATISTIC`` macro.  ``STAT`` returns a :class:`StatProxy`: the
handle is registered once at import time but resolves the *current*
:class:`~repro.observe.session.CompilerSession`'s registry at increment
time, so the same module-scope handle records into whichever session is
active (see :mod:`repro.observe.session`).

A :class:`StatsRegistry` belongs to one session.  It supports
``snapshot()`` (non-zero values as a plain dict) and ``reset()`` (zero
every counter in place, preserving handle identity); isolation between
compilations comes from :meth:`CompilerSession.derive` handing each
compilation a fresh registry, not from resetting a shared one.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Statistic:
    """One named counter.  Values may be fractional (e.g. cycle totals)."""

    __slots__ = ("name", "description", "value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.value: float = 0

    def add(self, amount: float = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Statistic({self.name}={self.value})"


class StatsRegistry:
    """Process-wide registry of :class:`Statistic` handles."""

    def __init__(self) -> None:
        self._stats: Dict[str, Statistic] = {}

    def stat(self, name: str, description: str = "") -> Statistic:
        """Return the (per-registry) counter for ``name``, registering it
        on first use.  A later registration may fill in a description;
        absent that, the process-wide :data:`STAT_CATALOG` description
        recorded by ``STAT(...)`` is used."""
        existing = self._stats.get(name)
        if existing is not None:
            if description and not existing.description:
                existing.description = description
            return existing
        created = Statistic(name, description or STAT_CATALOG.get(name, ""))
        self._stats[name] = created
        return created

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def value(self, name: str) -> float:
        stat = self._stats.get(name)
        return stat.value if stat is not None else 0

    def names(self) -> List[str]:
        return sorted(self._stats)

    def snapshot(self) -> Dict[str, float]:
        """Non-zero counter values as a plain dict (insertion-safe copy)."""
        return {
            name: stat.value
            for name, stat in sorted(self._stats.items())
            if stat.value
        }

    def reset(self) -> None:
        """Zero every counter *in place* — registered handles stay valid."""
        for stat in self._stats.values():
            stat.value = 0

    def report(
        self, title: str = "Statistics Collected", include_zero: bool = True
    ) -> str:
        """An LLVM ``-stats``-style table of the registered counters."""
        rows = [
            stat
            for _, stat in sorted(self._stats.items())
            if include_zero or stat.value
        ]
        lines = [f"===-- {title} --==="]
        if not rows:
            lines.append("(no statistics registered)")
            return "\n".join(lines)
        width = max(len(_fmt_value(stat.value)) for stat in rows)
        for stat in rows:
            suffix = f" - {stat.description}" if stat.description else ""
            lines.append(f"{_fmt_value(stat.value):>{width}} {stat.name}{suffix}")
        return "\n".join(lines)


def _fmt_value(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.1f}"


#: every name/description ever passed to ``STAT(...)`` — the process-wide
#: *catalog* of counters (descriptions only; values live per session)
STAT_CATALOG: Dict[str, str] = {}


class StatProxy:
    """A lazy counter handle bound to a *name*, not a registry.

    ``add()`` and ``value`` resolve the ambient session's registry at
    call time, so module-scope ``STAT(...)`` handles keep working no
    matter which :class:`~repro.observe.session.CompilerSession` is
    active when the hot path runs.
    """

    __slots__ = ("name", "description")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        if description and not STAT_CATALOG.get(name):
            STAT_CATALOG[name] = description
        else:
            STAT_CATALOG.setdefault(name, description)

    def resolve(self, registry: Optional[StatsRegistry] = None) -> Statistic:
        """The concrete :class:`Statistic` in ``registry`` (default: the
        current session's)."""
        if registry is None:
            registry = _session.current_stats()
        return registry.stat(self.name, self.description)

    def add(self, amount: float = 1) -> None:
        self.resolve().add(amount)

    @property
    def value(self) -> float:
        return _session.current_stats().value(self.name)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StatProxy({self.name})"


def STAT(name: str, description: str = "") -> StatProxy:
    """Register a counter name and return its lazy per-session handle
    (mirrors LLVM's ``STATISTIC`` macro)."""
    return StatProxy(name, description)


# ``session`` imports this module for ``StatsRegistry``, so it is bound
# here, after every definition it needs, and read at call time.
from . import session as _session  # noqa: E402
