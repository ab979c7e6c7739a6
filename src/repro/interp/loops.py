"""Column-wise evaluation of counted loops for the batched engine.

The plan layer recognises loops of one shape (:class:`~repro.interp.plan.
LoopPlan`): a header holding the induction phi, ``icmp lt iv, bound``
against a loop-invariant bound and a ``condbr`` to the body on true; a
body without phis that ends in ``br header``, steps the variable by ``add
iv, const`` with a positive constant and addresses memory only through
pointers affine in the variable.  When the engine enters such a header
from outside, :func:`run_loop` evaluates the body one instruction at a
time over all K iterations ("columns") instead of one iteration at a
time:

* values affine in the iteration number (the variable, index arithmetic,
  GEPs) become ``range`` columns, computed in closed form;
* each load or store site is one address stream ``base + k * delta``,
  moved in one ``struct`` call (:meth:`~repro.interp.memory.Memory.
  read_stream` / ``write_stream``);
* every other instruction maps the lane function its step uses over the
  columns of its operands; vectors are held lane-major, one column per
  lane, so shuffles and extracts only pick columns.

Column order executes all iterations of one instruction before the next
instruction, where the step path executes all instructions of one
iteration before the next iteration.  The two agree when nothing observes
the difference, which :func:`_evaluate` checks in closed form over the
iteration space before it touches memory:

* the whole loop fits the step budget;
* no affine integer wraps, so the closed forms equal the wrapping lane
  functions;
* every address stream stays in bounds;
* no store stream overlaps itself, and no two accesses, one of them a
  store, touch common bytes at iterations that column order would run in
  reverse (a later iteration of the earlier instruction against an
  earlier iteration of the later one).

It saves the bytes of every store stream first.  If a check fails or
anything raises during the pass (a trap, an unpackable store, a type the
closed forms do not model), the bytes are put back, the registers are
untouched and the engine runs the loop on its sequential path from the
same state, which raises exactly what the reference engine raises.
``interp.loops.batched`` counts loop entries evaluated here,
``interp.loops.replayed`` the ones handed back.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..observe import STAT
from .plan import VECTOR_KINDS

_BATCHED = STAT("interp.loops.batched", "loop entries evaluated column-wise")
_REPLAYED = STAT(
    "interp.loops.replayed",
    "loop entries run sequentially after a legality check failed or the "
    "column pass raised",
)

#: iterations per column pass; bounds the memory a pass holds in columns
CHUNK = 2048


def trip_count(start: int, bound: int, step: int) -> int:
    """Iterations of ``for (iv = start; iv < bound; iv += step)``, ``step > 0``."""
    return max(-((start - bound) // step), 0)


def reordered(x0: int, dx: int, sx: int, y0: int, dy: int, sy: int, trips: int) -> bool:
    """True when the access ``x`` (``sx`` bytes at ``x0 + k * dx``) at some
    iteration overlaps the later access ``y`` at an earlier iteration.

    Exact for equal strides; for unequal ones any overlap of the two
    streams' extents counts.
    """
    if trips < 2:
        return False
    if dx != dy:
        x1, y1 = x0 + (trips - 1) * dx, y0 + (trips - 1) * dy
        return min(x0, x1) < max(y0, y1) + sy and min(y0, y1) < max(x0, x1) + sx
    # x at iteration ky + j against y at ky overlap iff -sx < delta + j*d < sy
    delta, d = x0 - y0, dx
    if d == 0:
        return -sx < delta < sy
    if d > 0:
        first = (-sx - delta) // d + 1
        last = -((delta - sy) // d) - 1
    else:
        first = (delta - sy) // -d + 1
        last = -((-delta - sx) // -d) - 1
    return max(first, 1) <= min(last, trips - 1)


def run_loop(loop, start, regs: List, memory, room: int) -> Tuple[int, bool]:
    """Evaluate the loop ``loop`` entered with the variable at ``start``.

    ``room`` is the step budget left.  Returns ``(iterations, exited)``:
    the iterations evaluated and whether they were all of them, in which
    case the header has also run its exit check.  After a partial result
    the registers hold the state at the end of the last evaluated
    iteration, and the caller continues sequentially at the header.
    """
    bound = regs[loop.bound]
    if type(start) is not int or type(bound) is not int:
        _REPLAYED.add()
        return 0, False
    step = loop.step
    trips = trip_count(start, bound, step)
    last = start + trips * step
    if (
        trips * (loop.header_count + loop.body_count) + loop.header_count > room
        or not loop.iv_min <= last <= loop.iv_max
    ):
        _REPLAYED.add()
        return 0, False
    done = 0
    while done < trips:
        chunk = min(trips - done, CHUNK)
        if not _evaluate(loop, start + done * step, chunk, regs, memory):
            _REPLAYED.add()
            return done, False
        done += chunk
    regs[loop.iv] = last
    regs[loop.cmp] = 0  # the exit check: last < bound is false
    _BATCHED.add()
    return trips, True


def _evaluate(loop, start: int, trips: int, regs: List, memory) -> bool:
    """Run ``trips`` iterations from ``start`` column-wise; False, with
    memory and registers as they were, when they must run sequentially."""
    saved: List[Tuple[int, bytes]] = []
    finals: List[Tuple[int, object]] = []
    try:
        legal = _legal_streams(loop, start, trips, regs, memory.size, finals)
        if legal is None:
            return False
        affine, streams, stored = legal
        saved = [(lo, memory.read_bytes(lo, hi)) for lo, hi in stored]
        _columns(loop, affine, streams, trips, regs, memory, finals)
    except Exception:  # the sequential replay raises the reference error
        for lo, raw in saved:
            memory.write_bytes(lo, raw)
        return False
    for d, value in finals:
        regs[d] = value
    return True


def _legal_streams(loop, start: int, trips: int, regs: List, limit: int, finals: List):
    """The closed-form checks.  Returns each affine slot's and each
    address's ``(base, delta)`` and the byte extents the stores cover, or
    None when a check fails."""
    step = loop.step
    affine: Dict[int, Tuple[int, int]] = {loop.iv: (start, step)}
    finals.append((loop.iv, start + (trips - 1) * step))
    for kind, d, a, b, extra in loop.affine:
        a0, da = affine.get(a) or _invariant(regs[a])
        b0, db = affine.get(b) or _invariant(regs[b])
        if kind == "gep":
            base, delta = a0 + b0 * extra, da + db * extra
        else:
            if kind == "add":
                base, delta = a0 + b0, da + db
            elif kind == "sub":
                base, delta = a0 - b0, da - db
            else:  # mul, one side invariant
                base, delta = a0 * b0, da * b0 + db * a0
            lo, hi = extra
            if not (lo <= base <= hi and lo <= base + (trips - 1) * delta <= hi):
                return None
        affine[d] = (base, delta)
        finals.append((d, base + (trips - 1) * delta))

    streams: Dict[int, Tuple[int, int]] = {}
    spans = []
    for index, (store, p, size) in enumerate(loop.accesses):
        a0, delta = streams[p] = affine.get(p) or _invariant(regs[p])
        a1 = a0 + (trips - 1) * delta
        lo, hi = min(a0, a1), max(a0, a1) + size
        if lo <= 0 or hi > limit or (store and trips > 1 and -size < delta < size):
            return None
        spans.append((lo, hi, index, store, a0, delta, size))
    # sweep the extents in address order: only overlapping ones can conflict
    spans.sort()
    for i, x in enumerate(spans):
        for j in range(i + 1, len(spans)):
            y = spans[j]
            if y[0] >= x[1]:
                break
            if x[3] or y[3]:
                first, second = (x, y) if x[2] < y[2] else (y, x)
                if reordered(*first[4:], *second[4:], trips):
                    return None
    return affine, streams, [(x[0], x[1]) for x in spans if x[3]]


def _invariant(value) -> Tuple[int, int]:
    if type(value) is not int:
        raise TypeError(f"address operand {value!r} is not an int")
    return value, 0


def _columns(loop, affine, streams, trips: int, regs: List, memory, finals: List) -> None:
    """The column pass proper: every body instruction over all iterations."""
    cols: Dict[int, object] = {}
    for d, (base, delta) in affine.items():
        cols[d] = range(base, base + trips * delta, delta) if delta else [base] * trips
    for slot, vector in loop.invariants:
        value = regs[slot]
        cols[slot] = tuple([lane] * trips for lane in value) if vector else [value] * trips
    for (kind, d, a, b, c, extra), dead in zip(loop.program, loop.dead):
        if kind == "load" or kind == "vload":
            base, delta = streams[a]
            col = memory.read_stream(extra, base, delta, trips)
        elif kind == "store" or kind == "vstore":
            base, delta = streams[b]
            memory.write_stream(extra, base, delta, trips, cols[a])
        elif kind == "binary" or kind == "map2":
            col = list(map(extra, cols[a], cols[b]))
        elif kind == "vbinary" or kind == "lanes2":
            col = tuple(list(map(extra, x, y)) for x, y in zip(cols[a], cols[b]))
        elif kind == "map1":
            col = list(map(extra, cols[a]))
        elif kind == "lanes1":
            col = tuple(list(map(extra, x)) for x in cols[a])
        elif kind == "alt":
            col = tuple(list(map(f, x, y)) for f, x, y in zip(extra, cols[a], cols[b]))
        elif kind == "shuffle":
            joined = cols[a] + cols[b]
            if any(not 0 <= m < len(joined) for m in extra):
                raise IndexError(extra)
            col = tuple(joined[m] for m in extra)
        elif kind == "extract":
            vector, lane = cols[a], regs[b]
            if not 0 <= lane < len(vector):
                raise IndexError(lane)
            col = vector[lane]
        elif kind == "insert":
            vector, lane = cols[a], regs[c]
            if not 0 <= lane < len(vector):
                raise IndexError(lane)
            col = vector[:lane] + (cols[b],) + vector[lane + 1:]
        elif kind == "select":
            col = [x if k else y for k, x, y in zip(cols[a], cols[b], cols[c])]
        elif kind == "vselect":  # vector condition: per-lane pick
            col = tuple(
                [x if k else y for k, x, y in zip(ks, xs, ys)]
                for ks, xs, ys in zip(cols[a], cols[b], cols[c])
            )
        else:  # bselect: scalar condition picks whole vectors
            xs, ys = cols[b], cols[c]
            if len(xs) != len(ys):
                raise ValueError("select arms differ in width")
            col = tuple(
                [x if k else y for k, x, y in zip(cols[a], xl, yl)]
                for xl, yl in zip(xs, ys)
            )
        if d is not None:
            cols[d] = col
            if kind in VECTOR_KINDS:
                finals.append((d, tuple(lane[-1] for lane in col)))
            else:
                finals.append((d, col[-1]))
        for slot in dead:
            del cols[slot]
