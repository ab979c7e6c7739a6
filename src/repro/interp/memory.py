"""Flat byte-addressed memory for the interpreter.

Pointers in the interpreter are plain integer byte addresses into one
``bytearray``.  Global buffers are laid out at load time with natural
alignment; typed element access goes through :mod:`struct` codes so f32
loads/stores round to binary32 exactly like real hardware.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence

from ..ir.types import FloatType, IntType, Type, VectorType
from ..ir.values import GlobalBuffer


class MemoryError_(Exception):
    """Out-of-bounds or misaligned access (named to avoid the builtin)."""


_INT_CODES = {8: "b", 16: "h", 32: "i", 64: "q"}
_FLOAT_CODES = {32: "f", 64: "d"}


def _scalar_code(type_: Type) -> str:
    if isinstance(type_, IntType):
        # i1 is stored in a full byte.
        return _INT_CODES[max(type_.bits, 8)]
    if isinstance(type_, FloatType):
        return _FLOAT_CODES[type_.bits]
    raise TypeError(f"no storage code for {type_}")


def _scalar_size(type_: Type) -> int:
    return max(type_.byte_width, 1)


def _element_lanes(type_: Type):
    if isinstance(type_, VectorType):
        return type_.element, type_.count
    return type_, 1


def access_size(type_: Type) -> int:
    """Bytes one load or store of ``type_`` touches."""
    element, lanes = _element_lanes(type_)
    _scalar_code(element)  # raises TypeError for types memory cannot hold
    return _scalar_size(element) * lanes


class Memory:
    """Flat memory with bump allocation and typed accessors."""

    def __init__(self, size: int = 1 << 20) -> None:
        self._data = bytearray(size)
        self._next = 16  # keep address 0 invalid (null)
        self._buffers: Dict[str, int] = {}
        self._buffer_objects: Dict[str, GlobalBuffer] = {}

    # -- allocation --------------------------------------------------------------

    def allocate(self, size: int, align: int = 16) -> int:
        addr = (self._next + align - 1) & ~(align - 1)
        if addr + size > len(self._data):
            raise MemoryError_(
                f"out of memory: need {size} bytes at {addr}, "
                f"capacity {len(self._data)}"
            )
        self._next = addr + size
        return addr

    def bind_global(self, buffer: GlobalBuffer) -> int:
        """Allocate storage for a global buffer and remember its address."""
        if buffer.name in self._buffers:
            return self._buffers[buffer.name]
        size = _scalar_size(buffer.element) * buffer.count
        addr = self.allocate(size)
        self._buffers[buffer.name] = addr
        self._buffer_objects[buffer.name] = buffer
        if buffer.initializer is not None:
            self.write_array(addr, buffer.element, buffer.initializer)
        return addr

    def address_of_global(self, buffer: GlobalBuffer) -> int:
        try:
            return self._buffers[buffer.name]
        except KeyError:
            raise MemoryError_(f"global @{buffer.name} not bound") from None

    # -- scalar access -----------------------------------------------------------

    def load_scalar(self, addr: int, type_: Type):
        size = _scalar_size(type_)
        self._check(addr, size)
        raw = struct.unpack_from(_scalar_code(type_), self._data, addr)[0]
        if isinstance(type_, IntType):
            return type_.wrap(raw)
        return raw

    def store_scalar(self, addr: int, type_: Type, value) -> None:
        size = _scalar_size(type_)
        self._check(addr, size)
        if isinstance(type_, IntType):
            value = type_.wrap(int(value))
        struct.pack_into(_scalar_code(type_), self._data, addr, value)

    # -- vector access -----------------------------------------------------------

    def load_value(self, addr: int, type_: Type):
        """Load a scalar or vector value of ``type_`` starting at ``addr``."""
        if isinstance(type_, VectorType):
            stride = _scalar_size(type_.element)
            return tuple(
                self.load_scalar(addr + i * stride, type_.element)
                for i in range(type_.count)
            )
        return self.load_scalar(addr, type_)

    def store_value(self, addr: int, type_: Type, value) -> None:
        if isinstance(type_, VectorType):
            stride = _scalar_size(type_.element)
            for i, elem in enumerate(value):
                self.store_scalar(addr + i * stride, type_.element, elem)
            return
        self.store_scalar(addr, type_, value)

    # -- planned-engine step factories --------------------------------------------
    #
    # The batched engine binds one step per load/store site at plan-bind
    # time.  A step reads its address register, makes one bounds compare
    # and one pre-compiled ``struct.Struct`` call on the raw buffer (vectors
    # move all lanes at once) and, for a load, writes its result register.
    # Any failure (out of bounds, unpackable value) replays the element-wise
    # reference path, which raises the exact reference exception after the
    # exact partial-store prefix.

    def scalar_load_step(self, type_: Type, regs: List, d: int, p: int):
        """The step for ``regs[d] = load type_, regs[p]``."""
        size = _scalar_size(type_)
        unpack_from = struct.Struct(_scalar_code(type_)).unpack_from
        data = self._data
        limit = len(data)
        if isinstance(type_, IntType) and type_.bits < 8:
            wrap = type_.wrap

            def step():
                addr = regs[p]
                if addr <= 0 or addr + size > limit:
                    raise MemoryError_(
                        f"access of {size} bytes at {addr} out of bounds"
                    )
                regs[d] = wrap(unpack_from(data, addr)[0])

            return step

        # i8..i64 round-trip exactly through their signed struct codes, so
        # the reference path's wrap() is the identity and can be skipped.
        def step():
            addr = regs[p]
            if addr <= 0 or addr + size > limit:
                raise MemoryError_(
                    f"access of {size} bytes at {addr} out of bounds"
                )
            regs[d] = unpack_from(data, addr)[0]

        return step

    def scalar_store_step(self, type_: Type, regs: List, v: int, p: int):
        """The step for ``store type_ regs[v], regs[p]``."""
        size = _scalar_size(type_)
        pack_into = struct.Struct(_scalar_code(type_)).pack_into
        data = self._data
        limit = len(data)
        if isinstance(type_, IntType):
            wrap = type_.wrap

            def step():
                addr = regs[p]
                if addr <= 0 or addr + size > limit:
                    raise MemoryError_(
                        f"access of {size} bytes at {addr} out of bounds"
                    )
                pack_into(data, addr, wrap(int(regs[v])))

            return step

        def step():
            addr = regs[p]
            if addr <= 0 or addr + size > limit:
                raise MemoryError_(
                    f"access of {size} bytes at {addr} out of bounds"
                )
            pack_into(data, addr, regs[v])

        return step

    def vector_load_step(self, vec_type: VectorType, regs: List, d: int, p: int):
        """The step for ``regs[d] = load vec_type, regs[p]`` (one bulk unpack)."""
        element = vec_type.element
        count = vec_type.count
        total = _scalar_size(element) * count
        unpack_from = struct.Struct(f"{count}{_scalar_code(element)}").unpack_from
        data = self._data
        limit = len(data)
        load_value = self.load_value
        if isinstance(element, IntType) and element.bits < 8:
            wrap = element.wrap

            def step():
                addr = regs[p]
                if addr <= 0 or addr + total > limit:
                    # element-wise replay raises the reference error
                    regs[d] = load_value(addr, vec_type)
                    return
                regs[d] = tuple(wrap(raw) for raw in unpack_from(data, addr))

            return step

        def step():
            addr = regs[p]
            if addr <= 0 or addr + total > limit:
                regs[d] = load_value(addr, vec_type)
                return
            regs[d] = unpack_from(data, addr)

        return step

    def vector_store_step(self, vec_type: VectorType, regs: List, v: int, p: int):
        """The step for ``store vec_type regs[v], regs[p]`` (one bulk pack)."""
        element = vec_type.element
        count = vec_type.count
        total = _scalar_size(element) * count
        pack_into = struct.Struct(f"{count}{_scalar_code(element)}").pack_into
        data = self._data
        limit = len(data)
        store_value = self.store_value
        if isinstance(element, IntType):
            wrap = element.wrap

            def step():
                addr = regs[p]
                values = regs[v]
                if addr <= 0 or addr + total > limit:
                    store_value(addr, vec_type, values)
                    return
                try:
                    pack_into(data, addr, *[wrap(int(x)) for x in values])
                except Exception:
                    # replay element-wise: identical partial-store prefix,
                    # identical per-element exception
                    store_value(addr, vec_type, values)

            return step

        def step():
            addr = regs[p]
            values = regs[v]
            if addr <= 0 or addr + total > limit:
                store_value(addr, vec_type, values)
                return
            try:
                pack_into(data, addr, *values)
            except Exception:
                store_value(addr, vec_type, values)

        return step

    # -- column streams (see repro.interp.loops) -----------------------------------
    #
    # A loop's load or store site touches ``addr + k * delta`` at iteration
    # k.  The column pass moves all of a site's iterations in one ``struct``
    # call; scalar sites give one sequence of values, vector sites a tuple
    # holding one such sequence per lane.

    @property
    def size(self) -> int:
        return len(self._data)

    def read_bytes(self, lo: int, hi: int) -> bytes:
        return bytes(self._data[lo:hi])

    def write_bytes(self, lo: int, raw: bytes) -> None:
        self._data[lo:lo + len(raw)] = raw

    def read_stream(self, type_: Type, addr: int, delta: int, count: int):
        """What ``count`` loads of ``type_`` at ``addr``, ``addr + delta``,
        ... return, column-wise."""
        element, lanes = _element_lanes(type_)
        size = _scalar_size(element)
        code = _scalar_code(element)
        span = (count - 1) * delta
        lo = addr + min(span, 0)
        self._check(lo, abs(span) + size * lanes)
        stride, rem = divmod(abs(delta), size)
        if rem:  # misaligned: one small unpack per iteration
            unpack_from = struct.Struct(f"{lanes}{code}").unpack_from
            addresses = range(addr, addr + count * delta, delta)
            rows = [unpack_from(self._data, a) for a in addresses]
            columns = list(zip(*rows))
        else:  # one unpack of the whole span, sliced per lane
            total = (count - 1) * stride + lanes
            flat = struct.unpack_from(f"{total}{code}", self._data, lo)
            if stride == 0:
                columns = [[flat[j]] * count for j in range(lanes)]
            else:
                columns = [flat[j:j + total - lanes + 1:stride] for j in range(lanes)]
                if delta < 0:
                    columns = [column[::-1] for column in columns]
        if isinstance(element, IntType) and element.bits < 8:
            wrap = element.wrap
            columns = [[wrap(raw) for raw in column] for column in columns]
        return tuple(columns) if isinstance(type_, VectorType) else columns[0]

    def write_stream(self, type_: Type, addr: int, delta: int, count: int, column) -> None:
        """Store ``column`` (shaped as :meth:`read_stream` returns it) as
        ``count`` stores of ``type_`` at ``addr``, ``addr + delta``, ...
        would.  The stores must not overlap one another; nothing is written
        when a value does not pack."""
        element, lanes = _element_lanes(type_)
        size = _scalar_size(element)
        total = size * lanes
        stride = abs(delta)
        if isinstance(type_, VectorType):
            if len(column) != lanes:
                raise ValueError(f"{len(column)} lane columns for {type_}")
            flat = [None] * (count * lanes)
            for j, lane in enumerate(column):
                flat[j::lanes] = lane[::-1] if delta < 0 else lane
        else:
            flat = list(column[::-1] if delta < 0 else column)
        if isinstance(element, IntType):
            wrap = element.wrap
            flat = [wrap(int(value)) for value in flat]
        packed = struct.pack(f"{count * lanes}{_scalar_code(element)}", *flat)
        lo = addr + min((count - 1) * delta, 0)
        self._check(lo, (count - 1) * stride + total)
        data = self._data
        if count == 1 or stride == total:
            data[lo:lo + count * total] = packed
        elif stride > total:
            end = lo + (count - 1) * stride + 1
            for b in range(total):
                data[lo + b:end + b:stride] = packed[b::total]
        else:
            raise MemoryError_(f"stores {stride} bytes apart overlap {total}-byte values")

    # -- array helpers (test/workload convenience) ----------------------------------

    def write_array(self, addr: int, element: Type, values: Sequence) -> None:
        """Store ``values`` from ``addr`` as ``store_scalar`` on each element
        in turn would, in one ``struct`` call when every value packs."""
        count = len(values)
        stride = _scalar_size(element)
        end = addr + stride * count
        if count and 0 < addr and end <= len(self._data):
            saved = self._data[addr:end]
            try:
                if isinstance(element, IntType) and element.bits < 8:
                    # i1 wraps first: its byte code would store 2..127 as is
                    wrap = element.wrap
                    packed = [wrap(int(v)) for v in values]
                else:
                    # i8..i64 values in range and floats pack as they are;
                    # any other value makes the call raise
                    packed = values
                struct.pack_into(
                    f"{count}{_scalar_code(element)}", self._data, addr, *packed
                )
                return
            except Exception:
                self._data[addr:end] = saved  # a failed pack zeroes its range
        # element-wise replay raises the reference error
        for i, value in enumerate(values):
            self.store_scalar(addr + i * stride, element, value)

    def read_array(self, addr: int, element: Type, count: int) -> List:
        stride = _scalar_size(element)
        if count and 0 < addr <= addr + stride * count <= len(self._data):
            raw = struct.unpack_from(
                f"{count}{_scalar_code(element)}", self._data, addr
            )
            if isinstance(element, IntType) and element.bits < 8:
                wrap = element.wrap
                return [wrap(v) for v in raw]
            return list(raw)
        return [self.load_scalar(addr + i * stride, element) for i in range(count)]

    def write_global(self, name: str, values: Sequence) -> None:
        buffer = self._buffer_objects[name]
        if len(values) > buffer.count:
            raise MemoryError_(
                f"@{name} holds {buffer.count} elements, got {len(values)}"
            )
        self.write_array(self._buffers[name], buffer.element, values)

    def read_global(self, name: str) -> List:
        buffer = self._buffer_objects[name]
        return self.read_array(self._buffers[name], buffer.element, buffer.count)

    # -- internals ---------------------------------------------------------------

    def _check(self, addr: int, size: int) -> None:
        if addr <= 0 or addr + size > len(self._data):
            raise MemoryError_(f"access of {size} bytes at {addr} out of bounds")
