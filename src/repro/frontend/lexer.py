"""Lexer for the kernel language.

The kernel language is the C subset the paper's examples are written in:
global array declarations, one induction-variable ``for`` loop per kernel,
and straight-line arithmetic assignments over array elements.

Tokenizing is one regex pass: each match consumes the whitespace and
comments before a token together with the token, so skipped text makes no
object.  :func:`scan` returns the tokens as parallel lists of kinds, texts
and offsets plus the source's :class:`LineIndex`, which the parser reads
directly; :func:`tokenize` views the same scan as :class:`Token` objects.
A ``line:column`` is computed from an offset only when it is read.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import List, NamedTuple, Optional

from .errors import LexError, SourceLocation

KEYWORDS = frozenset(
    {
        "kernel",
        "for",
        "double",
        "float",
        "long",
        "int",
        "nofastmath",
    }
)

# Whitespace and comments (the skipped prefix), then exactly one of the
# alternatives.  The prefix takes every closed comment, so a ``/*`` left
# after it has no ``*/`` and is an error (``open``), not the ``/``
# operator.  ``eof`` matches only at the end of the source and ``bad`` any
# character no token starts with, so every position has a match.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*
    (?:
      (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>\+=|-=|\*=|/=|==|!=|<=|>=|/(?!\*)|[-+*=<>;,(){}\[\]?:])
    | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
    | (?P<int>\d+)
    | (?P<eof>\Z)
    | (?P<open>/\*)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

#: match.lastindex of each group; the first five name their token kind
_KINDS = (None, "ident", "op", "float", "int", "eof")
_IDENT, _EOF, _OPEN = 1, 5, 6


class LineIndex:
    """The offsets at which the lines of one source start, found on the
    first lookup: a source whose locations are never read is never
    scanned for them.  Shared by the source's tokens and AST nodes."""

    __slots__ = ("source", "_starts")

    def __init__(self, source: str) -> None:
        self.source = source
        self._starts: Optional[List[int]] = None

    def starts(self) -> List[int]:
        starts = self._starts
        if starts is None:
            starts = self._starts = [0]
            source = self.source
            newline = source.find("\n")
            while newline >= 0:
                starts.append(newline + 1)
                newline = source.find("\n", newline + 1)
        return starts

    def location(self, offset: int) -> SourceLocation:
        """The ``line:column`` of the character at ``offset``."""
        starts = self._starts or self.starts()
        line = bisect_right(starts, offset)
        return SourceLocation(line, offset - starts[line - 1] + 1)


class Scan(NamedTuple):
    """One source's tokens as parallel lists, the last of kind ``eof``
    (text ``""``, offset the source's length)."""

    kinds: List[str]
    texts: List[str]
    offsets: List[int]
    lines: LineIndex


class Token:
    """One token: ``kind`` ('int', 'float', 'ident', 'keyword', 'op',
    'eof'), its ``text``, and its ``offset`` in the source.  ``location``
    is the ``line:column`` of its first character, computed when read."""

    __slots__ = ("kind", "text", "offset", "_lines")

    def __init__(self, kind: str, text: str, offset: int, lines: LineIndex) -> None:
        self.kind = kind
        self.text = text
        self.offset = offset
        self._lines = lines

    @property
    def location(self) -> SourceLocation:
        return self._lines.location(self.offset)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind}, {self.text!r}, {self.location})"


def scan(source: str) -> Scan:
    """Split kernel-language source into tokens (comments stripped)."""
    lines = LineIndex(source)
    kinds: List[str] = []
    texts: List[str] = []
    offsets: List[int] = []
    add_kind, add_text, add_offset = kinds.append, texts.append, offsets.append
    for match in _TOKEN_RE.finditer(source):
        index = match.lastindex
        text = match.group(index)
        offset = match.start(index)
        if index > _EOF:
            raise LexError(
                "unterminated /* comment" if index == _OPEN
                else f"unexpected character {text!r}",
                lines.location(offset),
            )
        add_kind("keyword" if index == _IDENT and text in KEYWORDS else _KINDS[index])
        add_text(text)
        add_offset(offset)
        if index == _EOF:  # trailing whitespace would match a second one
            break
    return Scan(kinds, texts, offsets, lines)


def tokenize(source: str) -> List[Token]:
    """Split kernel-language source into tokens (comments stripped), the
    last of kind ``eof``."""
    kinds, texts, offsets, lines = scan(source)
    return [
        Token(kind, text, offset, lines)
        for kind, text, offset in zip(kinds, texts, offsets)
    ]
