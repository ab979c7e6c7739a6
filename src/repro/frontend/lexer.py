"""Lexer for the kernel language.

The kernel language is the C subset the paper's examples are written in:
global array declarations, one induction-variable ``for`` loop per kernel,
and straight-line arithmetic assignments over array elements.

Tokenizing is one regex pass: each match consumes the whitespace and
comments before a token together with the token, so skipped text makes no
object, and each real token makes one :class:`Token`.  A token's
``line:column`` is computed only when its ``location`` is read.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import List, Optional

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
# alternatives.  Comments are tried before the ``/`` operator; an
# unterminated ``/*`` is no comment, so it lexes as ``/`` then ``*``.
# ``eof`` matches only at the end of the source and ``bad`` any character
# no token starts with, so every position has a match.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/)*
    (?:
      (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>\+=|-=|\*=|/=|==|!=|<=|>=|[-+*/=<>;,(){}\[\]?:])
    | (?P<float>\d+\.\d*(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
    | (?P<int>\d+)
    | (?P<eof>\Z)
    | (?P<bad>.)
    )
    """,
    re.VERBOSE | re.DOTALL,
)

#: match.lastindex of each group; the first four name their token kind
_KINDS = (None, "ident", "op", "float", "int")
_IDENT, _EOF, _BAD = 1, 5, 6


class _LineIndex:
    """The offsets at which the lines of one source start, found on the
    first lookup: a source whose locations are never read is never
    scanned for them."""

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


class Token:
    """One token: ``kind`` ('int', 'float', 'ident', 'keyword', 'op',
    'eof'), its ``text``, and its ``offset`` in the source.  ``location``
    is the ``line:column`` of its first character, computed when read."""

    __slots__ = ("kind", "text", "offset", "_lines")

    def __init__(self, kind: str, text: str, offset: int, lines: _LineIndex) -> None:
        self.kind = kind
        self.text = text
        self.offset = offset
        self._lines = lines

    @property
    def location(self) -> SourceLocation:
        lines = self._lines
        starts = lines._starts or lines.starts()
        line = bisect_right(starts, self.offset)
        return SourceLocation(line, self.offset - starts[line - 1] + 1)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Token({self.kind}, {self.text!r}, {self.location})"


def tokenize(source: str) -> List[Token]:
    """Split kernel-language source into tokens (comments stripped), the
    last of kind ``eof``."""
    lines = _LineIndex(source)
    tokens: List[Token] = []
    append = tokens.append
    for match in _TOKEN_RE.finditer(source):
        index = match.lastindex
        text = match.group(index)
        if index == _IDENT:
            kind = "keyword" if text in KEYWORDS else "ident"
        elif index >= _EOF:
            if index == _BAD:
                bad = Token("bad", text, match.start(index), lines)
                raise LexError(f"unexpected character {text!r}", bad.location)
            append(Token("eof", "", match.start(index), lines))
            break
        else:
            kind = _KINDS[index]
        append(Token(kind, text, match.start(index), lines))
    return tokens
