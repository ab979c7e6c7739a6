"""Golden frontend output: diagnostics and token streams.

Two pins on the lexer and parser, both taken from a frontend known to be
right, so that a rewrite of either cannot move a message, a ``line:column``
or a token:

* ``DIAGNOSTICS``: the exact ``str(error)`` (``line:column: message``) and
  error class for malformed sources, from a bad character to a float
  literal in an integer context, several placed after multi-line comments,
  tabs and CRLF line ends;
* ``TOKEN_DIGESTS``: per test file, the number of mini-C sources it holds
  and a sha256 of ``(kind, text, line, column)`` over every token of them.
  Sources are the string literals holding a ``kernel name(param)``
  header, plus those the tests build from helpers (``generated``).

A test file whose sources change needs its entry regenerated; take it
with a frontend whose token streams are known not to have changed::

    PYTHONPATH=src python - <<'PY'
    import sys
    sys.path.insert(0, "tests")
    from test_frontend_golden import corpus, token_digest
    for name, sources in corpus().items():
        print(f"    {name!r}: ({len(sources)}, {token_digest(sources)!r}),")
    PY

and paste the printed lines into ``TOKEN_DIGESTS``.
"""

import ast
import hashlib
import pathlib
import random
import re
from typing import Dict, List

import pytest

from repro.frontend import FrontendError, compile_source, tokenize

TESTS = pathlib.Path(__file__).resolve().parent

#: name -> (source, error class, str(error))
DIAGNOSTICS = {
    'bad_character': (
        'double A[4];\nkernel k(n) { A[0] = 1.0 $ 2.0; }',
        'LexError',
        "2:26: unexpected character '$'",
    ),
    'bad_character_first_column': (
        '@double A[4];',
        'LexError',
        "1:1: unexpected character '@'",
    ),
    'unterminated_block_comment': (
        'double A[4];\n/* never closed\nkernel k(n) { A[0] = 1.0; }',
        'SyntaxErrorKL',
        "2:1: expected declaration or kernel, got '/'",
    ),
    'bad_character_after_multiline_comment': (
        'double A[4];\n/* two\n   lines */ kernel k(n) { A[0] = # 1.0; }',
        'LexError',
        "3:34: unexpected character '#'",
    ),
    'syntax_error_after_multiline_comment': (
        '/* a\nb */\ndouble A[4];\nkernel k(n) {\n  A[0] = 1.0 }',
        'SyntaxErrorKL',
        "5:14: expected ';', got '}'",
    ),
    'missing_semicolon': (
        'double A[4];\nkernel k(n) { A[0] = 1.0 }',
        'SyntaxErrorKL',
        "2:26: expected ';', got '}'",
    ),
    'missing_semicolon_crlf_tabs': (
        'double A[4];\r\n\tkernel k(n) {\r\n\t\tA[0] = 1.0\r\n\t}\r\n',
        'SyntaxErrorKL',
        "4:2: expected ';', got '}'",
    ),
    'error_at_eof': (
        'double A[4];\nkernel k(n) {\n  A[0] = 1.0;\n',
        'SyntaxErrorKL',
        "4:1: expected 'ident', got ''",
    ),
    'empty_program': (
        '  // nothing here\n',
        'SyntaxErrorKL',
        '2:1: program declares no kernels',
    ),
    'unknown_array': (
        'double A[4];\nkernel k(n) { Z[0] = 1.0; }',
        'SemanticError',
        "2:15: unknown array 'Z'",
    ),
    'unbound_variable': (
        '// scalars\ndouble A[4];\nkernel k(n) { A[0] = x; }',
        'SemanticError',
        "3:22: unbound variable 'x'",
    ),
    'duplicate_array': (
        'double A[4];\n/* again */ double A[8];\nkernel k(n) { A[0]=1.0; }',
        'SemanticError',
        "2:13: duplicate array 'A'",
    ),
    'float_literal_in_int_context': (
        'long A[4];\nkernel k(n) { A[0] = 1.5; }',
        'SemanticError',
        '2:22: float literal in i64 context',
    ),
    'exponent_literal_in_int_context': (
        'long A[4];\nkernel k(n) {\n  A[0] = A[1] + 1e3;\n}',
        'SemanticError',
        '3:17: float literal in i64 context',
    ),
    'chained_comparison': (
        'double A[4];\nkernel k(n) { A[0] = A[1] < A[2] < A[3] ? 1.0 : 2.0; }',
        'SyntaxErrorKL',
        '2:34: comparisons do not chain; parenthesize',
    ),
    'loop_condition_variable': (
        'double A[4];\nkernel k(n) {\n  for (i = 0; j < n; i += 1) {}\n}',
        'SyntaxErrorKL',
        "3:3: loop condition tests 'j', expected 'i'",
    ),
    'unknown_intrinsic': (
        'double A[4];\nkernel k(n) { A[0] = frob(A[1]); }',
        'SemanticError',
        "2:22: unknown intrinsic 'frob' (available: sqrt, fabs, fmin, fmax)",
    ),
    'type_mismatch': (
        'double A[4]; long B[4];\nkernel k(n) { A[0] = B[0]; }',
        'SemanticError',
        '2:22: expected f64, got i64',
    ),
}

_KERNEL_HEADER = re.compile(r"\bkernel\s+\w+\s*\(\s*\w+\s*\)")


def _docstrings(tree: ast.AST) -> set:
    """ids of the module, class and function docstring nodes of ``tree``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                found.add(id(body[0].value))
    return found


def _literal_sources(path: pathlib.Path) -> List[str]:
    """String literals of ``path`` that hold a mini-C kernel header, in
    source order."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    skip = _docstrings(tree)
    found = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in skip and _KERNEL_HEADER.search(node.value)
    ]
    found.sort(key=lambda node: (node.lineno, node.col_offset))
    return [node.value for node in found]


def _generated_sources() -> List[str]:
    """Sources the tests build from helpers rather than spell out."""
    from test_gc_neutral import _signed_sum
    from test_golden_wide_supernode import SOURCES
    from test_undo import _rejected_reduction_source

    sources = [SOURCES[name] for name in sorted(SOURCES)]
    rng = random.Random(20190216)
    for terms in range(3, 9):
        for ctype in ("double", "long"):
            sources.append(_signed_sum(f"sum{terms}{ctype[0]}", 8, terms, ctype, rng))
    sources += [_rejected_reduction_source(ctype) for ctype in ("double", "long")]
    return sources


def corpus() -> Dict[str, List[str]]:
    """Test file name (or ``generated``) -> its mini-C sources."""
    out = {}
    for path in sorted(TESTS.glob("test_*.py")):
        if path.name == pathlib.Path(__file__).name:
            continue
        sources = _literal_sources(path)
        if sources:
            out[path.name] = sources
    out["generated"] = _generated_sources()
    return out


def token_digest(sources: List[str]) -> str:
    """sha256 of ``(kind, text, line, column)`` over every token of every
    source; a source that does not lex contributes its error instead."""
    digest = hashlib.sha256()
    for source in sources:
        try:
            tokens = [
                (t.kind, t.text, t.location.line, t.location.column)
                for t in tokenize(source)
            ]
        except FrontendError as exc:
            tokens = [("error", str(exc))]
        digest.update(repr(tokens).encode())
        digest.update(b"\n")
    return digest.hexdigest()


#: test file (or ``generated``) -> (number of sources, token digest)
TOKEN_DIGESTS = {
    'test_cli.py': (3, 'abb6c7a17ee0a942d3044852497f70249a976a895f8dc3410bcec83f7f561187'),
    'test_event_stream.py': (1, '2f0875bf4ef52606243346f04e4466d834859c4c85f80e67ebe35a69af061f4f'),
    'test_frontend.py': (31, '933c12f35e4803cc67c79f7392258b561048eac18cdb93a2892a6f67cdbc1a15'),
    'test_journal.py': (1, '2f0875bf4ef52606243346f04e4466d834859c4c85f80e67ebe35a69af061f4f'),
    'test_observe.py': (1, '2f0875bf4ef52606243346f04e4466d834859c4c85f80e67ebe35a69af061f4f'),
    'test_passes.py': (2, '36e610db4c58affcd257f4e039a99b19174f80b5cb91ce5650153bfc89a8a449'),
    'test_pipeline.py': (1, '79e2b57aee535acdc1976f3bdffdc980e4c3205a5b869c25a9ed43398cde3529'),
    'test_robust.py': (1, '2f0875bf4ef52606243346f04e4466d834859c4c85f80e67ebe35a69af061f4f'),
    'test_undo.py': (1, 'beec04ece0d6c5773d5e486f866c6df931ec8c26c281fd32da8fda8a2909cdca'),
    'generated': (18, '335028bdafa8b3494cbaf3dd7cc0a8d42719a90fa34f274b7d1ee77036e72e80'),
}


class TestDiagnostics:
    @pytest.mark.parametrize("name", sorted(DIAGNOSTICS))
    def test_exact_message_and_location(self, name):
        source, kind, message = DIAGNOSTICS[name]
        with pytest.raises(FrontendError) as excinfo:
            compile_source(source)
        error = excinfo.value
        assert (type(error).__name__, str(error)) == (kind, message)
        location = f"{error.location.line}:{error.location.column}"
        assert message.startswith(location + ": ")


class TestTokenStreams:
    def test_fig3_and_loop_sources_are_in_the_corpus(self):
        from test_frontend import FIG3_SOURCE
        from test_passes import LOOP_SOURCE

        sources = corpus()
        assert FIG3_SOURCE in sources["test_frontend.py"]
        assert LOOP_SOURCE in sources["test_passes.py"]

    def test_every_test_file_is_pinned(self):
        assert sorted(corpus()) == sorted(TOKEN_DIGESTS)

    @pytest.mark.parametrize("name", sorted(TOKEN_DIGESTS))
    def test_token_stream_digest(self, name):
        sources = corpus()[name]
        assert (len(sources), token_digest(sources)) == TOKEN_DIGESTS[name]
