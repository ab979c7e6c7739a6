"""Every module-level import in ``src/repro`` is used by its module.

A name bound by a top-level ``import`` or ``from ... import`` (other than
``from __future__``) must appear somewhere else in the same file as a
whole word: in code, a docstring, a comment or ``__all__``.  Package
``__init__.py`` files are skipped, since their imports are re-exports.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _bound_names(node):
    """The names one import statement binds in its module."""
    if isinstance(node, ast.Import):
        return [
            alias.asname or alias.name.split(".")[0] for alias in node.names
        ]
    if node.module == "__future__":
        return []
    return [alias.asname or alias.name for alias in node.names]


def unused_imports(path):
    """Names imported at the top of ``path`` that nothing else mentions."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    unused = []
    for node in ast.parse(text, filename=str(path)).body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        rest = "\n".join(
            lines[: node.lineno - 1] + lines[node.end_lineno:]
        )
        for name in _bound_names(node):
            if name != "*" and not re.search(rf"\b{re.escape(name)}\b", rest):
                unused.append(name)
    return unused


def test_no_unused_module_imports():
    found = {
        str(path.relative_to(SRC.parent)): names
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
        for names in [unused_imports(path)]
        if names
    }
    assert found == {}, found
