"""Every exported name has a caller outside the tests.

A name in ``qnlab.__all__`` must appear as a whole word in the package
sources, ``scripts/`` or ``perfbench/``.  The package ``__init__.py`` and
the name's own ``def``/``class`` statement, body included, do not count,
so a name that only tests or its own body (say, an error message) reach
fails here.
"""

import ast
import re
from pathlib import Path

import pytest

import qnlab

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "qnlab" / "__init__.py"
SOURCES = [
    path
    for folder in ("src/qnlab", "scripts", "perfbench")
    for path in sorted((ROOT / folder).rglob("*.py"))
    if path != INIT
]


def _definition_spans(tree):
    """Line numbers of each top-level def/class statement, decorators and
    body included, by name."""
    spans = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            spans.setdefault(node.name, set()).update(range(first, node.end_lineno + 1))
    return spans


FILES = []
for _path in SOURCES:
    _text = _path.read_text(encoding="utf-8")
    FILES.append((_text.splitlines(), _definition_spans(ast.parse(_text))))


@pytest.mark.parametrize("name", sorted(qnlab.__all__))
def test_exported_name_has_a_caller(name):
    word = re.compile(rf"\b{name}\b")
    uses = [
        line
        for lines, spans in FILES
        for no, line in enumerate(lines, 1)
        if no not in spans.get(name, ()) and word.search(line)
    ]
    assert uses, f"{name} is exported but only its own definition and the tests mention it"
