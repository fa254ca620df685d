"""Every exported name has a caller outside the tests.

A name in ``qnlab.__all__`` must appear as a whole word in the package
sources, ``scripts/`` or ``perfbench/``.  The package ``__init__.py`` and
the line that defines the name do not count, so a name that only tests
reach fails here.
"""

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
TEXT = "\n".join(path.read_text(encoding="utf-8") for path in SOURCES)


@pytest.mark.parametrize("name", sorted(qnlab.__all__))
def test_exported_name_has_a_caller(name):
    own_definition = re.compile(rf"^\s*(def|class)\s+{name}\b")
    word = re.compile(rf"\b{name}\b")
    uses = [
        line for line in TEXT.splitlines() if word.search(line) and not own_definition.match(line)
    ]
    assert uses, f"{name} is exported but only its definition and the tests mention it"
