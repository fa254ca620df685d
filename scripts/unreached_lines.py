#!/usr/bin/env python
"""Print the statement lines of ``src/qnlab`` that the experiments and the
benchmark workloads never run.

Runs every registered experiment at its defaults (serializing each
report), then rounds 0 and 1 of each workload in ``perfbench/workloads.py``
at seed 1 (each op's call and its output check), then each line of the
README's ``## Command line`` sh block through ``qnlab.cli.main``, in a
temporary directory, under a line tracer limited to ``src/qnlab``.
Prints, module by module and grouped by enclosing function, the statement
lines that never ran; ``raise`` statements are left out, since an
unreached error path is expected.  What is listed is reached only by the
tests, or by nothing: candidates for deletion.

Exits 0 unless an experiment, an op or a check raises; a check that
reports a wrong output, and a README line that exits nonzero, are printed
to standard error.

Usage: python scripts/unreached_lines.py
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qnlab"
ROUNDS = (0, 1)
WORKLOAD_SEED = 1

# left out: raise statements, and statements that run no code of their own
_SKIPPED = (ast.Raise, ast.Try, ast.Global, ast.Nonlocal)


def _statements(path: Path) -> dict[tuple[int, int], str]:
    """The candidate statements of one module: (first, last) line of the
    code that the statement itself runs (the header of a compound
    statement, decorators included), mapped to its enclosing function."""
    spans = {}

    def visit(body, owner):
        for node in body:
            is_doc = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            nested = [child for field in ("body", "orelse", "finalbody") for child in getattr(node, field, [])]
            nested += [child for handler in getattr(node, "handlers", []) for child in handler.body]
            nested += [child for case in getattr(node, "cases", []) for child in case.body]
            if not (is_doc or isinstance(node, _SKIPPED)):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                last = max(first, min(child.lineno for child in nested) - 1) if nested else node.end_lineno
                spans[(first, last)] = owner
            inner = owner
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = node.name if owner == "<module>" else f"{owner}.{node.name}"
            visit(nested, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")).body, "<module>")
    return spans


def _workload_ops():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        for r in ROUNDS:
            yield from workloads.build_round(name, WORKLOAD_SEED, r)


def _readme_cli_lines() -> list[str]:
    """The lines of the README's ``## Command line`` sh block.  The tests
    workflow in ``.github/workflows/tests.yml`` extracts the same block
    with awk; a change to the block's layout changes both."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```$", text, re.S | re.M)
    return [line for line in block.group(1).splitlines() if line.strip()]


def _run_everything():
    from qnlab.cli import main as cli_main
    from qnlab.harness import ExperimentConfig, list_experiments, run

    for entry in list_experiments():
        run(ExperimentConfig(experiment=entry["name"])).to_json()
    for op in _workload_ops():
        message = op.check(op.call())
        if message:
            print(f"check of {op.kind} failed: {message}", file=sys.stderr)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)  # the README lines write their reports here
        try:
            for line in _readme_cli_lines():
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(shlex.split(line, comments=True)[1:])
                if code:
                    print(f"README line exited {code}: {line}", file=sys.stderr)
        finally:
            os.chdir(here)


def _ranges(lines: list[int]) -> str:
    parts, start = [], None
    for i, line in enumerate(lines):
        if start is None:
            start = line
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(parts)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(trace)  # before the import, so module-level code counts
    try:
        _run_everything()
    finally:
        sys.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        seen = ran[str(path)]
        spans = _statements(path)
        missed = defaultdict(list)
        for (first, last), owner in sorted(spans.items()):
            if not any(line in seen for line in range(first, last + 1)):
                missed[owner].append(first)
        count = sum(len(v) for v in missed.values())
        total += count
        print(f"{path.relative_to(ROOT)}: {count} of {len(spans)} statements unreached")
        for owner, lines in missed.items():
            print(f"  {owner}: {_ranges(lines)}")
    print(f"total: {total} statements unreached")
    return 0


if __name__ == "__main__":
    sys.exit(main())
