"""The README's library quick start runs and prints the values its comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_prints_its_commented_values():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    assert block, "README has no Python block under 'Library quick start'"
    code = block.group(1)
    assert re.search(r"print\(envelope_distance\(ball\)\.value\)\s+# 3\.0 ", code)
    assert re.search(r"print\(gamma2_upper\(u\)\.upper\)\s+# 1\.0, certified", code)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {"__name__": "readme_quick_start"})
    lines = out.getvalue().splitlines()
    assert "3.0" in lines  # envelope distance of the l_1/2 ball in dim 3
    assert lines[-1] == "1.0"  # gamma2 upper bound of the Euclidean identity
