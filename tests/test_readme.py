"""The README's python blocks run as written."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_verbatim():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    assert abs(float(printed[0]) - 0.4) <= 1e-12
    assert printed[1] == "{(0, (1,)): 0.5}"
