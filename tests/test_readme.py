"""Every ``python`` code block in README.md runs against the package, so the
documented API cannot drift from the code unnoticed."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    text = README.read_text(encoding="utf-8")
    blocks = list(BLOCK.finditer(text))
    assert blocks
    for block in blocks:
        # pad with blank lines so a traceback names the README line
        source = "\n" * text.count("\n", 0, block.start(1)) + block.group(1)
        exec(compile(source, str(README), "exec"), {})
