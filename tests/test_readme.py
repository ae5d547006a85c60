"""The README's library examples must run as written.

Every fenced ```python block of README.md is executed in a fresh
namespace, so a renamed or unexported name fails here first.
"""

import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.S | re.M)
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
