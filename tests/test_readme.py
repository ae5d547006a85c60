"""The README's examples must run as written.

Every fenced ```python block of README.md is executed in a fresh
namespace, so a renamed or unexported name fails here first.  Every
`$ malmsten ...` sample is run through cli.main and must print the lines
shown under it (timing_ms masked, CRLF read as LF); a `...` line ends
what is compared.  Its claim of no runtime dependencies outside the
standard library is checked against every import in src/malmsten.
"""

import ast
import contextlib
import io
import re
import shlex
import sys
from pathlib import Path

import pytest

from malmsten.cli import main

README = Path(__file__).parent.parent / "README.md"
PACKAGE = Path(__file__).parent.parent / "src" / "malmsten"
_TEXT = README.read_text(encoding="utf-8")
_TIMING = re.compile(r'"timing_ms":[^,}]+')


def _fenced_blocks(info):
    """The text of every fenced block whose info string is `info`."""
    blocks, body = [], None
    for line in _TEXT.splitlines():
        if not line.startswith("```"):
            if body is not None:
                body.append(line)
        elif body is None:
            opened, body = line[3:].strip(), []
        else:
            if opened == info:
                blocks.append("\n".join(body) + "\n")
            body = None
    return blocks


def _cli_samples():
    """(argv, shown lines) for each `$ malmsten` line of a plain fenced
    block; the shown lines run to the next blank line."""
    samples = []
    for block in _fenced_blocks(""):
        for chunk in block.split("\n\n"):
            command, *shown = chunk.strip("\n").split("\n")
            if command.startswith("$ malmsten "):
                samples.append((shlex.split(command)[2:], shown))
    return samples


def test_python_blocks_run():
    blocks = _fenced_blocks("python")
    assert blocks, "README.md has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})


_SAMPLES = _cli_samples()


def _masked(lines):
    return [_TIMING.sub('"timing_ms":"*"', line) for line in lines]


def test_readme_has_cli_samples():
    assert _SAMPLES, "README.md has no $ malmsten sample"


@pytest.mark.parametrize("argv, shown", _SAMPLES, ids=[" ".join(a) for a, _ in _SAMPLES])
def test_cli_sample_output(argv, shown):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    lines = out.getvalue().replace("\r\n", "\n").splitlines()
    if "..." in shown:
        shown = shown[:shown.index("...")]
        lines = lines[:len(shown)]
    assert _masked(lines) == _masked(shown)


def test_package_imports_only_the_standard_library():
    assert "no dependencies outside the standard library" in _TEXT
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names | {"malmsten"}]
    assert not outside, outside
