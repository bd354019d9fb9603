"""The README's examples run and say what they print."""

from __future__ import annotations

import pathlib
import re
import shlex

import pytest

from stringprime.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_block(heading: str) -> list[str]:
    """The lines of the first fenced code block under `## heading`."""
    match = re.search(rf"^## {re.escape(heading)}\n.*?^```\w*\n(.*?)^```", README, re.M | re.S)
    assert match, heading
    return match.group(1).splitlines()


SKETCH = fenced_block("Library sketch")
COMMANDS = [shlex.split(line.split("#")[0])[1:] for line in fenced_block("CLI") if line.startswith("stringprime ")]


def test_readme_blocks_are_found():
    assert len(COMMANDS) == 10
    assert sum("#" in line for line in SKETCH) == 5


@pytest.mark.parametrize("line", [line for line in SKETCH if "#" in line], ids=lambda line: line.split("(")[0])
def test_library_sketch_line_gives_its_comment(line):
    namespace: dict = {}
    imports = "\n".join(SKETCH[: SKETCH.index("")])  # the block opens with its import
    exec(imports, namespace)
    expression, expected = (part.strip() for part in line.split("#"))
    value = eval(expression, namespace)
    if expected.endswith("..."):
        assert repr(value).startswith(expected[:-3])
    else:
        assert value == eval(expected)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_example_exits_0(argv, tmp_path, monkeypatch):
    # --save-map writes to the working directory
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STRINGPRIME_CACHE", raising=False)
    assert main(argv) == 0
