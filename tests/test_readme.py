"""The README's examples run as written against the package and its CLI."""

import contextlib
import io
import re
from pathlib import Path

import pytest

from moeblox.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language):
    return re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)


def synopsis():
    """(command, flags) for each ``moeblox <command> ...`` line of the CLI
    section's shell block."""
    (block,) = [b for b in fenced_blocks("sh") if b.lstrip().startswith("moeblox ")]
    for line in block.splitlines():
        command, rest = line.split()[1], line.split(maxsplit=2)[2]
        yield command, re.findall(r"--[a-z][a-z0-9-]*", rest)


def accepted_flags(command):
    """Every option string the parser accepts after ``command``, read off
    its help text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    return set(re.findall(r"--[a-z][a-z0-9-]*", out.getvalue()))


def test_quickstart_runs():
    (code,) = fenced_blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_synopsis_lists_every_command():
    commands = [command for command, _ in synopsis()]
    assert commands == ["lambda", "member", "angle", "tangent", "equiv", "normalize", "render", "sample"]


@pytest.mark.parametrize("command,flags", [pytest.param(c, f, id=c) for c, f in synopsis()])
def test_synopsis_flags_accepted(command, flags):
    assert flags
    assert set(flags) <= accepted_flags(command)
