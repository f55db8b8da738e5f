"""The README's examples run as written against the package and its CLI,
and the documented scenes are valid."""

import contextlib
import io
import json
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from moeblox import parse_scene, render_scene
from moeblox.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


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


def documented_scenes():
    """The README's scene and every scene file shipped in ``scenes/``."""
    (block,) = fenced_blocks("json")
    yield pytest.param(block, id="README")
    for path in sorted((ROOT / "scenes").glob("*.json")):
        yield pytest.param(path.read_text(encoding="utf-8"), id=path.name)


@pytest.mark.parametrize("text", documented_scenes())
def test_documented_scene_renders_to_xml(text):
    svg = render_scene(parse_scene(json.loads(text)))
    ET.fromstring(svg.encode("utf-8"))
