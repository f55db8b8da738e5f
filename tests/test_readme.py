"""The README's examples run as written against the package and its CLI,
the documented scenes are valid, and every exported name has a user."""

import ast
import contextlib
import importlib
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


def exported_names():
    """The public names ``moeblox/__init__.py`` imports from its modules."""
    tree = ast.parse((ROOT / "src" / "moeblox" / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not alias.name.startswith("_")
    }


def referenced_names(tree):
    """Names a module uses as code: loaded names, attributes and imports,
    leaving out those inside the top-level definition of the same name."""
    found = set()
    for top in tree.body:
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.ImportFrom):
                found.update(alias.name for alias in node.names)
                continue
            else:
                continue
            if name != own:
                found.add(name)
    return found


def test_every_export_has_a_user():
    # a public name only tests reach is API kept for nobody
    sources = [p for p in (ROOT / "src" / "moeblox").glob("*.py") if p.name != "__init__.py"]
    sources += sorted((ROOT / "bench").glob("*.py"))
    used = set()
    for path in sources:
        used |= referenced_names(ast.parse(path.read_text(encoding="utf-8")))
    (quickstart,) = fenced_blocks("python")
    used |= referenced_names(ast.parse(quickstart))
    assert sorted(exported_names() - used) == []


def error_classes():
    """The classes ``moeblox/errors.py`` defines."""
    tree = ast.parse((ROOT / "src" / "moeblox" / "errors.py").read_text(encoding="utf-8"))
    return sorted(node.name for node in tree.body if isinstance(node, ast.ClassDef))


def test_error_classes_are_the_documented_ones():
    (section,) = re.findall(r"^## Errors\n(.*?)^## ", README, flags=re.S | re.M)
    assert sorted(re.findall(r"^\| `(\w+)` \|", section, flags=re.M)) == error_classes()


def test_every_error_class_is_raised():
    # a class nothing raises is a type callers are told to expect for nothing
    raised = set()
    for path in (ROOT / "src" / "moeblox").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
    assert [name for name in error_classes() if name not in raised | {"MoebloxError"}] == []


def hypothesis_tests():
    """(id, test) for each hypothesis test of every ``tests/test_*.py``, its
    id as the suite prints it."""
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        module = importlib.import_module(path.stem)
        for name, value in vars(module).items():
            members = vars(value).items() if isinstance(value, type) and name.startswith("Test") else [(None, value)]
            for attr, test in members:
                if getattr(test, "is_hypothesis_test", False):
                    yield "::".join(filter(None, (f"tests/{path.name}", name, attr))), test


def test_every_property_is_derandomized():
    # a property that draws new examples on every run makes Tier-1 pass or
    # fail by chance; the settings a test runs with are on its wrapper,
    # whether given inline or through a shared object
    drawn = []
    for test_id, test in hypothesis_tests():
        kept = test._hypothesis_internal_use_settings
        if not (kept.derandomize and kept.database is None):
            drawn.append(test_id)
    assert drawn == []


def test_workflow_jobs_and_steps_are_well_formed():
    # the CI workflow is edited by hand and has no other check before it
    # runs: every job names its runner, and every step runs a command or uses
    # an action (PyYAML is no test dependency, so the test skips without it)
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8"))
    jobs = workflow["jobs"]
    assert jobs
    for name, job in jobs.items():
        assert "runs-on" in job, name
        assert job["steps"], name
        for step in job["steps"]:
            assert "run" in step or "uses" in step, (name, step)
