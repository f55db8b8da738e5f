import cmath
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import moeblox as mx
from conftest import random_moebius
from moeblox.cli import main
from moeblox.errors import SceneError
from moeblox.render import RenderConfig, render_scene
from moeblox.scene import parse_scene

SRC = str(Path(__file__).resolve().parent.parent / "src")
E2 = math.e**2

STANDARD_SCENE = {
    "objects": [
        {
            "id": "T",
            "kind": "triple",
            "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -E2], "sign": 1},
        }
    ]
}


def _circle(center=(0, 0), radius=1):
    return {"objects": [{"id": "c", "kind": "circle", "data": {"center": list(center), "radius": radius}}]}


def _triple(**fields):
    return {"objects": [dict(STANDARD_SCENE["objects"][0], data=dict(STANDARD_SCENE["objects"][0]["data"], **fields))]}


def round_then_format(x: float, precision: int) -> str:
    """The renderer's first number formatter."""
    r = round(float(x), precision)
    if r == 0.0:
        r = 0.0  # clear negative zero
    return f"{r:.{precision}f}"


@pytest.fixture
def scene_path(tmp_path):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(STANDARD_SCENE))
    return str(path)


def run_cli(args, env_extra=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "moeblox", *args],
        capture_output=True,
        text=True,
        env=env,
    )


class TestSceneParsing:
    def test_loads_objects_and_refs(self, tmp_path):
        raw = {
            "objects": [
                {"id": "u", "kind": "circle", "data": {"center": [0, 0], "radius": 1}},
                {"id": "ax", "kind": "line", "data": {"p": [0, 0], "q": [1, 0]}},
                {"id": "p", "kind": "point", "data": "2,0"},
                {"id": "big", "kind": "cycle", "data": [1, 0, 0, -E2]},
                {
                    "id": "T",
                    "kind": "triple",
                    "data": {"c1": "ax", "c2": "u", "c3": "big", "sign": 1},
                },
            ]
        }
        scene = parse_scene(raw)
        assert scene.triple("T").c2 == mx.Cycle(1, 0, 0, -1)
        assert scene.point("p").as_complex() == 2
        assert scene.cycle("u") == mx.Cycle(1, 0, 0, -1)

    @pytest.mark.parametrize(
        "raw,needle",
        [
            ({}, "objects"),
            ({"objects": [{"id": "a"}]}, "kind"),
            ({"objects": [{"kind": "point", "data": "0,0"}]}, "id"),
            (
                {
                    "objects": [
                        {"id": "a", "kind": "point", "data": "0,0"},
                        {"id": "a", "kind": "point", "data": "1,0"},
                    ]
                },
                "duplicate",
            ),
            (
                {"objects": [{"id": "T", "kind": "triple", "data": {"c1": "ghost", "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -E2]}}]},
                "ghost",
            ),
            ({"objects": [], "bbox": [0, 0, -1, 1]}, "bbox"),
            (
                {"objects": [{"id": "c", "kind": "circle", "data": {"center": [0, 0], "radius": "abc"}}]},
                "abc",
            ),
            (
                {"objects": [{"id": "c", "kind": "circle", "data": {"center": [0, 0], "radius": None}}]},
                "float",
            ),
            ({"objects": [{"id": "q", "kind": "cycle", "data": [1, "x", 0, -1]}]}, "float"),
            (
                {"objects": [{"id": "T", "kind": "triple", "data": dict(STANDARD_SCENE["objects"][0]["data"], sign=1.7)}]},
                "sign",
            ),
            ({"objects": [], "bbox": [0, 0, math.nan, 1]}, "bbox"),
            ({"objects": [], "bbox": [0, 0, math.inf, 1]}, "bbox"),
            ({"objects": [dict(STANDARD_SCENE["objects"][0], id="a\x01b")]}, "XML"),
            (dict(STANDARD_SCENE, style={"T": {"stroke": "\x02"}}), "stroke"),
            (dict(STANDARD_SCENE, style={"T": {"dash": "4\ud800"}}), "dash"),
            # integers too large for a float, each refused by name
            (
                {"objects": [{"id": "c", "kind": "circle", "data": {"center": [0, 0], "radius": 10**400}}]},
                r"objects\[0\]\.radius is too large",
            ),
            (
                {"objects": [{"id": "c", "kind": "circle", "data": {"center": [0, 10**400], "radius": 1}}]},
                r"objects\[0\]\.center\[1\] is too large",
            ),
            ({"objects": [{"id": "q", "kind": "cycle", "data": [1, 10**400, 0, -1]}]}, "cycle component l is too large"),
            (
                {"objects": [{"id": "T", "kind": "triple", "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -(10**400)]}}]},
                r"objects\[0\]\.c3: cycle component m is too large",
            ),
            ({"objects": [{"id": "p", "kind": "point", "data": [10**400, 0]}]}, r"objects\[0\]\[0\] is too large"),
            ({"objects": [], "bbox": [0, 0, 10**400, 1]}, r"bbox\[2\] is too large"),
            (
                {"objects": [{"id": "M", "kind": "moebius", "data": [[1, 0], [0, 10**400], [0, 0], [1, 0]]}]},
                "map entry b is too large",
            ),
            # a number is a JSON int or float: numeric strings and booleans
            # are refused in every numeric field
            *(
                (scene, rf"{field} must be a number \(int or float\), got {bad!r}")
                for bad in ("2", True)
                for scene, field in (
                    (_circle(radius=bad), r"objects\[0\]\.radius"),
                    (_circle(center=[bad, 0]), r"objects\[0\]\.center\[0\]"),
                    ({"objects": [{"id": "q", "kind": "cycle", "data": [1, 0, 0, bad]}]}, "cycle component m"),
                    ({"objects": [{"id": "M", "kind": "moebius", "data": [[1, 0], [0, 0], [0, bad], [1, 0]]}]}, "map entry c"),
                    ({"objects": [], "bbox": [0, bad, 1, 1]}, r"bbox\[1\]"),
                )
            ),
            (_triple(sign=True), r"objects\[0\]\.sign must be the int 1 or -1, got True"),
            (_triple(sign=1.0), r"objects\[0\]\.sign must be the int 1 or -1, got 1\.0"),
            (json.loads('{"objects": [{"id": "c", "kind": "circle", "data": {"center": [0, 0], "radius": NaN}}]}'),
             r"objects\[0\]\.radius must be finite, got nan"),
            ({"objects": [{"id": "c", "kind": "circle", "data": {"center": [0, 0]}}]}, r"objects\[0\]\.radius is missing"),
            ({"objects": [{"id": "c", "kind": "circle", "data": {"center": [0, 0], "radius": 1, "r": 2}}]}, "unknown field 'r'"),
            ({"objects": [{"id": "p", "kind": "point"}]}, r"objects\[0\]\.data is missing"),
            # style hints follow a grammar
            (dict(STANDARD_SCENE, style={"T": {"width": 10**400}}), r"style\['T'\]\.width is too large for a float"),
            (dict(STANDARD_SCENE, style={"T": {"width": 0}}), r"style\['T'\]\.width must lie in \(0, 1000\]"),
            (dict(STANDARD_SCENE, style={"T": {"width": 1000.5}}), r"style\['T'\]\.width must lie in"),
            (dict(STANDARD_SCENE, style={"T": {"stroke": "url(#a)"}}), r"style\['T'\]\.stroke must be #rgb"),
            (dict(STANDARD_SCENE, style={"T": {"stroke": "#12345"}}), r"style\['T'\]\.stroke must be #rgb"),
            (dict(STANDARD_SCENE, style={"T": {"dash": [1, 2]}}), r"style\['T'\]\.dash must be non-negative"),
            (dict(STANDARD_SCENE, style={"T": {"dash": "4 -2"}}), r"style\['T'\]\.dash must be non-negative"),
            (dict(STANDARD_SCENE, style={"T": "red"}), r"style\['T'\]: expected an object"),
            (dict(STANDARD_SCENE, style={"T": {"colour": "red"}}), r"style\['T'\]: unknown field 'colour'"),
            (
                {"objects": [{"id": "p", "kind": "point", "data": "0,0"}, _triple(c1="p")["objects"][0]]},
                r"objects\[1\]\.c1: 'p' is not the id of a circle, line or cycle",
            ),
        ],
    )
    def test_diagnostics(self, raw, needle, tmp_path, capsys):
        with pytest.raises(SceneError, match=needle):
            parse_scene(raw)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(raw))
        assert main(["lambda", "--scene", str(path), "--triple", "T"]) == 2
        assert re.search(needle, capsys.readouterr().err)

    def test_triple_warnings_for_invalid_triple(self):
        raw = {
            "objects": [
                {
                    "id": "bad",
                    "kind": "triple",
                    "data": {"c1": [1, 0, 0, -1], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -E2]},
                }
            ]
        }
        notes = []
        render_scene(parse_scene(raw), RenderConfig(samples=16), warnings_out=notes)
        assert notes and "bad" in notes[0]


class TestRender:
    def test_element_counts_standard_scene(self, tmp_path):
        scene = parse_scene(STANDARD_SCENE)
        svg = render_scene(scene, RenderConfig(samples=256))
        assert svg.count("<line ") == 1
        assert svg.count("<circle ") == 2
        assert svg.count("<polyline ") == 2

    def test_byte_determinism_in_process(self):
        scene = parse_scene(STANDARD_SCENE)
        a = render_scene(scene, RenderConfig(samples=128))
        b = render_scene(parse_scene(STANDARD_SCENE), RenderConfig(samples=128))
        assert a == b

    def test_invalid_triple_drawn_from_raw_cycles(self, capsys):
        raw = {
            "objects": [
                {
                    "id": "bad",
                    "kind": "triple",
                    "data": {"c1": [1, 0, 0, -1], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -E2]},
                }
            ]
        }
        notes = []
        svg = render_scene(parse_scene(raw), RenderConfig(samples=64), warnings_out=notes)
        assert notes, "expected a validity warning"
        assert svg.count("<circle ") == 3  # raw cycles still drawn

    def test_config_validation(self):
        from moeblox.errors import InvalidInput

        with pytest.raises(InvalidInput):
            RenderConfig(samples=4)
        with pytest.raises(InvalidInput):
            RenderConfig(precision=2)

    @pytest.mark.parametrize("size", [{"width": True}, {"height": False}, {"width": math.inf}])
    def test_config_refuses_sizes_it_cannot_write(self, size):
        # a bool would be written as "True", an infinity as "inf"
        from moeblox.errors import InvalidInput

        with pytest.raises(InvalidInput, match="^(width|height) must be a finite number, got "):
            RenderConfig(**size)

    @pytest.mark.parametrize("size", [{"width": 0}, {"height": -1}])
    def test_config_refuses_empty_output(self, size):
        from moeblox.errors import InvalidInput

        with pytest.raises(InvalidInput, match="^output size must be positive$"):
            RenderConfig(**size)

    def test_map_without_bbox_renders(self):
        # a moebius object is not drawn and bounds nothing: the view is the triple's
        objects = STANDARD_SCENE["objects"] + [{"id": "G", "kind": "moebius", "data": [[1, 0], [0, 2], [0.5, 0], [1, 0]]}]
        svg = render_scene(parse_scene({"objects": objects}), RenderConfig(samples=64))
        assert svg == render_scene(parse_scene(STANDARD_SCENE), RenderConfig(samples=64))

    @pytest.mark.parametrize("line", [{"p": [0, 100], "q": [1, 100]}, {"p": [100, 0], "q": [0, 100]}])
    def test_line_outside_view_draws_nothing(self, line):
        # a horizontal line above the view, and a slanted one that misses it
        scene = {"objects": [{"id": "L", "kind": "line", "data": line}], "bbox": [-5, -5, 5, 5]}
        svg = render_scene(parse_scene(scene), RenderConfig(samples=16))
        assert "<svg" in svg and "<line " not in svg

    @pytest.mark.parametrize(
        "bounds,needle",
        [
            ({"t_max": math.inf}, "t_max must be finite"),
            ({"t_min": -math.inf}, "t_min must be finite"),
            ({"t_min": math.nan}, "t_min must be finite"),
            ({"t_min": -1e308, "t_max": 1e308}, "t_min=-1e[+]308 to t_max=1e[+]308"),
        ],
    )
    def test_config_refuses_non_finite_grid(self, bounds, needle):
        from moeblox.errors import InvalidInput

        with pytest.raises(InvalidInput, match=needle):
            RenderConfig(**bounds)

    @pytest.mark.parametrize(
        "field,value,needle",
        [
            ("samples", 100.5, "sample count must be an integer, got 100.5"),
            ("samples", 100.0, "sample count must be an integer, got 100.0"),
            ("precision", 6.5, "precision must be an integer, got 6.5"),
        ],
    )
    def test_config_refuses_non_integer_sizes(self, field, value, needle):
        # range() and the format spec would raise TypeError and ValueError
        from moeblox.errors import InvalidInput

        with pytest.raises(InvalidInput, match=re.escape(needle)):
            RenderConfig(**{field: value})

    def test_style_override(self):
        raw = dict(STANDARD_SCENE, style={"T": {"stroke": "#123456", "dash": "2 2"}})
        svg = render_scene(parse_scene(raw), RenderConfig(samples=64))
        assert 'stroke="#123456"' in svg

    def test_attributes_escaped(self):
        import xml.etree.ElementTree as ET

        # a hostile stroke is refused by the style grammar (test_diagnostics);
        # an id has no grammar, so it must be escaped, and a tab, LF or CR
        # written as a reference, or a parser reads it back as a space
        stroke = "#123abc"
        for hostile in ('a"><script>x</script>', "T\tx", "T\nx", "T\rx"):
            raw = {
                "objects": [dict(STANDARD_SCENE["objects"][0], id=hostile)],
                "style": {hostile: {"stroke": stroke}},
            }
            svg = render_scene(parse_scene(raw), RenderConfig(samples=64))
            root = ET.fromstring(svg.encode("utf-8"))
            groups = [g for g in root.iter("{http://www.w3.org/2000/svg}g") if "id" in g.attrib]
            assert [g.get("id") for g in groups] == [hostile]
            assert {el.get("stroke") for el in groups[0]} == {stroke}
            assert "<script>" not in svg

    @pytest.mark.parametrize("bbox", [[-8.9e307, -1, 8.9e307, 1], [-1e308, -1e308, 1e308, 1e308]])
    def test_overflowing_view_box_is_refused(self, bbox, tmp_path):
        from moeblox.errors import InvalidInput

        raw = dict(STANDARD_SCENE, bbox=bbox)
        needle = re.escape(f"bbox {[float(v) for v in bbox]!r} is too large")
        with pytest.raises(InvalidInput, match=needle):
            render_scene(parse_scene(raw), RenderConfig(samples=16))
        path, out = tmp_path / "scene.json", tmp_path / "out.svg"
        path.write_text(json.dumps(raw))
        assert main(["render", "--scene", str(path), "--out", str(out), "--samples", "16"]) == 2
        assert not out.exists()

    def test_widest_view_box_renders(self):
        import xml.etree.ElementTree as ET

        raw = dict(STANDARD_SCENE, bbox=[-7e307, -1, 7e307, 1])
        svg = render_scene(parse_scene(raw), RenderConfig(samples=16))
        ET.fromstring(svg.encode("utf-8"))
        assert "nan" not in svg and "inf" not in svg
        # a lone point at 1e10, given as a point and as the point cycle
        # [1e-10, 1, 0, 1e10]: the pad of its fitted view grows with the
        # coordinate, so it does not round away to a view of no extent
        for obj in ({"kind": "point", "data": [1e10, 0]}, {"kind": "cycle", "data": [1e-10, 1, 0, 1e10]}):
            svg = render_scene(parse_scene({"objects": [dict(obj, id="P")]}), RenderConfig(samples=16))
            ET.fromstring(svg.encode("utf-8"))
            assert '<circle cx="400.000000" cy="300.000000" r="3"' in svg
        # two points one ulp apart at 1e12: an extent of 1.2e-4 pads by less
        # than an ulp of the coordinates, so the floor must grow with them too
        pair = [{"id": "P", "kind": "point", "data": [1e12, 1e12]},
                {"id": "Q", "kind": "point", "data": [math.nextafter(1e12, 2e12), 1e12]}]
        ET.fromstring(render_scene(parse_scene({"objects": pair}), RenderConfig(samples=16)).encode("utf-8"))

    def test_one_prepared_triple_per_triple(self, monkeypatch):
        built = []
        prepare = mx.Loxodrome.__init__

        def counted(self, T, tol=mx.DEFAULT_TOLERANCES):
            built.append(T)
            prepare(self, T, tol)

        monkeypatch.setattr(mx.Loxodrome, "__init__", counted)
        objects = [dict(STANDARD_SCENE["objects"][0], id=f"T{i}") for i in range(3)]
        svg = render_scene(parse_scene({"objects": objects}), RenderConfig(samples=16))
        assert svg.count("<polyline ") == 6
        assert len(built) == 3

    def test_render_reuses_kept_forms(self, monkeypatch):
        built = []
        prepare = mx.Loxodrome.__init__

        def counted(self, T, tol=mx.DEFAULT_TOLERANCES):
            built.append(T)
            prepare(self, T, tol)

        monkeypatch.setattr(mx.Loxodrome, "__init__", counted)
        scene, config = parse_scene(STANDARD_SCENE), RenderConfig(samples=16)
        first = render_scene(scene, config)
        assert len(built) == 1
        assert render_scene(scene, config) == first and len(built) == 1  # the form kept on the triple
        scene = parse_scene(STANDARD_SCENE)
        mx.lambda_from_triple(scene.objects[0].value)
        assert len(built) == 2
        assert render_scene(scene, config) == first and len(built) == 2  # the form the query kept

    def test_member_without_real_locus_is_noted(self):
        import xml.etree.ElementTree as ET

        data = {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, 0.5]}
        raw = {
            "objects": [
                {"id": "T", "kind": "triple", "data": data},
                {"id": "C", "kind": "cycle", "data": [1, 0, 0, 0.5]},
                # |z - 1e10|^2 = 1e20 - 1e30: its k vanishes, yet it is no line
                {"id": "X", "kind": "cycle", "data": [1e-30, 1e-20, 0, 1]},
            ]
        }
        notes = []
        svg = render_scene(parse_scene(raw), RenderConfig(samples=16), warnings_out=notes)
        ET.fromstring(svg.encode("utf-8"))
        assert svg.count("<circle ") == 1 and svg.count("<line ") == 1  # c2 and c1
        assert any(note.startswith("triple 'T': c3 not drawn") for note in notes)
        assert any(note.startswith("object 'C': not drawn") for note in notes)
        assert any(note.startswith("object 'X': not drawn") for note in notes)

    @given(st.floats(), st.integers(3, 12))
    @settings(derandomize=True, database=None)
    @example(-1e-9, 6)
    @example(-0.0, 3)
    @example(-0.0004999, 3)
    @example(-0.0005, 3)
    @example(-0.00051, 3)
    @example(2.5e-13, 12)
    @example(1e300, 12)
    @example(math.inf, 6)
    def test_formatting_matches_round_then_format(self, x, precision):
        from moeblox.render import _coords, _fmt

        assert _fmt(x, precision) == round_then_format(x, precision)
        # projects z = x + x i to exactly (x, -x), signed zeros and infinities too
        proj = SimpleNamespace(ox=-0.0, oy=-0.0, scale=1.0)
        z = complex(x, x)
        assert _coords([z, z], proj, precision) == " ".join(
            [f"{round_then_format(x, precision)},{round_then_format(-x, precision)}"] * 2
        )

    def test_degenerate_triples_render(self):
        for c3, polylines in (([0, 0, 0, 1], 2), ([1, 0, 0, -1], 1)):
            raw = {
                "objects": [
                    {
                        "id": "T",
                        "kind": "triple",
                        "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": c3},
                    }
                ]
            }
            svg = render_scene(parse_scene(raw), RenderConfig(samples=64))
            assert svg.count("<polyline ") == polylines


class TestRenderRouteReference:
    """Every polyline that ``render_scene`` writes is the one that the
    passes as first written (``render_route``) write: the same points
    string, per triple, branch and run."""

    NS = "{http://www.w3.org/2000/svg}"

    @staticmethod
    def seeded(seed):
        """Four spirals in the bench's envelope, |lambda_tilde| in
        [0.25, 2.5] of either sign, each moved by a random map."""
        rng = random.Random(seed)
        lts = [rng.choice((1, -1)) * rng.uniform(0.25, 2.5) for _ in range(4)]
        return [mx.apply_map(random_moebius(rng), mx.standard_triple(mx.SlsParameter.finite(lt))) for lt in lts]

    @staticmethod
    def shapes():
        from test_loxodrome import TestSampleCurveReference

        return list(TestSampleCurveReference.SHAPES.values())

    @classmethod
    def cases(cls):
        import test_loxodrome

        spirals = [mx.standard_triple(mx.SlsParameter.finite(lt)) for lt in (1.5, -2.0, 3.0)]
        wide = dict(samples=401, t_min=-1000.0, t_max=1000.0)  # exp overflows beyond t = 709.78
        return {
            "seeded": [(cls.seeded(seed), [-4, -4, 4, 4], {}) for seed in (1, 2, 3)],
            "shapes": [(cls.shapes(), None, dict(samples=257))],
            # the view guard is 50 here, and these curves leave it
            "guard": [(spirals, [-0.01, -0.01, 0.01, 0.01], dict(samples=512))],
            "overflow": [(cls.shapes() + cls.seeded(4), [-4, -4, 4, 4], wide)],
            # one branch meets the pole at sample 100 and breaks there, its mate is one
            # polyline; at sample 200 the pole rounds to an image of 4e13, cut by the guard
            "pole": [([test_loxodrome.pole_triple(1.0, -3.0, 3.0, 257, k) for k in (100, 200)], [-4, -4, 4, 4], dict(samples=257))],
        }

    @pytest.mark.parametrize("case", ["seeded", "shapes", "guard", "overflow", "pole"])
    @pytest.mark.parametrize("precision", [3, 6, 12])
    def test_points_match(self, case, precision):
        import xml.etree.ElementTree as ET

        import render_route
        from moeblox.render import _coords, _Projector, _scene_bbox

        tol = mx.DEFAULT_TOLERANCES
        written = 0
        for triples, bbox, fields in self.cases()[case]:
            objects = [{"id": f"T{i}", "kind": "triple", "data": T.to_json()} for i, T in enumerate(triples)]
            scene = parse_scene({"objects": objects} if bbox is None else {"objects": objects, "bbox": bbox})
            config = RenderConfig(precision=precision, **fields)
            proj = _Projector(_scene_bbox(scene, tol), config.width, config.height)
            root = ET.fromstring(render_scene(scene, config))
            for obj in scene.objects:
                group = next(g for g in root.iter(self.NS + "g") if g.get("id") == obj.id)
                got = [line.get("points") for line in group.iter(self.NS + "polyline")]
                runs = render_route.runs(obj.value, proj, config, tol)
                assert got == [render_route._coords(run, proj, precision) for run in runs], (case, obj.id)
                # precision 0, which RenderConfig refuses, on the same runs
                assert [_coords(run, proj, 0) for run in runs] == [render_route._coords(run, proj, 0) for run in runs]
                written += len(got)
                if case == "guard":  # spirals only: two branches, cut where they leave the guard
                    assert sum(map(len, runs)) < 2 * config.samples, obj.id
                if case == "pole":  # the branch through the pole in two runs, its mate in one
                    assert len(got) == 3 and sum(map(len, runs)) == 2 * config.samples - 1, obj.id
        assert written > 0


# 10**400 is a JSON integer no float holds
SMALL = st.integers(-3, 3) | st.sampled_from([0.5, -0.5, E2, -E2, 10**400])
# what a scene may hold where it needs a number: numeric strings and
# booleans are not numbers
SCENE_NUMBER = SMALL | st.sampled_from(["1", "-0.5", True, False])
QUADRUPLE = st.lists(SCENE_NUMBER, min_size=4, max_size=4)
STYLE_VALUE = (
    st.text(max_size=6) | st.integers() | st.floats() | st.none() | st.lists(st.text(max_size=3), max_size=2)
    | st.sampled_from(["#f00", "#C0392b", "red", "4 2", "1,0.5", ".5, 2", 1.5, 2, 1000])
)


@st.composite
def json_scenes(draw):
    """Scene documents with arbitrary ids and style values, small triples
    and a few plain cycles and points."""
    ids = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4))
    objects = []
    for object_id in ids:
        kind = draw(st.sampled_from(["triple", "triple", "cycle", "point", "circle"]))
        if kind == "triple":
            data = {"c1": draw(QUADRUPLE), "c2": draw(QUADRUPLE), "c3": draw(QUADRUPLE)}
            data["sign"] = draw(st.sampled_from([1, -1, 0, 2, True, 1.0, "1"]))
        elif kind == "cycle":
            data = draw(QUADRUPLE)
        elif kind == "circle":
            data = {"center": [draw(SCENE_NUMBER), draw(SCENE_NUMBER)], "radius": draw(SCENE_NUMBER)}
        else:
            data = [draw(SCENE_NUMBER), draw(SCENE_NUMBER)]
        objects.append({"id": object_id, "kind": kind, "data": data})
    hints = st.dictionaries(st.sampled_from(["stroke", "width", "dash", "other"]), STYLE_VALUE, max_size=3)
    style = draw(st.dictionaries(st.sampled_from(ids), hints | STYLE_VALUE, max_size=len(ids)))
    scene = {"objects": objects, "style": style}
    if draw(st.booleans()):
        scene["bbox"] = draw(QUADRUPLE)
    return scene


class TestRenderFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(json_scenes())
    def test_scene_is_refused_or_renders_to_xml(self, raw):
        import xml.etree.ElementTree as ET

        try:
            scene = parse_scene(raw)
        except SceneError:
            return
        svg = render_scene(scene, RenderConfig(samples=16))
        ET.fromstring(svg.encode("utf-8"))


JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | st.sampled_from(["1", "-2", "0.5"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
KIND = st.sampled_from(["triple", "cycle", "point", "circle", "line", "moebius", "other"])
LOOSE_OBJECT = st.fixed_dictionaries(
    {"id": st.text(max_size=4) | JSON_VALUE, "kind": KIND | JSON_VALUE, "data": JSON_VALUE}
)
_MOVED = mx.apply_map(mx.MoebiusMap(1, 2j, 0.5, 1), mx.standard_triple(mx.SlsParameter.finite(1.0)))
RICH_SCENE = {
    "objects": STANDARD_SCENE["objects"] + [
        {"id": "M", "kind": "triple", "data": _MOVED.to_json()},
        {"id": "zero", "kind": "triple", "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -1]}},
        {"id": "inf", "kind": "triple", "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [0, 0, 0, 1]}},
        {"id": "u", "kind": "circle", "data": {"center": [0, 0], "radius": 1}},
        {"id": "ax", "kind": "line", "data": {"p": [0, 0], "q": [1, 0]}},
        {"id": "k", "kind": "cycle", "data": [0, 1, 1, 2]},
        {"id": "p", "kind": "point", "data": "1,0"},
        {"id": "q", "kind": "point", "data": "0,1.105171"},
    ]
}
# a valid scene with every kind, style field and bbox; each of its numbers
# is swapped for a non-number in turn
FULL_SCENE = dict(
    RICH_SCENE,
    objects=RICH_SCENE["objects"] + [
        {"id": "G", "kind": "moebius", "data": [[1, 0], [0, 2], [0.5, 0], [1, 0]]},
        {"id": "r", "kind": "point", "data": [0.5, -0.5]},
    ],
    style={"T": {"stroke": "#c0392b", "width": 1.5, "dash": "4 2"}, "u": {"stroke": "red", "width": 2}},
    bbox=[-3, -3, 3, 3],
)


def number_paths(value, path=()):
    """The path of every number in a JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from number_paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from number_paths(item, path + (index,))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield path


def replaced(document, path, value):
    document = json.loads(json.dumps(document))
    target = document
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return document


NOT_A_NUMBER = st.sampled_from(["1", "-0.5", "1e3", True, False, math.nan, 10**400])
OUTSIDE_STYLE_GRAMMAR = {
    # fullwidth "red" and an Arabic-Indic 4 are letters and digits, not ASCII ones
    "stroke": ["", "#12", "#1234", "red1", "url(#a)", 'red" x', "\x02", "\uff52\uff45\uff44", 1, None, ["red"]],
    "width": [0, -1, 1000.5, 10**400, "2", True, math.inf, math.nan, None],
    "dash": ["", "4 -2", "4;2", "1e3", "4,,2", "\u0664 2", "4\ud800", [1, 2], 4, None],
    "colour": ["red"],  # no such field
}
SCENE_DOCUMENT = (
    json_scenes()
    | st.fixed_dictionaries({"objects": st.lists(LOOSE_OBJECT, max_size=3)})
    | JSON_VALUE
)
NUMBER = st.sampled_from(["-3", "3", "-1", "1", "0", "0.5", "1e308", "-1e308", "1e400", "inf", "-inf", "nan", "x", "1_0", "\u0661\u0661"]) | st.floats().map(repr)
POINT = st.sampled_from(["1,0", "0,0", "inf", "0,1.105171", "2.718281828459045,0", "1,", "p"]) | st.tuples(SMALL, SMALL).map(lambda xy: f"{xy[0]},{xy[1]}")
NEGATIVE_ANSWERS = {"member", "tangent", "equiv"}


@st.composite
def cli_arguments(draw, ids, well_formed):
    """One command with drawn values for its options.  ``ids`` maps a
    scene object kind to the ids of that kind.  Well-formed arguments
    name every option and refer to objects of the right kind; the others
    may miss options, refer to anything and hold malformed values."""

    def ref(*kinds):
        known = sorted(i for kind in kinds for i in ids.get(kind, ()))
        if well_formed and known:
            return st.sampled_from(known)
        loose = st.text(max_size=3) | st.sampled_from(sorted(set().union(*ids.values())) or [""])
        return st.sampled_from(known) | loose if known else loose

    def pick(good, bad):
        return st.sampled_from(good) if well_formed else st.sampled_from(good + bad)

    triple, cycle, point = ref("triple"), ref("circle", "line", "cycle"), POINT | ref("point")
    command = draw(st.sampled_from(["lambda", "member", "angle", "tangent", "equiv", "normalize", "render", "sample"]))
    options = {
        "lambda": {"--triple": triple},
        "member": {"--triple": triple, "--point": point},
        "angle": {"--triple-a": triple, "--triple-b": triple, "--point": point},
        "tangent": {"--triple": triple, "--cycle": cycle, "--point": point},
        "equiv": {"--triple-a": triple, "--triple-b": triple},
        "normalize": {"--triple": triple},
        "render": {
            "--samples": pick(["16", "17"], ["15", "0", "x", "1_024", "\u0661\u0666"]),
            "--t-min": NUMBER, "--t-max": NUMBER,
            "--width": pick(["1", "800"], ["0", "-1", str(10**400), "\u0668\u0660\u0660", "8_00"]),
            "--height": pick(["1", "600"], ["0", str(10**400), "6_00"]),
            "--precision": pick(["3", "6", "12"], ["2", "13", "\u0666"]),
        },
        "sample": {
            "--triple": triple, "--t-min": NUMBER, "--t-max": NUMBER,
            "--count": pick(["2", "3", "5"], ["1", "0", "x", "6_5"]),
            "--branch": pick(["+", "-", "both"], ["?"]),
        },
    }[command]
    args = [command]
    for name, values in options.items():
        if well_formed or draw(st.booleans()):
            args.append(f"{name}={draw(values)}")
    if draw(st.booleans()):
        args.append("--json")
    if draw(st.booleans()):
        args.append(f"--tol={draw(pick(['1e-9', '1e-9,1e-7,1e-6'], ['0', '1', 'x', '1e-9,1']))}")
    return args


class TestExactTypes:
    def test_full_scene_is_valid(self):
        import xml.etree.ElementTree as ET

        svg = render_scene(parse_scene(FULL_SCENE), RenderConfig(samples=16))
        ET.fromstring(svg.encode("utf-8"))
        assert 'stroke-width="2"' in svg and 'stroke-dasharray="4 2"' in svg

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_one_value_of_the_wrong_type_is_refused(self, data):
        if data.draw(st.booleans(), label="style"):
            object_id = data.draw(st.sampled_from(sorted(FULL_SCENE["style"])), label="id")
            name = data.draw(st.sampled_from(sorted(OUTSIDE_STYLE_GRAMMAR)), label="field")
            path = ("style", object_id, name)
            bad = data.draw(st.sampled_from(OUTSIDE_STYLE_GRAMMAR[name]), label="value")
        else:
            path = data.draw(st.sampled_from(list(number_paths(FULL_SCENE))), label="path")
            bad = data.draw(NOT_A_NUMBER, label="value")
        with pytest.raises(SceneError):
            parse_scene(replaced(FULL_SCENE, path, bad))


class TestCliExitCodeFuzz:
    """The exit-code contract over any scene file and any arguments: 0 or
    2 always possible, 1 only as the negative answer of a yes/no query."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.data())
    def test_main_returns_contract_code(self, data):
        import contextlib
        import io
        import tempfile

        # half of the runs use a valid scene and well-formed arguments,
        # so that the answers themselves are reached
        valid = data.draw(st.booleans(), label="valid")
        document = RICH_SCENE if valid else data.draw(SCENE_DOCUMENT, label="scene")
        objects = document.get("objects") if isinstance(document, dict) else None
        ids: dict = {}
        for entry in objects if isinstance(objects, list) else []:
            if isinstance(entry, dict) and isinstance(entry.get("id"), str):
                ids.setdefault(str(entry.get("kind")), set()).add(entry["id"])
        argv = data.draw(cli_arguments(ids, valid), label="argv")
        with tempfile.TemporaryDirectory() as tmp:
            scene = Path(tmp) / "scene.json"
            scene.write_text(json.dumps(document))
            argv[1:1] = ["--scene", str(scene)]
            if argv[0] == "render":
                argv.append(f"--out={Path(tmp) / 'out.svg'}")
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        assert code in (0, 1, 2)
        if code == 1:
            assert argv[0] in NEGATIVE_ANSWERS


def run_without_numpy(code, args):
    """Run ``code`` in a fresh interpreter in which importing numpy fails."""
    env = dict(os.environ, PYTHONPATH=SRC)
    prelude = "import sys\nsys.modules['numpy'] = None\n"
    return subprocess.run(
        [sys.executable, "-c", prelude + code, *args], capture_output=True, text=True, env=env
    )


class TestNoNumpyAtRuntime:
    """The package runs on the standard library alone."""

    def test_import_footprint(self):
        # numpy is a test dependency only, and xml.sax pulls in
        # urllib.request, which costs about 3 MB of peak RSS per process
        env = dict(os.environ, PYTHONPATH=SRC)
        probe = (
            "import sys, moeblox, moeblox.cli; "
            "print([m for m in ('numpy', 'urllib.request', 'xml.sax') if m in sys.modules])"
        )
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_cli_import_leaves_dataclasses_and_inspect_unloaded(self):
        # the value types are namedtuples; dataclasses would import inspect.
        # -S keeps site hooks from importing either one
        env = dict(os.environ, PYTHONPATH=SRC)
        probe = "import sys, moeblox.cli; print([m for m in ('dataclasses', 'inspect') if m in sys.modules])"
        result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    def test_cli_import_leaves_numpy_unloaded(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        probe = "import sys, moeblox.cli; print('numpy' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    @pytest.mark.parametrize(
        "args,code,stdout",
        [
            (
                ["member", "--triple", "T", "--point", "1,0"],
                0,
                '{"flags": [], "lhs": 0.0, "member": true, "rhs": 0.0}',
            ),
            (
                ["member", "--triple", "T", "--point", "0,1.105171"],
                1,
                '{"flags": [], "lhs": 0.10000007412821667, "member": false, "rhs": 0.25}',
            ),
            (["equiv", "--triple-a", "T", "--triple-b", "shifted", "--json"], 0, '{"equivalent": true}'),
            (["equiv", "--triple-a", "T", "--triple-b", "rotated", "--json"], 1, '{"equivalent": false}'),
            (["equiv", "--triple-a", "T", "--triple-b", "moved", "--json"], 1, '{"equivalent": false}'),
        ],
    )
    def test_answers_without_numpy(self, tmp_path, args, code, stdout):
        # outputs as the numpy-based SVD and lstsq gave them
        T = parse_scene(STANDARD_SCENE).triple("T")
        lam = 1 + 2j * math.pi
        shifted = mx.apply_map(mx.MoebiusMap(cmath.exp(lam * 0.3), 0, 0, 1), T)
        rotated = {"c1": [0, 1, 0, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -E2], "sign": 1}
        objects = STANDARD_SCENE["objects"] + [
            {"id": "shifted", "kind": "triple", "data": shifted.to_json()},
            {"id": "moved", "kind": "triple", "data": _MOVED.to_json()},
            {"id": "rotated", "kind": "triple", "data": rotated},
        ]
        path = tmp_path / "scene.json"
        path.write_text(json.dumps({"objects": objects}))
        cli = "from moeblox.cli import main\nsys.exit(main(sys.argv[1:]))"
        result = run_without_numpy(cli, [args[0], "--scene", str(path), *args[1:]])
        assert (result.returncode, result.stdout.strip()) == (code, stdout), result.stderr


class TestCliContract:
    def test_lambda_output(self, scene_path):
        result = run_cli(["lambda", "--scene", scene_path, "--triple", "T"])
        assert result.returncode == 0
        assert result.stdout.strip() == "lambda_tilde=1.000000 a=2.718282"

    def test_lambda_degenerate_outputs(self, tmp_path):
        path = tmp_path / "deg.json"
        path.write_text(
            json.dumps(
                {
                    "objects": [
                        {"id": "zero", "kind": "triple", "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -1]}},
                        {"id": "inf", "kind": "triple", "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [0, 0, 0, 1]}},
                    ]
                }
            )
        )
        zero = run_cli(["lambda", "--scene", str(path), "--triple", "zero"])
        assert zero.stdout.strip() == "lambda_tilde=0 a=1"
        inf = run_cli(["lambda", "--scene", str(path), "--triple", "inf"])
        assert "a=inf" in inf.stdout

    def test_member_exit_codes(self, scene_path):
        member = run_cli(["member", "--scene", scene_path, "--triple", "T", "--point", "1,0"])
        assert member.returncode == 0
        report = json.loads(member.stdout)
        assert report["member"] is True
        assert set(report) == {"member", "lhs", "rhs", "flags"}

        off = run_cli(
            ["member", "--scene", scene_path, "--triple", "T", "--point", "0,1.105171"]
        )
        assert off.returncode == 1
        assert json.loads(off.stdout)["member"] is False

        bad = run_cli(["member", "--scene", scene_path, "--triple", "T", "--point", "1,травень"])
        assert bad.returncode == 2

    def test_member_oracle_flag(self, scene_path):
        # -exp(0.75 * (1 + 2 pi i)): on-curve, half a turn off in lhs - rhs;
        # --oracle, once a second decision route, is a usage error
        w = -cmath.exp(0.75 * (1 + 2j * math.pi))
        point = f"--point={w.real},{w.imag}"  # leading '-' needs the = form
        folded = run_cli(["member", "--scene", scene_path, "--triple", "T", point])
        oracle = run_cli(
            ["member", "--scene", scene_path, "--triple", "T", point, "--oracle"]
        )
        assert folded.returncode == 0
        report = json.loads(folded.stdout)
        assert report["member"] is True
        assert report["lhs"] == pytest.approx(0.75, abs=1e-9)
        assert report["rhs"] == pytest.approx(0.25, abs=1e-9)
        assert oracle.returncode == 2
        assert oracle.stdout == ""

    @pytest.mark.parametrize("command", ["render", "member"])
    def test_json_flag_refused_where_it_changes_nothing(self, scene_path, tmp_path, command):
        # member always prints JSON and render writes SVG
        out = tmp_path / "out.svg"
        args = ["--out", str(out)] if command == "render" else ["--triple", "T", "--point", "1,0"]
        result = run_cli([command, "--scene", scene_path, *args, "--json"])
        assert result.returncode == 2
        assert "error: unrecognized arguments: --json" in result.stderr
        assert result.stdout == "" and not out.exists()

    def test_member_refuses_the_mirror_spiral(self):
        # conj(exp(0.3 (1 + 2 pi i))) lies on the mirror of the shipped spiral
        scene = str(Path(__file__).resolve().parent.parent / "scenes" / "standard_spiral.json")
        point = "--point=-0.4171293115476869,-1.2837920150235638"
        result = run_cli(["member", "--scene", scene, "--triple", "spiral", point])
        assert result.returncode == 1
        assert json.loads(result.stdout)["member"] is False

    def test_angle_command(self, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(
            json.dumps(
                {
                    "objects": [
                        {"id": "circle", "kind": "triple", "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -1]}},
                        {"id": "spiral", "kind": "triple", "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -E2]}},
                    ]
                }
            )
        )
        result = run_cli(
            ["angle", "--scene", str(path), "--triple-a", "circle", "--triple-b", "spiral", "--point", "1,0"]
        )
        assert result.returncode == 0
        assert result.stdout.startswith("angle_rad=0.157831 angle_deg=9.043061")
        miss = run_cli(
            ["angle", "--scene", str(path), "--triple-a", "circle", "--triple-b", "spiral", "--point", "3,3"]
        )
        assert miss.returncode == 2

    def test_tangent_command(self, tmp_path):
        path = tmp_path / "tan.json"
        path.write_text(
            json.dumps(
                {
                    "objects": [
                        {"id": "T", "kind": "triple", "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -E2]}},
                        {"id": "good", "kind": "cycle", "data": [0, -math.pi, 0.5, -2 * math.pi]},
                        {"id": "bad", "kind": "cycle", "data": [1, 0, 0, -1]},
                    ]
                }
            )
        )
        assert run_cli(["tangent", "--scene", str(path), "--triple", "T", "--cycle", "good", "--point", "1,0"]).returncode == 0
        assert run_cli(["tangent", "--scene", str(path), "--triple", "T", "--cycle", "bad", "--point", "1,0"]).returncode == 1

    def test_equiv_command(self, tmp_path):
        path = tmp_path / "eq.json"
        path.write_text(
            json.dumps(
                {
                    "objects": [
                        {"id": "a", "kind": "triple", "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -E2]}},
                        {"id": "b", "kind": "triple", "data": {"c1": [0, 1, 0, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -E2]}},
                        {"id": "c", "kind": "triple", "data": {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -math.e**4]}},
                    ]
                }
            )
        )
        # b only rotates the elliptic cycle by a quarter turn: different curve
        assert run_cli(["equiv", "--scene", str(path), "--triple-a", "a", "--triple-b", "b"]).returncode == 1
        assert run_cli(["equiv", "--scene", str(path), "--triple-a", "a", "--triple-b", "c"]).returncode == 1
        assert run_cli(["equiv", "--scene", str(path), "--triple-a", "a", "--triple-b", "a"]).returncode == 0

    def test_normalize_roundtrip(self, tmp_path):
        shifted = mx.apply_map(mx.MoebiusMap(1, 2, 0, 1), mx.standard_triple(mx.SlsParameter.finite(1.0)))
        path = tmp_path / "norm.json"
        path.write_text(json.dumps({"objects": [{"id": "T", "kind": "triple", "data": shifted.to_json()}]}))
        result = run_cli(["normalize", "--scene", str(path), "--triple", "T", "--json"])
        assert result.returncode == 0
        payload = json.loads(result.stdout)
        # the output reads back as scene objects
        scene = parse_scene({"objects": [
            {"id": "M", "kind": "moebius", "data": payload["map"]},
            {"id": "S", "kind": "triple", "data": payload["standard_triple"]},
        ]})
        M, std = scene.get("M").value, scene.triple("S")
        back = mx.apply_map(M, shifted)
        for a, b in ((back.c1, std.c1), (back.c2, std.c2), (back.c3, std.c3)):
            ca, cb = mx.canonicalize(a), mx.canonicalize(b)
            for u, v in zip(ca.to_json(), cb.to_json()):
                assert u == pytest.approx(v, abs=1e-6 * max(1.0, ca.scale()))
        assert payload["lambda_tilde"] == pytest.approx(1.0, abs=1e-9)

    def test_render_byte_determinism(self, scene_path, tmp_path):
        out1, out2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        r1 = run_cli(["render", "--scene", scene_path, "--out", out1, "--samples", "128"])
        r2 = run_cli(["render", "--scene", scene_path, "--out", out2, "--samples", "128"])
        assert r1.returncode == 0 and r2.returncode == 0
        assert Path(out1).read_bytes() == Path(out2).read_bytes()

    def test_render_invalid_triple_warns_but_succeeds(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "objects": [
                        {"id": "bad", "kind": "triple", "data": {"c1": [1, 0, 0, -1], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -E2]}}
                    ]
                }
            )
        )
        out = str(tmp_path / "bad.svg")
        result = run_cli(["render", "--scene", str(path), "--out", out, "--samples", "64"])
        assert result.returncode == 0
        assert "warning" in result.stderr
        assert Path(out).exists()

    def test_member_and_render_on_invalid_triples(self, rng, tmp_path, capsys):
        # c1 off the limit points, equal to c2, tangent to c2 and disjoint
        # from it, each moved by a seeded map: member answers or refuses
        # (0, 1 or 2) and render draws the cycles with a warning
        objects = []
        for i in range(12):
            G = mx.MoebiusMap(*(complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(4)))
            lt = rng.uniform(0.3, 2.0)
            c1 = [
                mx.from_line(complex(0.0, rng.uniform(-0.9, 0.9)), complex(1.0, rng.uniform(-0.9, 0.9))),
                mx.Cycle(1, 0, 0, -1),
                mx.from_line(1, 1 + 1j),
                mx.from_circle(complex(rng.uniform(3.0, 4.0), 0.0), rng.uniform(0.5, 1.5)),
            ][i % 4]
            cycles = [mx.apply_to_cycle(G, C) for C in (c1, mx.Cycle(1, 0, 0, -1), mx.Cycle(1, 0, 0, -math.exp(2 * lt)))]
            data = {name: C.to_json() for name, C in zip(("c1", "c2", "c3"), cycles)}
            objects.append({"id": f"T{i}", "kind": "triple", "data": data})
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps({"objects": objects, "bbox": [-3, -3, 3, 3]}))
        codes = set()
        for i in range(12):
            for point in ("1,0", "0.5,-0.25", "inf"):
                codes.add(main(["member", "--scene", str(path), "--triple", f"T{i}", "--point", point]))
        assert codes <= {0, 1, 2} and 2 in codes
        capsys.readouterr()
        out = tmp_path / "invalid.svg"
        result = run_cli(["render", "--scene", str(path), "--out", str(out), "--samples", "64"])
        assert result.returncode == 0, result.stderr
        assert "warning" in result.stderr and "Traceback" not in result.stderr
        assert out.exists()

    def test_render_member_without_real_locus(self, tmp_path):
        path = tmp_path / "no_locus.json"
        data = {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, 0.5]}
        path.write_text(json.dumps({"objects": [{"id": "T", "kind": "triple", "data": data}]}))
        out = tmp_path / "no_locus.svg"
        result = run_cli(["render", "--scene", str(path), "--out", str(out), "--samples", "16"])
        assert result.returncode == 0
        assert "c3 not drawn" in result.stderr
        assert out.exists()

    @pytest.mark.parametrize(
        "raw",
        [
            {"objects": [dict(STANDARD_SCENE["objects"][0], id="a\x01b")]},
            dict(STANDARD_SCENE, style={"T": {"stroke": "\x02"}}),
        ],
    )
    def test_render_forbidden_xml_character_is_data_error(self, raw, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out.svg"
        result = run_cli(["render", "--scene", str(path), "--out", str(out), "--samples", "16"])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_sample_command(self, scene_path):
        result = run_cli(
            ["sample", "--scene", scene_path, "--triple", "T", "--t-min", "0", "--t-max", "1", "--count", "2", "--branch=+"]
        )
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "# branch +"
        assert lines[1] == "1.000000,0.000000"
        assert lines[2].startswith("2.71828")

    @pytest.mark.parametrize(
        "bounds,needle",
        [
            (["--t-max=inf"], "cannot parse number: 'inf'"),
            (["--t-min=-1e308", "--t-max=1e308"], "grid step is not finite"),
            (["--t-min=-1e308", "--t-max=0"], "rate [*] t is not finite"),
        ],
    )
    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_sample_refuses_non_finite_grid(self, scene_path, bounds, needle, json_flag):
        result = run_cli(["sample", "--scene", scene_path, "--triple", "T", *bounds, *json_flag])
        assert result.returncode == 2
        assert result.stdout == ""  # refused before any branch header
        assert re.search(needle, result.stderr) and "Traceback" not in result.stderr

    def test_render_refuses_non_finite_grid(self, scene_path, tmp_path):
        out = tmp_path / "out.svg"
        result = run_cli(["render", "--scene", scene_path, "--out", str(out), "--t-max=inf"])
        assert result.returncode == 2
        assert "cannot parse number: 'inf'" in result.stderr
        assert not out.exists()

    def test_render_skips_curve_whose_angle_overflows(self, scene_path, tmp_path):
        out = tmp_path / "out.svg"
        args = ["render", "--scene", scene_path, "--out", str(out), "--samples", "16", "--t-max=1e308"]
        result = run_cli(args)
        assert result.returncode == 0
        assert "curve not drawn" in result.stderr and "rate * t is not finite" in result.stderr
        assert out.exists()

    @pytest.mark.parametrize(
        "command,option",
        [("sample", "--t-min=1_0"), ("sample", "--t-max=\u0661\u0661"), ("render", "--samples=1_024"), ("render", "--width=\u0668\u0660\u0660")],
    )
    def test_numeric_option_outside_the_grammar_is_usage_error(self, scene_path, tmp_path, command, option, capsys):
        # int() and float() read these as 10, 11, 1024 and 800
        out = tmp_path / "out.svg"
        where = ["--triple", "T"] if command == "sample" else ["--out", str(out)]
        assert main([command, "--scene", scene_path, *where, option]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert repr(option.split("=", 1)[1]) in captured.err

    def test_missing_scene_is_data_error(self):
        result = run_cli(["lambda", "--scene", "/nonexistent.json", "--triple", "T"])
        assert result.returncode == 2

    @pytest.mark.parametrize("point", ["1_0,0", "١,0", "1e400,0"])
    def test_point_literal_outside_the_grammar_is_data_error(self, scene_path, point, capsys):
        assert main(["member", "--scene", scene_path, "--triple", "T", f"--point={point}"]) == 2
        assert repr(point) in capsys.readouterr().err

    def test_huge_value_is_quoted_in_part(self, tmp_path, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(_circle(radius=list(range(100_000)))))
        assert main(["lambda", "--scene", str(path), "--triple", "T"]) == 2
        err = capsys.readouterr().err
        assert len(err) < 300 and "objects[0].radius" in err

    def test_non_numeric_scene_is_data_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"objects": [{"id": "c", "kind": "circle", "data": {"center": [0, 0], "radius": "abc"}}]})
        )
        result = run_cli(["lambda", "--scene", str(path), "--triple", "T"])
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "content,needle",
        [(b"\xff", "codec can't decode byte 0xff"), (b"[" * 200_000, "nests too deeply")],
        ids=["not_utf8", "deeply_nested"],
    )
    def test_undecodable_scene_is_data_error(self, tmp_path, content, needle):
        path = tmp_path / "scene.json"
        path.write_bytes(content)
        result = run_cli(["lambda", "--scene", str(path), "--triple", "T"])
        assert result.returncode == 2
        assert needle in result.stderr and "Traceback" not in result.stderr

    def test_usage_error(self):
        result = run_cli(["lambda"])
        assert result.returncode == 2

    def test_tol_flag(self, scene_path):
        def member(point, *tol):
            return run_cli(["member", "--scene", scene_path, "--triple", "T", "--point", point, *tol])

        # 1.00001 is 1e-5 turns off the curve: beyond the default eps_mod
        # of 1e-6, within an absurdly loose 9e-3
        loose = ["--tol", "1e-9,1e-7,9e-3"]
        assert member("1.00001,0").returncode == 1
        assert member("1.00001,0", *loose).returncode == 0
        assert member("0,1.105171", *loose).returncode == 1  # 0.15 turns is beyond 9e-3
        # 1.0000001 is 1e-7 turns off: within the default, beyond a tight eps_mod
        assert member("1.0000001,0").returncode == 0
        assert member("1.0000001,0", "--tol", "1e-12,1e-9,1e-9").returncode == 1

    def test_tol_environment_variable_is_not_read(self, scene_path):
        args = ["member", "--scene", scene_path, "--triple", "T", "--point", "1.00001,0"]
        assert run_cli(args, env_extra={"MOEBLOX_TOL": "1e-9,1e-7,9e-3"}).returncode == 1

    def test_over_large_width_is_data_error(self, scene_path, tmp_path):
        out = tmp_path / "out.svg"
        result = run_cli(["render", "--scene", scene_path, "--out", str(out), "--width", str(10**400)])
        assert result.returncode == 2
        assert "width is too large for a float" in result.stderr
        assert not out.exists()

    # c2 and c3 pair to a normalised product that rounds to 1, yet are
    # not equal: their pencil is neither disjoint nor one cycle, so the
    # triple fails its check and no query answers, lambda included
    NEAR_CIRCLE = {"c1": [0, 0, 1, 0], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -(1 + 1e-9)], "sign": 1}

    @pytest.mark.parametrize(
        "args",
        [["equiv", "--triple-a", "T", "--triple-b", "T"], ["normalize", "--triple", "T"]],
        ids=["equiv", "normalize"],
    )
    def test_zero_parameter_pair_is_degenerate(self, tmp_path, args, capsys):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(_triple(**self.NEAR_CIRCLE)))
        for argv in (args, ["lambda", "--triple", "T"]):
            assert main([argv[0], "--scene", str(path), *argv[1:]]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: second and third cycle neither disjoint nor equal\n"

    # c1 is the line x = -0.3, which misses the limit points 0 and infinity
    # of the pencil of c2 and c3: the triple fails its check
    OFF_LIMIT_POINTS = {"c1": [0, 1, 0, 0.6], "c2": [1, 0, 0, -1], "c3": [1, 0, 0, -7.38905609893065], "sign": 1}

    def _off_limit_points_scene(self, tmp_path):
        document = _triple(**self.OFF_LIMIT_POINTS)
        document["objects"].append({"id": "C", "kind": "cycle", "data": [1, 0, 0, -1]})
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(document))
        return str(path)

    @pytest.mark.parametrize(
        "args",
        [
            ["lambda", "--triple", "T"],
            ["member", "--triple", "T", "--point", "1,0"],
            ["angle", "--triple-a", "T", "--triple-b", "T", "--point", "1,0"],
            ["tangent", "--triple", "T", "--cycle", "C", "--point", "1,0"],
            ["equiv", "--triple-a", "T", "--triple-b", "T"],
            ["normalize", "--triple", "T"],
            ["sample", "--triple", "T"],
        ],
        ids=lambda args: args[0],
    )
    def test_invalid_triple_is_data_error(self, tmp_path, args, capsys):
        assert main([args[0], "--scene", self._off_limit_points_scene(tmp_path), *args[1:]]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: first and second cycle are not orthogonal\n")

    def test_invalid_triple_renders_its_cycles_only(self, tmp_path, capsys):
        import xml.etree.ElementTree as ET

        out = tmp_path / "out.svg"
        assert main(["render", "--scene", self._off_limit_points_scene(tmp_path), "--out", str(out)]) == 0
        group = ET.parse(out).getroot().find(".//{http://www.w3.org/2000/svg}g[@id='T']")
        assert [child.tag.rpartition("}")[2] for child in group] == ["line", "circle", "circle"]
        assert "<polyline" not in out.read_text()
        assert capsys.readouterr().err.splitlines() == [
            "warning: triple 'T': first and second cycle are not orthogonal (residual 6.000e-01)",
            "warning: triple 'T': first and third cycle are not orthogonal (residual 6.000e-01)",
            "warning: triple 'T': first cycle misses a limit point of the pencil (residual 6.000e-01)",
            "warning: triple 'T': curve not drawn: first and second cycle are not orthogonal",
        ]

    def test_invalid_triple_is_prepared_once_per_render(self, tmp_path, monkeypatch):
        # one form checks the triple, gives the notes and skips the curve
        scene = mx.load_scene(self._off_limit_points_scene(tmp_path))
        built = []
        prepare = mx.Loxodrome.__init__
        monkeypatch.setattr(mx.Loxodrome, "__init__", lambda form, *a: built.append(a) or prepare(form, *a))
        outputs = []
        for renders in (1, 2, 3):
            notes = []
            outputs.append((render_scene(scene, RenderConfig(samples=16), warnings_out=notes), notes))
            assert len(built) == renders
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][1][-1] == "triple 'T': curve not drawn: first and second cycle are not orthogonal"

    def test_point_literal_beyond_the_float_range_is_refused(self, capsys):
        # each coordinate is a float, but the modulus is not
        scene = str(Path(__file__).resolve().parent.parent / "scenes" / "standard_spiral.json")
        assert main(["member", "--scene", scene, "--triple", "spiral", "--point", "1.5e308,1.5e308"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: point literal '1.5e308,1.5e308': ")
        assert captured.err.endswith("has a modulus beyond the float range\n")

    def test_tiny_scaled_spiral_answers_as_shipped(self, tmp_path, capsys):
        # the shipped spiral with every component times 1e-200: the raw c3's
        # discriminant underflows to 0, which read it as a point; its binary
        # scaled copy reads as the shipped one (5 is no curve point)
        document = json.loads((Path(__file__).resolve().parent.parent / "scenes" / "standard_spiral.json").read_text())
        data = document["objects"][0]["data"]
        for name in ("c1", "c2", "c3"):
            data[name] = [1e-200 * x for x in data[name]]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(document))
        assert main(["lambda", "--scene", str(path), "--triple", "spiral"]) == 0
        assert capsys.readouterr().out == "lambda_tilde=1.000000 a=2.718282\n"
        assert main(["member", "--scene", str(path), "--triple", "spiral", "--point", "5,0"]) == 1
        assert main(["member", "--scene", str(path), "--triple", "spiral", "--point", "1,0"]) == 0

    def test_render_at_2_to_the_minus_700_is_the_shipped_render(self, tmp_path, capsys):
        # the shipped scene's triple scaled exactly by 2^-700: its raw
        # products underflow, which read c1 as a point at infinity and c2
        # and c3 as dots; read binary-scaled, every cycle and the curve
        # come out byte for byte as shipped, with no note
        shipped = Path(__file__).resolve().parent.parent / "scenes" / "standard_spiral.json"
        document = json.loads(shipped.read_text())
        data = document["objects"][0]["data"]
        for name in ("c1", "c2", "c3"):
            data[name] = [math.ldexp(x, -700) for x in data[name]]
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(document))
        outputs = []
        for scene in (shipped, path):
            out = tmp_path / f"{len(outputs)}.svg"
            assert main(["render", "--scene", str(scene), "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_sample_writes_no_negative_zero(self, capsys):
        # the points of the spiral on the axes: -0.000000 at the parent
        scene = str(Path(__file__).resolve().parent.parent / "scenes" / "standard_spiral.json")
        assert main(["sample", "--scene", scene, "--triple", "spiral", "--count", "9"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "-0.223130,0.000000" in lines and "0.000000,0.472367" in lines
        assert not any(re.search(r"(^|,)-0\.0+(,|$)", line) for line in lines)

    @pytest.mark.parametrize("scale", [1e100, 1e200])
    def test_far_scaled_products_answer_as_at_unit_scale(self, tmp_path, scale, capsys):
        # the checks, the parameter, the limit points and the map are all
        # formed on c2 and c3 scaled exactly by a power of two, whose
        # products are finite: the triple is checked and the queries answer
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(_triple(c2=[scale, 0, 0, -scale], c3=[scale, 0, 0, -scale * E2])))
        member = main(["member", "--scene", str(path), "--triple", "T", "--point", "1,0"])
        captured = capsys.readouterr()
        assert member == 0 and json.loads(captured.out)["member"] is True
        assert main(["lambda", "--scene", str(path), "--triple", "T"]) == 0
        assert capsys.readouterr().out == "lambda_tilde=1.000000 a=2.718282\n"
        out = tmp_path / "out.svg"
        assert main(["render", "--scene", str(path), "--out", str(out), "--samples", "16"]) == 0
        err = capsys.readouterr().err
        assert "triple 'T': not checked" not in err and "curve not drawn" not in err
        assert out.read_text().count("<polyline ") == 2
        # render draws the cycles read binary-scaled, so at any scale: a
        # line and two circles, and no note
        assert "not drawn" not in err
        assert out.read_text().count("<circle ") == 2 and out.read_text().count("<line ") == 1

    def test_overflowing_cycle_is_not_read_as_a_point(self, tmp_path, capsys):
        # the discriminant of the raw c3 overflows above about 1.3e154:
        # lambda and member answer as at unit scale (5 is no curve point),
        # and render draws c2 and c3 as the circles they are, not as dots
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(_triple(c2=[1e200, 0, 0, -1e200], c3=[1e200, 0, 0, -1e200 * E2])))
        assert main(["lambda", "--scene", str(path), "--triple", "T"]) == 0
        assert capsys.readouterr().out == "lambda_tilde=1.000000 a=2.718282\n"
        assert main(["member", "--scene", str(path), "--triple", "T", "--point", "5,0"]) == 1
        assert json.loads(capsys.readouterr().out)["member"] is False
        out = tmp_path / "out.svg"
        assert main(["render", "--scene", str(path), "--out", str(out), "--samples", "16"]) == 0
        err = capsys.readouterr().err
        assert "not drawn" not in err
        assert 'fill="currentColor"' not in out.read_text()  # no point dots
        assert out.read_text().count("<circle ") == 2

    @pytest.mark.parametrize("e", range(17, 2, -1))
    def test_shipped_scene_answers_alike_at_every_tol_decade(self, e, capsys):
        # the installed-cli job's --tol sweep: every zero test reads the terms
        # of its product, and the membership kernel binds its tolerances per
        # form, so the shipped scene answers alike at each eps_product the CLI takes
        scene = str(Path(__file__).resolve().parent.parent / "scenes" / "standard_spiral.json")
        tol = ["--scene", scene, "--triple", "spiral", "--tol", f"1e-{e}"]
        assert main(["member", *tol, "--point", "1,0"]) == 0
        assert main(["member", *tol, "--point", "origin"]) == 1
        assert main(["normalize", *tol]) == 0

    def test_shipped_scene_angle_exit_codes(self, capsys):
        # the installed-cli job's angle lines: the limit points are on
        # neither curve, an error and not an angle
        scene = str(Path(__file__).resolve().parent.parent / "scenes" / "standard_spiral.json")
        angle = ["angle", "--scene", scene, "--triple-a", "spiral", "--triple-b", "spiral", "--point"]
        assert main([*angle, "1,0"]) == 0
        capsys.readouterr()
        assert main([*angle, "inf"]) == 2
        assert capsys.readouterr().err == "error: point inf is not on both curves\n"
        assert main([*angle, "origin"]) == 2
        assert capsys.readouterr().err == "error: point 0.000000,0.000000 is not on both curves\n"

    def test_main_in_process(self, scene_path, capsys):
        code = main(["lambda", "--scene", scene_path, "--triple", "T"])
        assert code == 0
        assert "lambda_tilde=1.000000" in capsys.readouterr().out
