"""Scene files: a small JSON format describing objects for the CLI.

Schema::

    {
      "objects": [
        {"id": "C", "kind": "circle",  "data": {"center": [x, y], "radius": r}},
        {"id": "L", "kind": "line",    "data": {"p": [x, y], "q": [x, y]}},
        {"id": "P", "kind": "point",   "data": "x,y" | [x, y] | "inf"},
        {"id": "Q", "kind": "cycle",   "data": [k, l, n, m]},
        {"id": "M", "kind": "moebius", "data": [[re, im], [re, im], [re, im], [re, im]]},
        {"id": "T", "kind": "triple",  "data": {"c1": [k,l,n,m] | "id", "c2": ..., "c3": ..., "sign": 1}}
      ],
      "style": {"T": {"stroke": "#f00", "width": 1.5, "dash": "4 2"}},
      "bbox": [xmin, ymin, xmax, ymax]
    }

Each number is a JSON int or float that is not a bool, is finite and
fits in a float.  Every field shown is required except ``sign`` (the int
1 or -1, default 1), ``style``, ``bbox`` and the fields of a style hint;
no other field is allowed.  A hint's ``stroke`` is ``#rgb``, ``#rrggbb``
or a colour keyword of ASCII letters, its ``width`` a number in
(0, STYLE_WIDTH_MAX], its ``dash`` non-negative decimals separated by
spaces or commas.  A point string is read by ``ExtendedPoint.parse``:
ASCII decimals only.  A triple member may be the id of a circle, line or
cycle object.  Ids are unique and hold no character XML 1.0 forbids.
``_KINDS`` and ``_STYLE_HINT`` state these rules once; the kernel
constructors check the geometry.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple

from .cycles import Cycle, ExtendedPoint, MoebiusMap, from_circle, from_line
from .errors import MoebloxError, SceneError
from .loxodrome import LoxodromeTriple
from .numerics import DEFAULT_TOLERANCES, Tolerances, _quote, _Value

STYLE_WIDTH_MAX = 1000.0

_CYCLE_KINDS = ("circle", "line", "cycle")
_OPTIONAL = ("sign", "stroke", "width", "dash")  # the fields a scene may leave out
# characters an XML 1.0 document cannot hold, escaped or not; ids become
# SVG attributes
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


class SceneObject(_Value, namedtuple("SceneObject", "id kind value")):
    """A scene file's object; its value is a Cycle, ExtendedPoint, MoebiusMap or LoxodromeTriple."""

    __slots__ = ()


class Scene:
    """The objects of a scene file in file order, the style hints by
    object id, and the view box, or None to fit the objects."""

    def __init__(self, objects=None, style=None, bbox=None):
        self.objects: list[SceneObject] = [] if objects is None else objects
        self.style: dict = {} if style is None else style
        self.bbox: tuple[float, float, float, float] | None = bbox

    def get(self, object_id: str) -> SceneObject:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise SceneError(f"no object with id {_quote(object_id)}")

    def _value(self, object_id: str, kinds: tuple, noun: str):
        obj = self.get(object_id)
        if obj.kind not in kinds:
            raise SceneError(f"object {_quote(object_id)} is a {obj.kind}, not a {noun}")
        return obj.value

    def triple(self, object_id: str) -> LoxodromeTriple:
        return self._value(object_id, ("triple",), "triple")

    def cycle(self, object_id: str) -> Cycle:
        return self._value(object_id, _CYCLE_KINDS, "cycle")

    def point(self, object_id: str) -> ExtendedPoint:
        return self._value(object_id, ("point",), "point")


# readers: each takes a JSON value and the path that names it in messages,
# and returns what the value stands for or raises SceneError

def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SceneError(f"{where} must be a number (int or float), got {_quote(value)}")
    try:
        x = float(value)
    except OverflowError:  # JSON puts no bound on integers
        raise SceneError(f"{where} is too large for a float") from None
    if not math.isfinite(x):
        raise SceneError(f"{where} must be finite, got {x!r}")
    return x


def _array(value, length: int, where: str, form: str) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise SceneError(f"{where}: expected {form}, got {_quote(value)}")
    return value


def _built(make, where: str, *args):
    """``make(*args)``, with the kernel's refusal reported under ``where``."""
    try:
        return make(*args)
    except MoebloxError as exc:
        raise SceneError(f"{where}: {exc}") from exc


def _xy(value, where: str) -> complex:
    x, y = (_number(v, f"{where}[{i}]") for i, v in enumerate(_array(value, 2, where, "[x, y]")))
    return complex(x, y)


def _point(value, where: str) -> ExtendedPoint:
    if isinstance(value, str):
        return _built(ExtendedPoint.parse, where, value)
    return ExtendedPoint.from_complex(_xy(value, where))


def _cycle(value, where: str) -> Cycle:
    comps = _array(value, 4, where, "[k, l, n, m]")
    return _built(Cycle, where, *(_number(v, f"{where}: cycle component {c}") for c, v in zip("klnm", comps)))


def _map(value, where: str) -> MoebiusMap:
    entries = []
    for name, pair in zip("abcd", _array(value, 4, where, "four [re, im] pairs")):
        entry = f"{where}: map entry {name}"
        entries.append(complex(*(_number(v, entry) for v in _array(pair, 2, entry, "[re, im]"))))
    return _built(MoebiusMap, where, *entries)


def _member(value, where: str) -> Cycle | str:
    """An inline cycle, or an object id that ``parse_scene`` resolves."""
    return value if isinstance(value, str) else _cycle(value, where)


def _sign(value, where: str) -> int:
    if type(value) is not int or value not in (1, -1):  # a bool is not an int here
        raise SceneError(f"{where} must be the int 1 or -1, got {_quote(value)}")
    return value


def _width(value, where: str):
    if not 0.0 < _number(value, where) <= STYLE_WIDTH_MAX:
        raise SceneError(f"{where} must lie in (0, {STYLE_WIDTH_MAX:g}], got {_quote(value)}")
    return value  # written as given, so 2 stays "2"


def _text(pattern: str, form: str):
    """A reader of strings that ``pattern`` matches whole."""
    grammar = re.compile(pattern)

    def read(value, where: str) -> str:
        if not (isinstance(value, str) and grammar.fullmatch(value)):
            raise SceneError(f"{where} must be {form}, got {_quote(value)}")
        return value

    return read


def _object(**fields):
    """A reader of JSON objects with the given fields, each read by its
    reader.  Other fields are refused, and so is an absent field that
    ``_OPTIONAL`` does not name."""

    def read(data, where: str) -> dict:
        if not isinstance(data, dict):
            raise SceneError(f"{where}: expected an object with fields {', '.join(fields)}, got {_quote(data)}")
        unknown = next((name for name in data if name not in fields), None)
        if unknown is not None:
            raise SceneError(f"{where}: unknown field {_quote(unknown)}, expected {', '.join(fields)}")
        missing = next((name for name in fields if name not in data and name not in _OPTIONAL), None)
        if missing is not None:
            raise SceneError(f"{where}.{missing} is missing")
        return {name: field_reader(data[name], f"{where}.{name}")
                for name, field_reader in fields.items() if name in data}

    return read


# kind -> (reader of its "data", builder of the object from what the reader
# returned, or None when the reader built it)
_KINDS = {
    "circle": (_object(center=_xy, radius=_number), lambda f, tol: from_circle(f["center"], f["radius"])),
    "line": (_object(p=_xy, q=_xy), lambda f, tol: from_line(f["p"], f["q"], tol)),
    "point": (_point, None),
    "cycle": (_cycle, None),
    "moebius": (_map, None),
    "triple": (
        _object(c1=_member, c2=_member, c3=_member, sign=_sign),
        lambda f, tol: LoxodromeTriple(f["c1"], f["c2"], f["c3"], f.get("sign", 1)),
    ),
}
_STYLE_HINT = _object(
    stroke=_text("#[0-9A-Fa-f]{3}|#[0-9A-Fa-f]{6}|[A-Za-z]+", "#rgb, #rrggbb or a colour keyword"),
    width=_width,
    dash=_text(
        "[0-9]*[.]?[0-9]+(?:(?: *, *| +)[0-9]*[.]?[0-9]+)*",
        "non-negative decimals separated by spaces or commas",
    ),
)


def load_scene(path: str, tol: Tolerances = DEFAULT_TOLERANCES) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise SceneError(f"cannot read scene {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene {path!r} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise SceneError(f"scene {path!r} nests too deeply to read") from None
    return parse_scene(raw, tol)


def parse_scene(raw, tol: Tolerances = DEFAULT_TOLERANCES) -> Scene:
    if not isinstance(raw, dict) or not isinstance(raw.get("objects"), list):
        raise SceneError("scene must be an object with an 'objects' array")

    pending = []
    seen_ids = set()
    for index, entry in enumerate(raw["objects"]):
        where = f"objects[{index}]"
        if not isinstance(entry, dict):
            raise SceneError(f"{where}: expected an object entry")
        object_id = entry.get("id")
        if not isinstance(object_id, str) or not object_id:
            raise SceneError(f"{where}: missing or empty 'id'")
        if _NOT_XML.search(object_id):
            raise SceneError(f"{where}: id {_quote(object_id)} holds a character XML forbids")
        if object_id in seen_ids:
            raise SceneError(f"{where}: duplicate id {_quote(object_id)}")
        seen_ids.add(object_id)
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise SceneError(f"{where}: kind must be one of {tuple(_KINDS)}, got {_quote(kind)}")
        if "data" not in entry:
            raise SceneError(f"{where}.data is missing")
        pending.append((where, object_id, kind, _KINDS[kind][0](entry["data"], where)))

    # triples last, so that a member may name any circle, line or cycle
    by_id: dict[str, SceneObject] = {}
    for where, object_id, kind, data in sorted(pending, key=lambda p: p[2] == "triple"):
        if kind == "triple":
            for name in ("c1", "c2", "c3"):
                if isinstance(data[name], str):
                    target = by_id.get(data[name])
                    if target is None or target.kind not in _CYCLE_KINDS:
                        raise SceneError(f"{where}.{name}: {_quote(data[name])} is not the id of a circle, line or cycle")
                    data[name] = target.value
        build = _KINDS[kind][1]
        value = data if build is None else _built(build, where, data, tol)
        by_id[object_id] = SceneObject(object_id, kind, value)

    style = raw.get("style", {})
    if not isinstance(style, dict):
        raise SceneError("'style' must map ids to style hints")
    style = {key: _STYLE_HINT(hints, f"style[{_quote(key)}]") for key, hints in style.items()}

    bbox = raw.get("bbox")
    if bbox is not None:
        corners = _array(bbox, 4, "bbox", "[xmin, ymin, xmax, ymax]")
        bbox = tuple(_number(v, f"bbox[{i}]") for i, v in enumerate(corners))
        if bbox[0] >= bbox[2] or bbox[1] >= bbox[3]:
            raise SceneError(f"bbox {list(bbox)} must have positive extent")

    return Scene(objects=[by_id[p[1]] for p in pending], style=style, bbox=bbox)
