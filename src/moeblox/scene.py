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

Triple members may reference another object's id (circle, line or cycle
kinds) instead of an inline quadruple.  Ids must be unique and every
reference must resolve.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field

from .cycles import Cycle, ExtendedPoint, MoebiusMap, from_circle, from_line
from .errors import InvalidInput, MoebloxError, SceneError
from .loxodrome import LoxodromeTriple, triple_violations
from .numerics import DEFAULT_TOLERANCES, Tolerances

KINDS = ("circle", "line", "point", "cycle", "moebius", "triple")

# characters an XML 1.0 document cannot hold, escaped or not; ids and
# style values become SVG attributes
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


@dataclass(frozen=True)
class SceneObject:
    id: str
    kind: str
    value: object  # Cycle | ExtendedPoint | MoebiusMap | LoxodromeTriple


@dataclass
class Scene:
    objects: list[SceneObject] = field(default_factory=list)
    style: dict = field(default_factory=dict)
    bbox: tuple[float, float, float, float] | None = None

    def get(self, object_id: str) -> SceneObject:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise SceneError(f"no object with id {object_id!r}")

    def triple(self, object_id: str) -> LoxodromeTriple:
        obj = self.get(object_id)
        if obj.kind != "triple":
            raise SceneError(f"object {object_id!r} is a {obj.kind}, not a triple")
        return obj.value

    def cycle(self, object_id: str) -> Cycle:
        obj = self.get(object_id)
        if obj.kind not in ("circle", "line", "cycle"):
            raise SceneError(f"object {object_id!r} is a {obj.kind}, not a cycle")
        return obj.value

    def point(self, object_id: str) -> ExtendedPoint:
        obj = self.get(object_id)
        if obj.kind != "point":
            raise SceneError(f"object {object_id!r} is a {obj.kind}, not a point")
        return obj.value

    def triple_warnings(self, tol: Tolerances = DEFAULT_TOLERANCES) -> list[str]:
        """Human-readable invariant violations of every triple object."""
        notes = []
        for obj in self.objects:
            if obj.kind != "triple":
                continue
            T = obj.value
            for violation in triple_violations(T.c1, T.c2, T.c3, T.sign, tol):
                detail = f" (residual {violation.residual:.3e})" if violation.residual is not None else ""
                notes.append(f"triple {obj.id!r}: {violation}{detail}")
        return notes


def _parse_xy(value, where: str) -> complex:
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 2
        or not all(isinstance(v, (int, float)) for v in value)
    ):
        raise SceneError(f"{where}: expected [x, y], got {value!r}")
    return complex(float(value[0]), float(value[1]))


def _parse_point(data, where: str) -> ExtendedPoint:
    if isinstance(data, str):
        try:
            return ExtendedPoint.parse(data)
        except InvalidInput as exc:
            raise SceneError(f"{where}: {exc}") from exc
    if isinstance(data, (list, tuple)):
        return ExtendedPoint.from_complex(_parse_xy(data, where))
    raise SceneError(f"{where}: point data must be 'x,y', 'inf' or [x, y]")


def _resolve_cycle(spec, by_id: dict, where: str) -> Cycle:
    if isinstance(spec, str):
        target = by_id.get(spec)
        if target is None:
            raise SceneError(f"{where}: reference {spec!r} does not resolve")
        if target.kind not in ("circle", "line", "cycle"):
            raise SceneError(f"{where}: reference {spec!r} is a {target.kind}")
        return target.value
    try:
        return Cycle.from_json(spec)
    except (InvalidInput, TypeError, ValueError) as exc:
        raise SceneError(f"{where}: {exc}") from exc


def load_scene(path: str, tol: Tolerances = DEFAULT_TOLERANCES) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise SceneError(f"cannot read scene {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneError(f"scene {path!r} is not valid JSON: {exc}") from exc
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
            raise SceneError(f"{where}: id {object_id!r} holds a character XML forbids")
        if object_id in seen_ids:
            raise SceneError(f"{where}: duplicate id {object_id!r}")
        seen_ids.add(object_id)
        kind = entry.get("kind")
        if kind not in KINDS:
            raise SceneError(f"{where}: kind must be one of {KINDS}, got {kind!r}")
        pending.append((where, object_id, kind, entry.get("data")))

    # first pass: everything except triples, so triple refs can resolve
    by_id: dict[str, SceneObject] = {}
    objects: list[SceneObject | None] = [None] * len(pending)
    for slot, (where, object_id, kind, data) in enumerate(pending):
        if kind == "triple":
            continue
        try:
            if kind == "circle":
                if not isinstance(data, dict):
                    raise SceneError(f"{where}: circle data must be an object")
                value = from_circle(
                    _parse_xy(data.get("center"), f"{where}.center"),
                    float(data.get("radius", 0.0)),
                )
            elif kind == "line":
                if not isinstance(data, dict):
                    raise SceneError(f"{where}: line data must be an object")
                value = from_line(
                    _parse_xy(data.get("p"), f"{where}.p"),
                    _parse_xy(data.get("q"), f"{where}.q"),
                    tol,
                )
            elif kind == "point":
                value = _parse_point(data, where)
            elif kind == "cycle":
                value = Cycle.from_json(data)
            else:  # moebius
                value = MoebiusMap.from_json(data)
        except SceneError:
            raise
        except (MoebloxError, TypeError, ValueError) as exc:
            raise SceneError(f"{where}: {exc}") from exc
        obj = SceneObject(object_id, kind, value)
        objects[slot] = obj
        by_id[object_id] = obj

    for slot, (where, object_id, kind, data) in enumerate(pending):
        if kind != "triple":
            continue
        if not isinstance(data, dict):
            raise SceneError(f"{where}: triple data must be an object")
        try:
            value = LoxodromeTriple(
                _resolve_cycle(data.get("c1"), by_id, f"{where}.c1"),
                _resolve_cycle(data.get("c2"), by_id, f"{where}.c2"),
                _resolve_cycle(data.get("c3"), by_id, f"{where}.c3"),
                data.get("sign", 1),
            )
        except SceneError:
            raise
        except (MoebloxError, TypeError, ValueError) as exc:
            raise SceneError(f"{where}: {exc}") from exc
        obj = SceneObject(object_id, kind, value)
        objects[slot] = obj
        by_id[object_id] = obj

    style = raw.get("style", {})
    if not isinstance(style, dict):
        raise SceneError("'style' must map ids to style hints")
    for key, hints in style.items():
        if not isinstance(hints, dict):
            continue
        for name, value in hints.items():
            if isinstance(value, str) and _NOT_XML.search(value):
                raise SceneError(f"style[{key!r}].{name}: {value!r} holds a character XML forbids")

    bbox = None
    if raw.get("bbox") is not None:
        box = raw["bbox"]
        if (
            not isinstance(box, (list, tuple))
            or len(box) != 4
            or not all(isinstance(v, (int, float)) and math.isfinite(v) for v in box)
        ):
            raise SceneError("'bbox' must be [xmin, ymin, xmax, ymax] of finite numbers")
        if box[0] >= box[2] or box[1] >= box[3]:
            raise SceneError("'bbox' must have positive extent")
        bbox = tuple(float(v) for v in box)

    return Scene(objects=objects, style=style, bbox=bbox)
