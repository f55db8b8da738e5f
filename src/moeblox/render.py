"""Deterministic SVG output for scenes.

Same scene, same config, same version: byte-identical file.  All
numbers go through one fixed-precision formatter (negative zero
normalised away), elements appear in scene order, and nothing
timestamped or random enters the output.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .cycles import Cycle, CycleKind, ExtendedPoint, _locus
from .errors import InvalidInput, MoebloxError
from .loxodrome import _CIRCLE, LoxodromeTriple, _check, _check_grid, _curve_points
from .numerics import DEFAULT_TOLERANCES, Tolerances, _clear_negative_zero, _finite, _index, _Value
from .scene import Scene, SceneObject


class RenderConfig(_Value, namedtuple("RenderConfig", "samples t_min t_max width height precision",
                                      defaults=(2048, -3.0, 3.0, 800, 600, 6))):
    """Samples per branch, the parameter range, the SVG size in pixels
    and the decimal places of every number written."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        if _index(config.samples, "sample count") < 16:
            raise InvalidInput("samples per branch must be at least 16")
        if not 3 <= _index(config.precision, "precision") <= 12:
            raise InvalidInput("precision must lie in [3, 12]")
        for name in ("width", "height"):  # the projector divides by both, and both are written out
            value = getattr(config, name)  # _finite refuses a non-number by name
            if isinstance(value, bool) or not _finite(value, name):
                raise InvalidInput(f"{name} must be a finite number, got {value!r}")
        if config.width <= 0 or config.height <= 0:
            raise InvalidInput("output size must be positive")
        _check_grid(config.t_min, config.t_max, config.samples)
        if not config.t_max > config.t_min:
            raise InvalidInput("t range must be non-empty")
        return config


_TRIPLE_STYLE = {
    "c1": 'stroke="#2e8b57" stroke-dasharray="6 4"',
    "c23": 'stroke="#c0392b"',
    "curve": 'stroke="#1f4e9c"',
}


def _quoteattr(value) -> str:
    """An XML attribute value in double quotes, with the characters that
    would end or break it escaped, and tab, LF and CR, which a parser reads
    as spaces, as references (xml.sax.saxutils.quoteattr would do, but
    importing it pulls in urllib.request)."""
    text = str(value).replace("&", "&amp;").replace("<", "&lt;").replace('"', "&quot;")
    text = text.replace("\t", "&#9;").replace("\n", "&#10;").replace("\r", "&#13;")
    return f'"{text}"'


def _fmt(x: float, precision: int) -> str:
    return _clear_negative_zero(f"{x:.{precision}f}", precision)


def _coords(points: list[complex], proj: _Projector, precision: int) -> str:
    """A polyline's points in pixels, "x,y x,y ...", each number as
    ``_fmt`` writes it.  Each point is projected as ``proj.to_px`` does,
    without the call, and the run is formatted in one operation."""
    ox, oy, scale = proj.ox, proj.oy, proj.scale
    xy = [0.0] * (2 * len(points))
    xy[0::2] = [ox + scale * z.real for z in points]
    xy[1::2] = [oy - scale * z.imag for z in points]
    pairs = " ".join([f"%.{precision}f,%.{precision}f"] * len(points))
    return _clear_negative_zero(pairs % tuple(xy), precision)


_STYLE_ATTRS = (("stroke", "stroke"), ("width", "stroke-width"), ("dash", "stroke-dasharray"))


def _style_attr(scene: Scene, object_id: str, default: str) -> str:
    hints = scene.style.get(object_id, {})
    parts = [f"{attr}={_quoteattr(hints[name])}" for name, attr in _STYLE_ATTRS if name in hints]
    return " ".join(parts) if parts else default


def _finite_bounds(obj: SceneObject, tol: Tolerances):
    """Bounding boxes of finite points and circles, each cycle read by the
    one ``_locus`` that ``_emit_cycle`` draws; lines and maps are unbounded."""
    located = [(CycleKind.POINT, obj.value, None)] if obj.kind == "point" else []
    if obj.kind in ("circle", "line", "cycle", "triple"):
        for C in (obj.value.c1, obj.value.c2, obj.value.c3) if obj.kind == "triple" else (obj.value,):
            try:
                located.append(_locus(C, tol))
            except MoebloxError:
                continue  # a cycle not drawn is noted by render_scene
    boxes = []
    for kind, a, r in located:
        if kind is CycleKind.POINT and not a.is_infinity:
            kind, a, r = CycleKind.CIRCLE, a.as_complex(), 0.0  # boxed as a circle of radius 0
        if kind is CycleKind.CIRCLE:
            boxes.append((a.real - r, a.imag - r, a.real + r, a.imag + r))
    return boxes


def _scene_bbox(scene: Scene, tol: Tolerances):
    if scene.bbox is not None:
        xmin, ymin, xmax, ymax = scene.bbox
    else:
        boxes = []
        for obj in scene.objects:
            boxes.extend(_finite_bounds(obj, tol))
        if not boxes:
            return (-5.0, -5.0, 5.0, 5.0)
        xmin = min(b[0] for b in boxes)
        ymin = min(b[1] for b in boxes)
        xmax = max(b[2] for b in boxes)
        ymax = max(b[3] for b in boxes)
    # the floor grows with the largest coordinate, so a pad beside it does not round away
    span = max(xmax - xmin, ymax - ymin, 1e-6 * max(1.0, abs(xmin), abs(ymin), abs(xmax), abs(ymax)))
    pad = 0.1 * span
    box = (xmin - pad, ymin - pad, xmax + pad, ymax + pad)
    if not math.isfinite(max(box[2] - box[0], box[3] - box[1])):  # the projector divides by both
        raise InvalidInput(f"bbox {[xmin, ymin, xmax, ymax]!r} is too large: its padded view overflows a float")
    return box


class _Projector:
    """World to pixel coordinates: uniform scale, centred, y flipped."""

    def __init__(self, bbox, width, height):
        xmin, ymin, xmax, ymax = bbox
        self.scale = min(width / (xmax - xmin), height / (ymax - ymin))
        self.ox = (width - self.scale * (xmax - xmin)) / 2.0 - self.scale * xmin
        self.oy = (height + self.scale * (ymax - ymin)) / 2.0 + self.scale * ymin
        self.bbox = bbox

    def to_px(self, z: complex) -> tuple[float, float]:
        return self.ox + self.scale * z.real, self.oy - self.scale * z.imag


def _clip_line_to_box(anchor: complex, direction: complex, bbox):
    """Parameter interval of an infinite line inside a rectangle."""
    xmin, ymin, xmax, ymax = bbox
    t0, t1 = -math.inf, math.inf
    for pos, vel, lo, hi in (
        (anchor.real, direction.real, xmin, xmax),
        (anchor.imag, direction.imag, ymin, ymax),
    ):
        if abs(vel) < 1e-300:
            if not lo <= pos <= hi:
                return None
            continue
        a, b = (lo - pos) / vel, (hi - pos) / vel
        if a > b:
            a, b = b, a
        t0, t1 = max(t0, a), min(t1, b)
    if t0 >= t1 or not (math.isfinite(t0) and math.isfinite(t1)):
        return None
    return anchor + t0 * direction, anchor + t1 * direction


def _emit_point(out, p: ExtendedPoint, proj: _Projector, style: str, precision: int):
    if p.is_infinity:
        return
    cx, cy = proj.to_px(p.as_complex())
    out.append(
        f'<circle cx="{_fmt(cx, precision)}" cy="{_fmt(cy, precision)}" r="3" '
        f'fill="currentColor" {style}/>'
    )


def _emit_cycle(out, C: Cycle, proj: _Projector, style: str, precision: int, tol):
    """C as one ``cycles._locus`` reading finds it: a point, a line clipped
    to the view, or a circle; a cycle of no real locus raises InvalidInput."""
    kind, a, b = _locus(C, tol)
    if kind is CycleKind.POINT:
        _emit_point(out, a, proj, style, precision)
    elif kind is CycleKind.LINE:
        clipped = _clip_line_to_box(a, b, proj.bbox)
        if clipped is None:
            return
        (x1, y1), (x2, y2) = proj.to_px(clipped[0]), proj.to_px(clipped[1])
        out.append(
            f'<line x1="{_fmt(x1, precision)}" y1="{_fmt(y1, precision)}" '
            f'x2="{_fmt(x2, precision)}" y2="{_fmt(y2, precision)}" {style}/>'
        )
    else:
        cx, cy = proj.to_px(a)
        out.append(
            f'<circle cx="{_fmt(cx, precision)}" cy="{_fmt(cy, precision)}" '
            f'r="{_fmt(b * proj.scale, precision)}" {style}/>'
        )


def _polyline_runs(points: list[complex | None], guard: float):
    run: list[complex] = []
    for z in points:
        if z is not None and -guard <= z.real <= guard and -guard <= z.imag <= guard:
            run.append(z)
        else:
            if len(run) >= 2:
                yield run
            run = []
    if len(run) >= 2:
        yield run


def _emit_triple(out, scene, obj, proj, config, tol, warnings_out):
    """The triple's check notes, then its cycles, then its curve from the
    checked form unless the check's first refusal says why it is not drawn."""
    T: LoxodromeTriple = obj.value
    try:
        lox, violations = _check(T, tol)
        notes = [f"{v}" + (f" (residual {v.residual:.3e})" if v.residual is not None else "") for v in violations]
    except MoebloxError as exc:
        violations, notes = [exc], [f"not checked: {exc}"]
    warnings_out.extend(f"triple {obj.id!r}: {note}" for note in notes)
    style = _style_attr(scene, obj.id, "")
    out.append(f"<g id={_quoteattr(obj.id)}>")
    for name, C, default in (("c1", T.c1, "c1"), ("c2", T.c2, "c23"), ("c3", T.c3, "c23")):
        try:
            _emit_cycle(out, C, proj, style or _TRIPLE_STYLE[default], config.precision, tol)
        except MoebloxError as exc:
            warnings_out.append(f"triple {obj.id!r}: {name} not drawn: {exc}")
    try:
        if violations:
            raise violations[0]
        signs = (1.0,) if lox.shape is _CIRCLE else (1.0, -1.0)  # one branch covers a circle
        guard = 50.0 * max(*map(abs, proj.bbox), 1.0)
        curve_style = style or _TRIPLE_STYLE["curve"]
        for sign in signs:
            pts = _curve_points(lox, config.t_min, config.t_max, config.samples, sign)
            for run in _polyline_runs(pts, guard):
                coords = _coords(run, proj, config.precision)
                out.append(f'<polyline points="{coords}" {curve_style}/>')
    except MoebloxError as exc:
        warnings_out.append(f"triple {obj.id!r}: curve not drawn: {exc}")
    out.append("</g>")


def render_scene(
    scene: Scene,
    config: RenderConfig = RenderConfig(),
    tol: Tolerances = DEFAULT_TOLERANCES,
    warnings_out: list[str] | None = None,
) -> str:
    """Render a scene to SVG text.

    Each triple is checked, by one form, where it is drawn.  An invalid
    one is still drawn from its raw cycles, without its curve;
    ``warnings_out`` gets, triple by triple in scene order, a note per
    violation (or one for a check that itself fails), then one per cycle
    not drawn, then one for the curve not drawn.
    """
    if warnings_out is None:
        warnings_out = []
    bbox = _scene_bbox(scene, tol)
    proj = _Projector(bbox, config.width, config.height)
    p = config.precision

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{config.width}" '
        f'height="{config.height}" viewBox="0 0 {config.width} {config.height}">',
        f'<rect x="0" y="0" width="{config.width}" height="{config.height}" fill="#ffffff"/>',
        '<g fill="none" stroke="#000000" stroke-width="1.5">',
    ]
    for obj in scene.objects:
        if obj.kind == "moebius":
            continue
        if obj.kind == "triple":
            _emit_triple(out, scene, obj, proj, config, tol, warnings_out)
        elif obj.kind == "point":
            _emit_point(out, obj.value, proj, _style_attr(scene, obj.id, ""), p)
        else:
            try:
                _emit_cycle(out, obj.value, proj, _style_attr(scene, obj.id, ""), p, tol)
            except MoebloxError as exc:
                warnings_out.append(f"object {obj.id!r}: not drawn: {exc}")
    out.append("</g>")
    out.append("</svg>")
    return "\n".join(out) + "\n"
