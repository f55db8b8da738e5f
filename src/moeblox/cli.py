"""Command-line front end.

Exit codes follow one contract everywhere: 0 affirmative, 1 negative,
2 usage or data error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .cycles import ExtendedPoint
from .errors import MoebloxError
from .loxodrome import (
    SlsKind,
    contains_point,
    contains_point_oracle,
    equivalent,
    intersection_angle,
    lambda_from_triple,
    sample_curve,
    standard_map,
    standard_triple,
    tangent_check,
)
from .numerics import DEFAULT_TOLERANCES, Tolerances
from .render import RenderConfig, render_scene
from .scene import load_scene

def _common(parser):
    parser.add_argument("--scene", required=True, help="scene JSON file")
    parser.add_argument(
        "--tol", help="tolerances: <eps_product>[,<eps_angle>,<eps_mod>]"
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moeblox",
        description="Queries and rendering for circles, pencils and loxodromes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="print the spiral parameter of a triple")
    _common(p)
    p.add_argument("--triple", required=True, help="triple object id")

    p = sub.add_parser("member", help="does the curve pass the point?")
    _common(p)
    p.add_argument("--triple", required=True)
    p.add_argument("--point", required=True, help="'x,y' or 'inf', or a point id")
    p.add_argument("--oracle", action="store_true", help="decide by normalising instead")

    p = sub.add_parser("angle", help="intersection angle of two curves at a point")
    _common(p)
    p.add_argument("--triple-a", required=True)
    p.add_argument("--triple-b", required=True)
    p.add_argument("--point", required=True)

    p = sub.add_parser("tangent", help="is the cycle tangent to the curve at the point?")
    _common(p)
    p.add_argument("--triple", required=True)
    p.add_argument("--cycle", required=True, help="circle/line/cycle object id")
    p.add_argument("--point", required=True)

    p = sub.add_parser("equiv", help="do two triples parametrise the same curve?")
    _common(p)
    p.add_argument("--triple-a", required=True)
    p.add_argument("--triple-b", required=True)

    p = sub.add_parser("normalize", help="print the standard map and standard triple")
    _common(p)
    p.add_argument("--triple", required=True)

    p = sub.add_parser("render", help="render the scene to SVG")
    _common(p)
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--samples", type=int, default=RenderConfig.samples)
    p.add_argument("--t-min", type=float, default=RenderConfig.t_min)
    p.add_argument("--t-max", type=float, default=RenderConfig.t_max)
    p.add_argument("--width", type=int, default=RenderConfig.width)
    p.add_argument("--height", type=int, default=RenderConfig.height)
    p.add_argument("--precision", type=int, default=RenderConfig.precision)

    p = sub.add_parser("sample", help="print curve points on a parameter grid")
    _common(p)
    p.add_argument("--triple", required=True)
    p.add_argument("--t-min", type=float, default=-3.0)
    p.add_argument("--t-max", type=float, default=3.0)
    p.add_argument("--count", type=int, default=65)
    p.add_argument("--branch", choices=["+", "-", "both"], default="both")

    return parser


def _parse_point(scene, literal: str) -> ExtendedPoint:
    if literal == "inf" or "," in literal:
        return ExtendedPoint.parse(literal)
    return scene.point(literal)


def _cmd_lambda(args, scene, tol) -> int:
    param = lambda_from_triple(scene.triple(args.triple), tol)
    if args.json:
        if param.kind == SlsKind.INFINITE:
            payload = {"lambda_tilde": "inf", "a": "inf"}
        else:
            payload = {"lambda_tilde": param.lambda_tilde, "a": param.a}
        print(json.dumps(payload, sort_keys=True))
        return 0
    if param.kind == SlsKind.INFINITE:
        print("lambda_tilde=inf a=inf")
    elif param.lambda_tilde == 0.0:
        print("lambda_tilde=0 a=1")
    else:
        print(f"lambda_tilde={param.lambda_tilde:.6f} a={param.a:.6f}")
    return 0


def _cmd_member(args, scene, tol) -> int:
    T = scene.triple(args.triple)
    point = _parse_point(scene, args.point)
    if args.oracle:
        member = contains_point_oracle(T, point, tol)
        report = {"member": member, "t_coeff": None, "lhs": None, "rhs": None,
                  "flags": ["oracle"]}
    else:
        result = contains_point(T, point, tol)
        member = result.member
        report = result.to_json()
    print(json.dumps(report, sort_keys=True))
    return 0 if member else 1


def _cmd_angle(args, scene, tol) -> int:
    angle = intersection_angle(
        scene.triple(args.triple_a),
        scene.triple(args.triple_b),
        _parse_point(scene, args.point),
        tol,
    )
    if args.json:
        print(json.dumps({"radians": angle, "degrees": math.degrees(angle)}, sort_keys=True))
    else:
        print(f"angle_rad={angle:.6f} angle_deg={math.degrees(angle):.6f}")
    return 0


def _cmd_tangent(args, scene, tol) -> int:
    ok = tangent_check(
        scene.triple(args.triple),
        scene.cycle(args.cycle),
        _parse_point(scene, args.point),
        tol,
    )
    print(json.dumps({"tangent": ok}, sort_keys=True) if args.json else
          ("tangent" if ok else "not tangent"))
    return 0 if ok else 1


def _cmd_equiv(args, scene, tol) -> int:
    ok = equivalent(scene.triple(args.triple_a), scene.triple(args.triple_b), tol)
    print(json.dumps({"equivalent": ok}, sort_keys=True) if args.json else
          ("equivalent" if ok else "not equivalent"))
    return 0 if ok else 1


def _cmd_normalize(args, scene, tol) -> int:
    T = scene.triple(args.triple)
    M = standard_map(T, tol)
    param = lambda_from_triple(T, tol)
    std = standard_triple(param)
    if args.json:
        print(json.dumps(
            {
                "map": M.to_json(),
                "standard_triple": std.to_json(),
                "lambda_tilde": param.lambda_tilde,
            },
            sort_keys=True,
        ))
        return 0
    def f6(x: float) -> str:
        r = round(x, 6)
        return f"{r if r != 0.0 else 0.0:.6f}"

    entries = ",".join(f"[{f6(e.real)},{f6(e.imag)}]" for e in (M.a, M.b, M.c, M.d))
    print(f"map=[{entries}]")
    print(f"standard_triple={json.dumps(std.to_json(), sort_keys=True)}")
    print(f"lambda_tilde={param.lambda_tilde:.6f}")
    return 0


def _cmd_render(args, scene, tol) -> int:
    config = RenderConfig(
        samples=args.samples,
        t_min=args.t_min,
        t_max=args.t_max,
        width=args.width,
        height=args.height,
        precision=args.precision,
    )
    notes: list[str] = []
    svg = render_scene(scene, config, tol, warnings_out=notes)
    for note in notes:
        print(f"warning: {note}", file=sys.stderr)
    with open(args.out, "wb") as handle:
        handle.write(svg.encode("utf-8"))
    return 0


def _cmd_sample(args, scene, tol) -> int:
    T = scene.triple(args.triple)
    branches = ["+", "-"] if args.branch == "both" else [args.branch]
    # every branch is sampled before anything is printed, so a refused
    # grid leaves no partial output behind
    points = {
        branch: [
            p.format()
            for p in sample_curve(T, args.t_min, args.t_max, args.count, branch, tol)
        ]
        for branch in branches
    }
    if args.json:
        print(json.dumps(points, sort_keys=True))
        return 0
    for branch, lines in points.items():
        print(f"# branch {branch}")
        for line in lines:
            print(line)
    return 0


_HANDLERS = {
    "lambda": _cmd_lambda,
    "member": _cmd_member,
    "angle": _cmd_angle,
    "tangent": _cmd_tangent,
    "equiv": _cmd_equiv,
    "normalize": _cmd_normalize,
    "render": _cmd_render,
    "sample": _cmd_sample,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; keep the contract
        return int(exc.code) if exc.code else 0
    try:
        tol = Tolerances.parse(args.tol) if args.tol else DEFAULT_TOLERANCES
        return _HANDLERS[args.command](args, load_scene(args.scene, tol), tol)
    except MoebloxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
