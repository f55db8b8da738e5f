"""The render passes as first written, kept as a reference.

``moeblox.render`` draws a curve in three passes: ``_curve_points``
samples a branch, ``_polyline_runs`` cuts it where it leaves the view,
and ``_coords`` writes each run in pixels.  The passes there apply the
model point's rule, the view guard and the pixel projection inline.
The passes here call ``_affine`` for each model point, test the guard
with ``max(abs(..), abs(..))`` and project through ``_Projector.to_px``
point by point.  Both read the same prepared form, so every polyline's
``points`` string must be identical, character for character.
"""

from __future__ import annotations

import cmath

from moeblox.cycles import _affine
from moeblox.errors import InvalidInput
from moeblox.loxodrome import _CIRCLE, _prepared
from moeblox.render import _clear_negative_zero


def _curve_points(lox, t_min, t_max, count, sign):
    rate = lox.rate
    back = lox._inverse
    one, zero = complex(1.0), complex(0.0)
    a, c = back.a, back.c
    b, d = back.b * one, back.d * one
    far, infinity = _affine(a * one + back.b * zero, c * one + back.d * zero), _affine(one, zero)
    step = (t_max - t_min) / (count - 1)
    out = []
    for i in range(count):
        try:
            w = sign * cmath.exp(rate * (t_min + step * i))
        except OverflowError:
            out.append(infinity)
            continue
        except ValueError:  # rate * t overflowed into an infinite angle
            raise InvalidInput(
                f"curve point at t={t_min + step * i!r} is undefined: rate * t is not finite"
            ) from None
        z = _affine(w, one)
        out.append(far if z is None else _affine(a * z + b, c * z + d))
    return out


def _polyline_runs(points, guard):
    run = []
    for z in points:
        if z is not None and max(abs(z.real), abs(z.imag)) <= guard:
            run.append(z)
        else:
            if len(run) >= 2:
                yield run
            run = []
    if len(run) >= 2:
        yield run


def _coords(points, proj, precision):
    pair = f"%.{precision}f,%.{precision}f"
    return _clear_negative_zero(" ".join([pair % proj.to_px(z) for z in points]), precision)


def runs(T, proj, config, tol):
    """The polyline runs of the curve of ``T``, in the order
    ``render._emit_triple`` writes them: branch by branch, then run by run."""
    lox = _prepared(T, tol)
    signs = (1.0,) if lox.shape is _CIRCLE else (1.0, -1.0)
    guard = 50.0 * max(abs(proj.bbox[0]), abs(proj.bbox[1]), abs(proj.bbox[2]), abs(proj.bbox[3]), 1.0)
    return [
        run
        for sign in signs
        for run in _polyline_runs(_curve_points(lox, config.t_min, config.t_max, config.samples, sign), guard)
    ]
