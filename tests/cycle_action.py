"""The cycle action as first written, kept as a reference.

``apply_to_cycle`` forms the image in closed form on (k, L, m).  The
route here packs the cycle into its 2x2 matrix ((conj L, -m), (k, -L))
and conjugates it, conj(M) C M^-1, on the determinant-1 representative
of M.  The entries of the result are real up to roundoff: k and m carry
an imaginary residue, and L has two estimates, conj(R00) and -R11,
whose difference is one more.  The route averages the two estimates,
drops the residue, and raises NumericalBreakdown when the residue
exceeds eps_product of the largest entry.
"""

from __future__ import annotations

import cmath

import moeblox as mx
from moeblox.errors import NumericalBreakdown


def _mat2mul(X, Y):
    return (
        (X[0][0] * Y[0][0] + X[0][1] * Y[1][0], X[0][0] * Y[0][1] + X[0][1] * Y[1][1]),
        (X[1][0] * Y[0][0] + X[1][1] * Y[1][0], X[1][0] * Y[0][1] + X[1][1] * Y[1][1]),
    )


def apply_to_cycle(M: mx.MoebiusMap, C: mx.Cycle, tol: mx.Tolerances = mx.DEFAULT_TOLERANCES) -> mx.Cycle:
    root = cmath.sqrt(M.det)
    a, b, c, d = (e / root for e in M)
    inv = ((d, -b), (-c, a))
    conj = ((a.conjugate(), b.conjugate()), (c.conjugate(), d.conjugate()))
    R = _mat2mul(conj, _mat2mul(C.matrix(), inv))
    k2 = R[1][0]
    m2 = -R[0][1]
    L2 = (R[0][0].conjugate() - R[1][1]) / 2.0
    scale = max(abs(R[0][0]), abs(R[0][1]), abs(R[1][0]), abs(R[1][1]), 1e-300)
    residue = max(abs(k2.imag), abs(m2.imag), abs(R[0][0].conjugate() + R[1][1]) / 2.0)
    if residue > tol.eps_product * scale:
        raise NumericalBreakdown(f"imaginary residue {residue!r} exceeds tolerance at scale {scale!r}")
    return mx.Cycle(k2.real, L2.real, L2.imag, m2.real)
