"""Covariance properties: answers that must not depend on how a triple
is written down.

A cycle is a point of projective space, so scaling one cycle by 2^k or
negating it changes nothing, exactly in floats; and every Moebius image
of a triple describes the image curve, so two images of one triple
agree on what their curve is.  Both properties are derandomized, so the
suite tests the same examples on every run."""

import cmath
import math
import sys

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import moeblox as mx
from conftest import random_moebius

TWO_PI = 2 * math.pi
EPS = sys.float_info.epsilon
pt = mx.ExtendedPoint.from_complex

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)


def outcome(f, *args):
    """The repr of f's answer, or the name of the refusal it raised."""
    try:
        return repr(f(*args))
    except mx.MoebloxError as exc:
        return f"{type(exc).__name__}: {exc}"


def cond(G: mx.MoebiusMap) -> float:
    """Frobenius condition number |G|^2 / |det G| of the map's matrix."""
    return sum(abs(e) ** 2 for e in G) / abs(G.det)


class TestProjectiveRepresentative:
    @PROPERTY
    @given(
        lt=st.floats(0.3, 2.0),
        chirality=st.sampled_from([1, -1]),
        seed=st.integers(0, 2**32 - 1),
        which=st.integers(0, 2),
        k=st.integers(-1000, 1000),
        negate=st.booleans(),
    )
    def test_scaled_or_negated_cycle_answers_bit_for_bit(self, lt, chirality, seed, which, k, negate):
        # one cycle of a moved query_fresh-style triple multiplied by
        # +-2^k, wherever that is exact: no component leaves the normal range
        lt *= chirality
        G = random_moebius(np.random.default_rng(seed))
        T = mx.apply_map(G, mx.standard_triple(mx.SlsParameter.finite(lt)))
        factor = -1.0 if negate else 1.0
        scaled = [math.ldexp(factor * x, k) for x in T[which]]
        assume(all(x == 0 or sys.float_info.min <= abs(x) < math.inf for x in scaled))
        U = mx.LoxodromeTriple(*(mx.Cycle(*scaled) if i == which else C for i, C in enumerate(T[:3])), T.sign)
        points = [mx.apply_to_point(G, pt(b * cmath.exp(complex(lt, TWO_PI) * t))) for b, t in ((1, -0.7), (-1, 0.8))]

        def answers(triple):
            out = [outcome(mx.lambda_from_triple, triple), outcome(mx.standard_map, triple)]
            for p in points:
                out += [outcome(mx.contains_point, triple, p), outcome(mx.tangent_line_at, triple, p)]
            return out

        assert answers(U) == answers(T)


BANDS = [(1e-4, 1e-2), (1e-2, 0.25), (0.25, 2.5), (2.5, 10.0), (10.0, 11.0), (11.0, 30.0)]


class TestTwoImages:
    @PROPERTY
    @given(band=st.sampled_from(BANDS), u=st.floats(0.0, 1.0), chirality=st.sampled_from([1, -1]),
           seed=st.integers(0, 2**32 - 1))
    def test_two_images_of_one_triple_agree(self, band, u, chirality, seed):
        # apply_map(G1, T0) and apply_map(G2, T0) for a standard triple T0
        # of |lambda_tilde| log-uniform in the band: the same shape, the same
        # lambda_tilde up to their conditioning, and, for |lambda_tilde| <= 10,
        # the same membership of each point w, asked as G1 w and G2 w
        lo, hi = band
        lt = chirality * lo * (hi / lo) ** u
        rng = np.random.default_rng(seed)
        G1, G2 = random_moebius(rng), random_moebius(rng)
        T0 = mx.standard_triple(mx.SlsParameter.finite(lt))
        T1, T2 = mx.apply_map(G1, T0), mx.apply_map(G2, T0)
        assert mx.Loxodrome(T1).shape is mx.Loxodrome(T2).shape

        l1, l2 = mx.lambda_from_triple(T1).lambda_tilde, mx.lambda_from_triple(T2).lambda_tilde
        # lambda_tilde is read off 1/cosh^2 lambda_tilde, so the moved
        # components' roundoff costs it up to cosh^2 lambda_tilde of eps
        assert l1 == l2 or abs(l1 - l2) <= 16 * EPS * (cond(G1) + cond(G2)) * math.cosh(lt) ** 2
        if abs(lt) > 10.0:
            return  # near the line limit the limit-point test splits (ROADMAP item 3)
        for i in range(4):
            t = rng.uniform(-2.0, 2.0)
            w = (1 if rng.uniform() < 0.5 else -1) * cmath.exp(complex(lt, TWO_PI) * t)
            if i % 2:
                w *= cmath.exp(0.01j)  # turned off the curve
            if abs(lt * t) > 13.0:
                continue
            p1, p2 = mx.apply_to_point(G1, pt(w)), mx.apply_to_point(G2, pt(w))
            assert outcome(mx.contains_point_oracle, T1, p1) == outcome(mx.contains_point_oracle, T2, p2)
