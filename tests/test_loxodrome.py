import cmath
import gc
import math
import random
import re
import sys
import threading
import tracemalloc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import moeblox as mx
from moeblox.errors import (
    InvalidInput,
    MoebloxError,
    NumericalBreakdown,
    PointNotOnCurve,
    SceneError,
    TripleViolation,
)
from conftest import (
    assert_projectively_equal,
    on_curve_point,
    projective_residual,
    random_moebius,
)
from pencil_route import _member_through

TWO_PI = 2 * math.pi
UNIT = mx.Cycle(1, 0, 0, -1)
REAL_AXIS = mx.Cycle(0, 0, 1, 0)
IMAG_AXIS = mx.Cycle(0, 1, 0, 0)
E_CIRCLE = mx.Cycle(1, 0, 0, -math.e**2)
pt = mx.ExtendedPoint.from_complex
INF = mx.ExtendedPoint.infinity()


def std(lt):
    return mx.standard_triple(mx.SlsParameter.finite(lt))


class TestSlsParameter:
    def test_turn_modulus(self):
        assert mx.SlsParameter.finite(1).a == pytest.approx(math.e)
        assert mx.SlsParameter.infinite().a == math.inf

    def test_rate(self):
        assert mx.SlsParameter.finite(1).rate == complex(1, TWO_PI)
        with pytest.raises(InvalidInput, match="^infinite parameter has no finite exponent$"):
            mx.SlsParameter.infinite().rate

    def test_infinity_is_the_line_parameter(self):
        assert mx.SlsParameter.infinite() == mx.SlsParameter(math.inf)
        assert mx.SlsParameter.finite(0) == mx.SlsParameter(0.0)
        for bad in (-math.inf, math.nan):
            with pytest.raises(InvalidInput):
                mx.SlsParameter(bad)
        with pytest.raises(InvalidInput):
            mx.SlsParameter.finite(math.inf)

    def test_turn_modulus_overflow_is_a_breakdown(self):
        # math.exp raises OverflowError, which is no MoebloxError
        assert mx.SlsParameter.finite(709.0).a < math.inf
        needle = r"^exp\(lambda_tilde\) overflows at SlsParameter\(lambda_tilde=710.0\)$"
        with pytest.raises(NumericalBreakdown, match=needle):
            mx.SlsParameter.finite(710.0).a


class TestDiagonalFlow:
    def test_identity_at_zero(self):
        M = mx.diagonal_flow(1 + TWO_PI * 1j, 0.0)
        assert (M.a, M.b, M.c, M.d) == (1, 0, 0, 1)

    def test_action_scales_by_e(self):
        M = mx.diagonal_flow(1 + TWO_PI * 1j, 1.0)
        z = mx.apply_to_point(M, pt(1)).as_complex()
        assert z == pytest.approx(math.e, abs=1e-12)

    def test_negative_branch_is_swap_composed(self):
        minus = mx.diagonal_flow(1 + TWO_PI * 1j, 0.0, branch=-1)
        assert mx.apply_to_point(minus, pt(1)).as_complex() == pytest.approx(-1)
        assert mx.apply_to_point(mx.BRANCH_SWAP, pt(1)).as_complex() == -1

    @pytest.mark.parametrize("t", [2000.0, -2000.0])  # the first entry overflows, then the second
    def test_overflow_is_a_breakdown(self, t):
        with pytest.raises(NumericalBreakdown, match=rf"^exp\(\+-lam t / 2\) overflows at lam=\(1\+0j\), t={t!r}$"):
            mx.diagonal_flow(1.0, t)


class TestStandardTriple:
    def test_generic(self):
        T = std(1.0)
        assert T.c1 == REAL_AXIS and T.c2 == UNIT
        assert T.c3.m == pytest.approx(-math.e**2)
        assert T.sign == 1
        assert std(-1.0).sign == -1

    def test_circle_degenerate(self):
        T = std(0.0)
        assert T.c2 == T.c3 == UNIT

    def test_line_degenerate(self):
        T = mx.standard_triple(mx.SlsParameter.infinite())
        assert T.c3 == mx.Cycle(0, 0, 0, 1)

    def test_radius_overflow_is_a_breakdown(self):
        # c3's m is -exp(2 lambda_tilde), which overflows past lambda_tilde = 354.89
        assert std(354.0).c3.m > -math.inf
        with pytest.raises(NumericalBreakdown, match=r"overflows at lambda_tilde=355.0$"):
            std(355.0)


class TestValidateTriple:
    def test_standard_is_valid(self):
        T = mx.LoxodromeTriple(REAL_AXIS, UNIT, E_CIRCLE, 1)
        assert mx.lambda_from_triple(T).lambda_tilde == pytest.approx(1.0, abs=1e-12)
        assert "_loxodrome" in vars(T)  # the first query checked it and kept its form

    def test_other_elliptic_member_is_valid(self):
        T = mx.LoxodromeTriple(IMAG_AXIS, UNIT, E_CIRCLE, 1)
        assert mx.lambda_from_triple(T).lambda_tilde == pytest.approx(1.0, abs=1e-12)

    def test_non_orthogonal_first_cycle(self):
        with pytest.raises(TripleViolation, match="^first and second cycle are not orthogonal$"):
            mx.lambda_from_triple(mx.LoxodromeTriple(UNIT, UNIT, E_CIRCLE, 1))

    def test_crossing_pair_rejected(self):
        with pytest.raises(TripleViolation, match="^second and third cycle neither disjoint nor equal$"):
            mx.lambda_from_triple(mx.LoxodromeTriple(REAL_AXIS, UNIT, mx.from_circle(1, 1), 1))

    def test_degenerate_kinds_validate(self):
        for param in (mx.SlsParameter.finite(0.0), mx.SlsParameter.infinite()):
            T = mx.standard_triple(param)
            assert mx.lambda_from_triple(mx.LoxodromeTriple(T.c1, T.c2, T.c3, T.sign)) == param

    def test_bad_sign(self):
        with pytest.raises(InvalidInput, match="^sign must be the int 1 or -1, got 2$"):
            mx.LoxodromeTriple(REAL_AXIS, UNIT, E_CIRCLE, 2)

    @pytest.mark.parametrize("sign", [True, 1.0, -1.0])
    def test_sign_must_be_an_int(self, sign):
        # to_json writes the sign as given, and a scene takes only the int
        with pytest.raises(InvalidInput, match=r"^sign must be the int 1 or -1, got (True|1\.0|-1\.0)$"):
            mx.LoxodromeTriple(REAL_AXIS, UNIT, E_CIRCLE, sign)

    def test_queries_refuse_an_invalid_triple(self):
        # c1 is the line x = -0.3, which misses the limit points 0 and
        # infinity: every query checks the triple and raises its first
        # violation, and no form is kept on it
        T, p = mx.LoxodromeTriple(mx.Cycle(0, 1, 0, 0.6), UNIT, mx.Cycle(1, 0, 0, -7.38905609893065)), pt(1)
        assert len(mx.Loxodrome(T).violations()) == 3
        for query in (
            lambda: mx.lambda_from_triple(T),
            lambda: mx.contains_point(T, p),
            lambda: mx.contains_point_oracle(T, p),
            lambda: mx.intersection_angle(T, std(1.0), p),
            lambda: mx.tangent_check(T, UNIT, p),
            lambda: mx.tangent_line_at(T, p),
            lambda: mx.equivalent(std(1.0), T),
            lambda: mx.standard_map(T),
            lambda: mx.sample_curve(T, -1.0, 1.0, 8),
        ):
            with pytest.raises(TripleViolation, match="^first and second cycle are not orthogonal$"):
                query()
        assert "_loxodrome" not in vars(T)

    def test_a_moved_invalid_triple_is_refused_by_its_queries(self):
        # apply_map checks nothing: the image of the invalid triple above
        # holds no form, has the same violations, and every query refuses it
        M = mx.MoebiusMap(1, 2j, 0.5, 1)
        T = mx.LoxodromeTriple(mx.Cycle(0, 1, 0, 0.6), UNIT, mx.Cycle(1, 0, 0, -7.38905609893065))
        U, p = mx.apply_map(M, T), mx.apply_to_point(M, pt(1))
        assert vars(U) == {}
        messages = [str(v) for v in mx.Loxodrome(U).violations()]
        assert messages == [str(v) for v in mx.Loxodrome(T).violations()] and len(messages) == 3
        for query in _questions(U, mx.DEFAULT_TOLERANCES, [p]):
            with pytest.raises(TripleViolation, match="^first and second cycle are not orthogonal$"):
                query()
        assert vars(U) == {}

    def test_disjoint_pair_whose_parameter_rounds_to_zero(self):
        # at eps_product 1e-30 these concentric circles pass as disjoint;
        # acosh of their normalised product rounds to 0, but asinh of the
        # pencil's orthogonal frame recovers the parameter, log r3
        tol = mx.Tolerances(eps_product=1e-30)
        T = mx.LoxodromeTriple(REAL_AXIS, UNIT, mx.Cycle(1, 0, 0, -(1 + 3.9890575444857154e-08)))
        assert mx.Loxodrome(T, tol).violations() == []
        lt = mx.lambda_from_triple(T, tol).lambda_tilde
        assert lt == pytest.approx(0.5 * math.log(-T.c3.m), rel=1e-8)
        assert lt == pytest.approx(1.9945e-8, rel=1e-4)
        assert mx.contains_point(T, pt(1), tol).member
        assert len(mx.sample_curve(T, -1.0, 1.0, 8, tol=tol)) == 8

    def test_orthogonality_violations_read_is_orthogonal(self, rng):
        # c1 moved off the real axis by up to 1e-6 of its size, then with
        # the triple by a seeded map: a violation names c1 and c2 (or c3)
        # exactly when is_orthogonal refuses their canonical cycles
        seen = set()
        for _ in range(400):
            nudge = mx.Cycle(*(10 ** rng.uniform(-12, -6) * rng.standard_normal() for _ in range(4)))
            c1 = mx.Cycle(*(a + b for a, b in zip(REAL_AXIS, nudge)))
            G = random_moebius(rng)
            lox = mx.Loxodrome(mx.LoxodromeTriple(*(mx.apply_to_cycle(G, C) for C in (c1, UNIT, E_CIRCLE))))
            names = {str(v) for v in lox.violations()}
            for name, C in (("second", lox._c2), ("third", lox._c3)):
                found = f"first and {name} cycle are not orthogonal" in names
                assert found == (not mx.is_orthogonal(lox._c1, C, lox.tol))
                seen.add(found)
        assert seen == {True, False}

    def test_violation_report_carries_residual(self):
        violations = mx.Loxodrome(mx.LoxodromeTriple(UNIT, UNIT, E_CIRCLE)).violations()
        assert violations and violations[0].residual == pytest.approx(2.0)

    MISSES = (TripleViolation, "first cycle misses a limit point of the pencil")

    @pytest.mark.parametrize(
        "triple,expected",
        [
            pytest.param(
                (mx.zero_radius_at(1), UNIT, E_CIRCLE),
                [
                    (TripleViolation, "first cycle must be a line or proper circle"),
                    (TripleViolation, "first and third cycle are not orthogonal"),
                    MISSES,
                    MISSES,
                ],
                id="c1-point",
            ),
            pytest.param(
                (REAL_AXIS, mx.zero_radius_at(1), E_CIRCLE),
                [(TripleViolation, "second cycle must be a line or proper circle")],
                id="c2-point",
            ),
            pytest.param(
                (REAL_AXIS, UNIT, mx.Cycle(1, 0, 0, 1)),
                [(TripleViolation, "third cycle has no real locus")],
                id="c3-imaginary",
            ),
            pytest.param(
                (UNIT, UNIT, E_CIRCLE),
                [
                    (TripleViolation, "first and second cycle are not orthogonal"),
                    (TripleViolation, "first and third cycle are not orthogonal"),
                    MISSES,
                    MISSES,
                ],
                id="c1-not-orthogonal",
            ),
            pytest.param(
                (REAL_AXIS, UNIT, mx.zero_radius_at(1)),
                [(TripleViolation, "third (point) cycle lies on the second cycle")],
                id="point-c3-on-c2",
            ),
            # <c3,c3> is roundoff of either sign, not 0: the pencil alone reads either shape
            pytest.param(
                (REAL_AXIS, mx.from_circle(0, 0.1), mx.zero_radius_at(0.1)),
                [(TripleViolation, "third (point) cycle lies on the second cycle")],
                id="inexact-point-c3-on-c2",
            ),
            *(
                pytest.param(
                    tuple(mx.apply_to_cycle(mx.MoebiusMap(*G), C) for C in (REAL_AXIS, UNIT, mx.zero_radius_at(1))),
                    [(TripleViolation, "third (point) cycle lies on the second cycle")],
                    id=f"moved-point-c3-on-c2-{name}",
                )
                for name, G in (("line", (1, 2j, 0.5, 1)), ("spiral", (1, 1, 1, 0.1)))
            ),
            pytest.param((REAL_AXIS, UNIT, mx.zero_radius_at(0)), [], id="point-c3-off-c2"),
            pytest.param(
                (REAL_AXIS, UNIT, mx.from_circle(1, 1)),
                [(TripleViolation, "second and third cycle neither disjoint nor equal")],
                id="crossing",
            ),
            pytest.param((REAL_AXIS, UNIT, E_CIRCLE), [], id="valid"),
            pytest.param((REAL_AXIS, UNIT, 2 * UNIT), [], id="coincident"),
        ],
    )
    def test_violation_table(self, triple, expected):
        found = [(type(v), str(v)) for v in mx.Loxodrome(mx.LoxodromeTriple(*triple)).violations()]
        assert found == expected


class TestLambdaFromTriple:
    def test_standard(self):
        param = mx.lambda_from_triple(std(1.0))
        assert param.lambda_tilde == pytest.approx(1.0, abs=1e-12)

    def test_sign_channel(self):
        assert mx.lambda_from_triple(std(-2.0)).lambda_tilde == pytest.approx(-2.0)

    def test_coincident_gives_zero(self):
        assert mx.lambda_from_triple(std(0.0)).lambda_tilde == 0.0

    def test_point_third_gives_infinite(self):
        T = mx.standard_triple(mx.SlsParameter.infinite())
        assert mx.lambda_from_triple(T).lambda_tilde == math.inf

    def test_invariant_under_transforms(self, rng):
        T0 = std(1.0)
        for _ in range(100):
            T = mx.apply_map(random_moebius(rng), T0)
            assert abs(mx.lambda_from_triple(T).lambda_tilde) == pytest.approx(
                1.0, abs=1e-8
            )

    def test_crossing_pair_raises_domain_error(self):
        # the query checks the triple first; the unchecked form's crossing
        # pencil has no parameter, and says so
        T = mx.LoxodromeTriple(REAL_AXIS, UNIT, mx.from_circle(1, 1), 1)
        with pytest.raises(TripleViolation, match="^second and third cycle neither disjoint nor equal$"):
            mx.lambda_from_triple(T)
        with pytest.raises(
            NumericalBreakdown, match="^second and third cycle are not disjoint: their pencil has no spiral parameter$"
        ):
            mx.Loxodrome(T).param


class TestStandardMap:
    def test_standard_is_identity(self):
        M = mx.standard_map(std(1.0))
        for z in (0.5, 2 + 1j, -3j):
            assert mx.apply_to_point(M, pt(z)).as_complex() == pytest.approx(
                z, abs=1e-12
            )

    def test_translated_standard(self):
        shift = mx.MoebiusMap(1, 2, 0, 1)
        T = mx.apply_map(shift, std(1.0))
        M = mx.standard_map(T)
        for z in (2, 3, 2 + 1j):
            assert mx.apply_to_point(M, pt(z)).as_complex() == pytest.approx(
                z - 2, abs=1e-10
            )

    def test_negative_sign_swaps_labels(self):
        T = mx.LoxodromeTriple(REAL_AXIS, UNIT, E_CIRCLE, -1)
        M = mx.standard_map(T)
        assert mx.apply_to_point(M, pt(1)).as_complex() == pytest.approx(1, abs=1e-12)
        assert mx.apply_to_point(M, pt(0)).is_infinity
        img3 = mx.apply_to_cycle(M, T.c3)
        _, r = mx.center_radius(mx.canonicalize(img3))
        assert r == pytest.approx(math.exp(-1), abs=1e-12)

    @staticmethod
    def reference_map(T, tol=mx.DEFAULT_TOLERANCES):
        """``standard_map`` as first written: build the map, apply it to
        c3 and build the other one when the radius of the image is on
        the wrong side of 1 for the chirality."""
        from map_route import _point_sort_key, intersect, map_to_zero_one_inf

        p, q = mx.Loxodrome(T, tol).limit_points
        u = max(intersect(T.c1, T.c2, tol), key=_point_sort_key)
        M = map_to_zero_one_inf(p, u, q, tol)
        _, r3 = mx.center_radius(mx.canonicalize(mx.apply_to_cycle(M, T.c3), tol), tol)
        if (r3 > 1.0) != (T.sign > 0):
            M = map_to_zero_one_inf(q, u, p, tol)
        return M

    def test_orientation_read_off_products_matches_the_image_of_c3(self, rng):
        # the rule r3^2 = <c3,P><c2,Q> / (<c3,Q><c2,P>) against the image
        # of c3, over both signs and |lambda_tilde| in [1e-4, 8], with c1
        # a circle, a line, and a line through a limit point at infinity
        seen = set()
        for i in range(1200):
            lt = 10 ** rng.uniform(-4.0, math.log10(8.0)) * (1 if i % 2 else -1)
            a, b = (complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(2))
            x = rng.uniform(0.2, 3.0) * (1 if rng.uniform() < 0.5 else -1)
            M = [random_moebius(rng), mx.MoebiusMap(a, b, 1, -x), mx.MoebiusMap(a, b, 0, 1)][i % 3]
            if i % 3 == 2 and rng.uniform() < 0.5:
                M = M @ mx.MoebiusMap(0, 1, 1, 0)  # the limit point 0 goes to infinity
            T0 = std(lt)
            T = mx.LoxodromeTriple(*(mx.apply_to_cycle(M, C) for C in T0[:3]), T0.sign)
            lox = mx.Loxodrome(T)
            seen.add((mx.classify(lox._c1), any(p.is_infinity for p in lox.limit_points)))
            got, want = mx.standard_map(T), self.reference_map(T)
            # the one limit point goes to 0 under both maps, or to infinity under both
            p = lox.limit_points[0]
            assert [abs(mx.apply_to_point(N, p).w1) < 1.0 for N in (got, want)] in ([True] * 2, [False] * 2)
            assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-10 * max(map(abs, want))
        line, circle = mx.CycleKind.LINE, mx.CycleKind.CIRCLE
        assert seen == {(circle, False), (line, False), (line, True)}

    def test_degenerate_rejected(self):
        message = "^normal form needs a spiral: second and third cycle are coincident or of line shape$"
        with pytest.raises(TripleViolation, match=message):
            mx.standard_map(std(0.0))
        with pytest.raises(TripleViolation, match=message):
            mx.standard_map(mx.standard_triple(mx.SlsParameter.infinite()))
        with pytest.raises(TripleViolation, match=message):  # c3 the circle of radius e^12
            mx.standard_map(std(12.0))

    def test_roundtrip_random(self, rng):
        for lt in (0.5, 1.0, 2.0):
            for sign in (1, -1):
                T0 = std(sign * lt)
                for _ in range(20):
                    T = mx.apply_map(random_moebius(rng), T0)
                    M = mx.standard_map(T)
                    back = mx.apply_map(M, T)
                    ref = mx.standard_triple(mx.lambda_from_triple(T))
                    for a, b in ((back.c1, ref.c1), (back.c2, ref.c2), (back.c3, ref.c3)):
                        assert projective_residual(a, b) <= 1e-8


def turn_residual(M, G, lt):
    """The worst distance in turns from the model curve of model points
    pushed back through M and then through G^-1, at 40 digits: 0 when M
    takes the curve G(model) to standard position exactly."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        def inverse(N):
            a, b, c, d = (mpmath.mpc(e.real, e.imag) for e in N)
            return lambda w: (d * w - b) / (a - c * w)

        back, model = inverse(M), inverse(G)
        rate, worst = mpmath.mpc(lt, 2 * mpmath.pi), 0
        for t in range(-4, 5):
            for branch in (1, -1):
                v = model(back(branch * mpmath.exp(rate * t / 4)))
                x = mpmath.log(abs(v)) / lt - mpmath.arg(v) / (2 * mpmath.pi)
                worst = max(worst, abs(x - mpmath.nint(2 * x) / 2))
        return float(worst)


class TestMapRouteReference:
    """``Loxodrome._map`` reads the crossing off the frame of the limit
    points; ``tests/map_route.py`` solves for it with ``intersect`` and
    builds the map through three points with ``map_to_zero_one_inf``."""

    def test_same_map_as_the_reference_route(self, rng):
        # |lambda_tilde| in three bands, both signs, well-conditioned maps.
        # Both routes take the same limit point to 0 and the same crossing
        # to 1. Where the entries part by more than 1e-12 of the largest,
        # the map read off the frame pushes the model curve at least as
        # close to the known curve, up to 64 eps / |lambda_tilde| turns:
        # lhs = log|w| / lambda_tilde turns a few ulps of the triple's own
        # rounding, which both routes share, into that much.
        import map_route

        pytest.importorskip("mpmath")
        parted = []
        for i in range(1500):
            lo, hi = [(1e-4, 1e-2), (0.25, 2.5), (2.5, 8.0)][i % 3]
            lt = math.exp(rng.uniform(math.log(lo), math.log(hi))) * (1 if i % 2 else -1)
            G, T0 = random_moebius(rng), std(lt)
            T = mx.LoxodromeTriple(*(mx.apply_to_cycle(G, C) for C in T0[:3]), T0.sign)
            got, want = mx.standard_map(T), map_route.normalising_map(mx.Loxodrome(T))
            N = got @ want.inverse()
            assert abs(N.b / N.d) < 0.5, (G, lt)  # 0 stays at 0
            assert abs((N.a + N.b) / (N.c + N.d) - 1) < 0.5, (G, lt)  # 1 stays at 1
            gap = max(abs(g - w) for g, w in zip(got, want)) / max(map(abs, want))
            if gap > 1e-12:
                parted.append(gap)
                floor = 64 * sys.float_info.epsilon / abs(lt)
                assert turn_residual(got, G, lt) <= turn_residual(want, G, lt) + floor, (G, lt)
        assert parted  # the seed reaches triples where the routes part

    def test_crossing_at_infinity(self):
        # c1 and c2 are lines, so they cross at 0 and at infinity; the
        # reference sorts infinity last and takes it to 1, as the frame does
        import map_route

        T = mx.LoxodromeTriple(REAL_AXIS, IMAG_AXIS, mx.Cycle(1, 3, 0, 8), 1)
        lox = mx.Loxodrome(T)
        assert mx.lambda_from_triple(T).lambda_tilde == pytest.approx(math.acosh(3), rel=1e-14)
        root8 = 2 * math.sqrt(2)
        assert sorted(p.as_complex().real for p in lox.limit_points) == pytest.approx([-root8, root8])
        crossings = map_route.intersect(lox._c1, lox._c2, lox.tol)
        assert [p.is_infinity for p in crossings] == [False, True]
        got, want = mx.standard_map(T), map_route.normalising_map(lox)
        assert mx.apply_to_point(got, INF).approx_eq(pt(1))
        assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12 * max(map(abs, want))

    def test_small_lambda_point_is_a_member(self):
        # an on-curve point at lambda_tilde = -5.2e-4, model t = -1.793 on
        # the + branch: the route through intersect read lhs -1.8335 and
        # refused it; lhs here is -1.7930000006
        lt = -5.225923175830076e-4
        G = mx.MoebiusMap(0.00711 + 0.01455j, 0.01404 - 0.02683j, -0.00183 + 0.00607j, 0.01029 - 0.03413j)
        T = mx.apply_map(G, std(lt))
        p = mx.apply_to_point(G, pt(cmath.exp(complex(lt, TWO_PI) * -1.793)))
        report = mx.contains_point(T, p)
        assert report.member
        assert report.lhs == pytest.approx(-1.793, abs=1e-6)

    def test_normal_form_round_trip_of_a_fresh_triple(self):
        # a query_fresh triple of bench seed 1 whose normal form the route
        # through intersect left 2.5e-8 off the standard triple (1.25e-8 by
        # the benchmark's residual); it is 4.6e-16 off here
        G = mx.MoebiusMap(
            0.8935214245416616 - 1.2448487830047772j, 0.3501189167418781 - 1.3473014405286468j,
            1.6003189145123349 + 0.9217783307406426j, 0.028877074356604915 + 0.016759554530695553j,
        )
        lt = -0.3522738728184313
        copy_map = mx.MoebiusMap(
            0.21316853684840695 - 0.9572137204514986j, -1.3296215699550473 + 1.7214350930831377j,
            0.020745173383707557 + 0.011085033499192862j, -2.2243052866315938 - 1.3874260949411612j,
        )
        T = mx.apply_map(G, std(lt))
        back = mx.apply_map(mx.standard_map(T), T)
        for got, want in zip(back[:3], std(mx.lambda_from_triple(T).lambda_tilde)[:3]):
            assert projective_residual(got, want) <= 1e-12
        assert mx.equivalent(T, mx.apply_map(copy_map, std(lt)))

    def test_invalid_triples_answer_or_refuse(self, rng):
        # c1 off the limit points, equal to c2, tangent to c2 or disjoint
        # from it, moved by a seeded map: every query refuses the triple
        for i in range(400):
            lt = rng.uniform(0.3, 2.0) * (1 if i % 2 else -1)
            z = cmath.exp(1j * rng.uniform(0.0, TWO_PI))
            c1 = [
                mx.from_line(complex(0.0, rng.uniform(-0.9, 0.9)), complex(1.0, rng.uniform(-0.9, 0.9))),
                UNIT,
                mx.from_line(z, z + 1j * z),
                mx.from_circle(complex(rng.uniform(3.0, 4.0), 0.0), rng.uniform(0.5, 1.5)),
            ][i % 4]
            G, T0 = random_moebius(rng), std(lt)
            T = mx.LoxodromeTriple(*(mx.apply_to_cycle(G, C) for C in (c1, T0.c2, T0.c3)), T0.sign)
            p = mx.apply_to_point(G, pt(cmath.exp(complex(lt, TWO_PI) * rng.uniform(-1.0, 1.0))))
            for query in (
                lambda: mx.standard_map(T),
                lambda: mx.contains_point(T, p),
                lambda: mx.tangent_line_at(T, p),
                lambda: mx.intersection_angle(T, T, p),
                lambda: mx.sample_curve(T, -1.0, 1.0, 8, "both"),
            ):
                with pytest.raises(TripleViolation):
                    query()


class TestLoxodromePair:
    def test_roundtrip(self, rng):
        T = mx.apply_map(random_moebius(rng), std(1.3))
        lox = mx.Loxodrome(T)
        again = mx.apply_map(lox.map.inverse(), mx.standard_triple(lox.param))
        assert mx.equivalent(T, again)

    def test_degenerate_roundtrip(self):
        T = std(0.0)
        lox = mx.Loxodrome(T)
        back = mx.apply_map(lox.map.inverse(), mx.standard_triple(lox.param))
        assert_projectively_equal(back.c2, T.c2)


class TestEquivalence:
    def test_flow_shift_accepted(self, rng):
        T0 = std(1.0)
        for _ in range(30):
            t = rng.uniform(-2, 2)
            eps = int(rng.integers(0, 2))
            stab = mx.diagonal_flow(1 + TWO_PI * 1j, t)
            if eps:
                stab = stab @ mx.BRANCH_SWAP
            G = random_moebius(rng)
            A = mx.apply_map(G, T0)
            B = mx.apply_map(G @ stab, T0)
            assert mx.equivalent(A, B)

    def test_lambda_mismatch_rejected(self):
        assert not mx.equivalent(std(1.0), std(2.0))

    def test_elliptic_only_shift_rejected(self):
        rot = mx.MoebiusMap(cmath.exp(1j * math.pi / 3), 0, 0, 1)
        T = mx.LoxodromeTriple(
            mx.apply_to_cycle(rot, REAL_AXIS), UNIT, E_CIRCLE, 1
        )
        assert not mx.equivalent(std(1.0), T)

    def test_half_turn_of_line_accepted(self):
        rot = mx.MoebiusMap(cmath.exp(1j * math.pi), 0, 0, 1)
        T = mx.LoxodromeTriple(
            mx.apply_to_cycle(rot, REAL_AXIS), UNIT, E_CIRCLE, 1
        )
        assert mx.equivalent(std(1.0), T)

    def test_mirror_sign_rejected(self):
        T = std(1.0)
        mirror = mx.LoxodromeTriple(T.c1, T.c2, T.c3, -1)
        assert not mx.equivalent(T, mirror)

    def test_degenerate_rejected(self):
        with pytest.raises(TripleViolation, match="^equivalence needs non-degenerate triples$"):
            mx.equivalent(std(0.0), std(0.0))

    def test_other_pencil_rejected(self):
        # a translate keeps lambda_tilde and sign but moves the limit points,
        # so its spanning pair leaves the span of the original's
        T, moved = std(1.0), mx.apply_map(mx.MoebiusMap(1, 1, 0, 1), std(1.0))
        assert mx.lambda_from_triple(moved) == mx.lambda_from_triple(T)
        assert mx.Loxodrome(moved).limit_points != mx.Loxodrome(T).limit_points
        assert not mx.equivalent(T, moved)

    def test_nearby_small_lambda_is_another_curve(self):
        # lambda_tilde is compared on itself, not on cosh lambda_tilde,
        # which rounds to 1 + lambda_tilde^2 / 2 and cannot tell these apart
        rng = random.Random(13)
        for i in range(300):
            lt = math.copysign(10 ** rng.uniform(-4, -2), rng.random() - 0.5)
            G = random_moebius(rng)
            T = mx.apply_map(G, std(lt))
            stab = mx.diagonal_flow(complex(lt, TWO_PI), rng.uniform(-1, 1))
            assert mx.equivalent(T, mx.apply_map(G @ (stab @ mx.BRANCH_SWAP if i % 3 == 0 else stab), std(lt)))
            for delta in (1e-3, 1e-5, 1e-7):
                assert not mx.equivalent(T, mx.apply_map(G, std(lt * (1 + delta)))), (lt, delta)


# a map of condition 1,940 that takes the standard triple of lambda_tilde
# 1.0378 to c2 and c3 of radius about 2e-3, 0.22 from the other limit point
FAR_SMALL_MAP = mx.MoebiusMap(
    -19.695279956757574 + 13.896534898321013j,
    -0.001918079586989496 + 0.050424794820567616j,
    -28.38978268153267 + 16.126440834737117j,
    0.012595612209748372 + 0.07419242873988832j,
)


def squeezed_moebius(rng):
    """``random_moebius`` after diag(s, 1/s), log10 s in [0, 1.5]: its
    condition is up to 1e3 times that of the map."""
    s = 10 ** rng.uniform(0, 1.5)
    return random_moebius(rng) @ mx.MoebiusMap(s, 0, 0, 1 / s)


def chordal(z, w):
    """Chordal distance of two points of the extended plane, None for infinity."""
    if z is None or w is None:
        return 0.0 if z is w else 1 / math.sqrt(1 + abs(w if z is None else z) ** 2)
    return abs(z - w) / math.sqrt((1 + abs(z) ** 2) * (1 + abs(w) ** 2))


def limit_point_error(G, T):
    """Chordal error of T's limit points, as a set, against G(0) and G(infinity)."""
    got = [None if p.is_infinity else p.as_complex() for p in mx.Loxodrome(T).limit_points]
    known = [G.b / G.d if G.d else None, G.a / G.c if G.c else None]
    return min(
        max(chordal(got[0], known[0]), chordal(got[1], known[1])),
        max(chordal(got[0], known[1]), chordal(got[1], known[0])),
    )


class TestLimitPointAccuracy:
    """The self-products of small circles far from the other limit point
    cancel; ``zero_radius_members`` forms them compensated."""

    def test_small_circles_far_from_the_other_limit_point(self):
        T = mx.apply_map(FAR_SMALL_MAP, std(1.0378))
        got = [p.as_complex() for p in mx.Loxodrome(T).limit_points]
        for known in (FAR_SMALL_MAP.b / FAR_SMALL_MAP.d, FAR_SMALL_MAP.a / FAR_SMALL_MAP.c):
            assert min(abs(z - known) for z in got) <= 1e-9

    def test_squeezed_maps(self):
        rng = random.Random(20261019)
        worst = 0.0
        for _ in range(300):
            G = squeezed_moebius(rng)
            T = mx.apply_map(G, std(rng.uniform(0.25, 2.5) * rng.choice((1, -1))))
            worst = max(worst, limit_point_error(G, T))
        assert worst <= 1e-8


class TestSmallLambdaSqueezed:
    """|lambda_tilde| log-uniform in [1e-4, 1e-2] under squeezed maps: c2
    and c3 are nearby small circles, some with canonical forms within
    eps_product of each other, and their pair product rounds near 1.  The
    orthogonal frame of their pencil reads them as a spiral, with its
    parameter; the limit-point check still refuses some (about 1 in 9)."""

    def test_no_circle_and_lambda_within_1e_6(self):
        from moeblox.loxodrome import CurveKind

        rng = random.Random(7)
        checked = 0
        for _ in range(300):
            lt = math.copysign(10 ** rng.uniform(-4, -2), rng.random() - 0.5)
            G, T0 = squeezed_moebius(rng), std(lt)
            lox = mx.Loxodrome(mx.LoxodromeTriple(*(mx.apply_to_cycle(G, C) for C in T0[:3]), T0.sign))
            assert lox.shape is CurveKind.SPIRAL
            if not lox.violations():
                checked += 1
                assert lox.param.lambda_tilde == pytest.approx(lt, rel=1e-6)
        assert checked >= 250


def sweep_pair(rng, kind, G, lt, shift=None):
    """T moved by G and a copy of kind "true" (moved along the stabiliser),
    "rotated" or "twisted" (c1 turned about 0 in standard position),
    "perturbed" (lambda_tilde changed) or "shifted" (the limit point 0
    moved, by ``shift`` if given), with the copy's expected equivalence."""
    lam, Gp = lt, G
    if kind == "true":
        Gp = G @ mx.diagonal_flow(complex(lt, TWO_PI), rng.uniform(-1, 1))
        if rng.random() < 0.5:
            Gp = Gp @ mx.BRANCH_SWAP
    elif kind in ("rotated", "twisted"):
        angle = rng.uniform(0.05, math.pi - 0.05) if kind == "rotated" else rng.choice((1e-3, 1e-4, 1e-5))
        Gp = G @ mx.MoebiusMap(cmath.exp(1j * angle), 0, 0, 1)
    elif kind == "perturbed":
        lam = lt * (1 + rng.choice((1e-3, 1e-5)))
    else:
        eps = shift or rng.choice((1e-3, 1e-5, 1e-6, 1e-7, 1e-8))
        Gp = G @ mx.MoebiusMap(1, eps * cmath.exp(1j * rng.uniform(0, TWO_PI)), 0, 1)
    return mx.apply_map(G, std(lt)), mx.apply_map(Gp, std(lam)), kind == "true"


class TestEquivalenceSweep:
    """Seeded pairs with |lambda_tilde| in [0.25, 2.5]."""

    @pytest.mark.parametrize("kind", ["true", "rotated", "perturbed", "shifted", "twisted"])
    def test_well_conditioned_maps(self, kind):
        rng = random.Random(11)
        for _ in range(60):
            lt = rng.uniform(0.25, 2.5) * rng.choice((1, -1))
            T, Tp, want = sweep_pair(rng, kind, random_moebius(rng), lt)
            assert mx.equivalent(T, Tp) is want

    @pytest.mark.parametrize("eps", [1e-7, 1e-8])
    def test_nearby_pencils_under_squeezed_maps_refused(self, eps):
        # limit point 0 moved by eps: the span test took such pencils as one
        rng = random.Random(11)
        for _ in range(150):
            lt = rng.uniform(0.25, 2.5) * rng.choice((1, -1))
            try:
                T, Tp, _ = sweep_pair(rng, "shifted", squeezed_moebius(rng), lt, eps)
            except TripleViolation:
                continue  # a copy refused as invalid is no answer
            assert not mx.equivalent(T, Tp)


class TestMembership:
    def test_point_one(self):
        rep = mx.contains_point(std(1.0), pt(1))
        assert rep.member
        assert rep.lhs == pytest.approx(0.0, abs=1e-9)
        assert rep.rhs == pytest.approx(0.0, abs=1e-9)

    def test_point_on_minus_branch(self):
        rep = mx.contains_point(std(1.0), pt(-math.exp(0.5)))
        assert rep.member
        assert rep.lhs == pytest.approx(0.5, abs=1e-9)
        assert rep.rhs in (pytest.approx(0.0, abs=1e-9), pytest.approx(0.5, abs=1e-9))

    def test_off_curve_point(self):
        rep = mx.contains_point(std(1.0), pt(math.exp(0.1) * 1j))
        assert not rep.member
        assert rep.lhs == pytest.approx(0.1, abs=1e-6)
        assert rep.rhs == pytest.approx(0.25, abs=1e-9)

    def test_fold_accepts_half_turn_offset(self):
        # lhs and rhs differ by 1/2, not by a whole turn: only the fold
        # modulo 1/2 puts this point of the second branch on the curve
        p = pt(-cmath.exp(0.75 * (1 + TWO_PI * 1j)))
        folded = mx.contains_point(std(1.0), p)
        assert folded.member
        assert mx.contains_point_oracle(std(1.0), p)
        assert folded.lhs == pytest.approx(0.75, abs=1e-9)
        assert folded.rhs == pytest.approx(0.25, abs=1e-9)

    def test_limit_points_flagged(self):
        for p in (pt(0), INF):
            rep = mx.contains_point(std(1.0), p)
            assert not rep.member and "limit_point" in rep.flags

    def test_circle_degenerate_incidence(self):
        T = std(0.0)
        assert mx.contains_point(T, pt(1j)).member
        assert not mx.contains_point(T, pt(2j)).member

    def test_line_degenerate_incidence(self):
        T = mx.standard_triple(mx.SlsParameter.infinite())
        rep = mx.contains_point(T, pt(3))
        assert rep.member and rep.flags == ()
        assert not mx.contains_point(T, pt(1j)).member
        assert "limit_point" in mx.contains_point(T, pt(0)).flags

    def test_report_json_shape(self):
        rep = mx.contains_point(std(1.0), pt(1))
        assert set(rep.to_json()) == {"member", "lhs", "rhs", "flags"}

    @pytest.mark.parametrize("moved", [False, True])
    def test_mirror_spiral_refused(self, moved):
        # conj(exp(t (1 + 2 pi i))) lies on the mirror spiral, which shares
        # all three cycles with this one: only the sign tells them apart
        M = mx.MoebiusMap(1, 2j, 0.5, 1) if moved else mx.MoebiusMap(1, 0, 0, 1)
        T = mx.apply_map(M, std(1.0))
        for branch in (1, -1):
            for t in (-0.7, -0.3, 0.1, 0.3, 0.55):
                w = branch * cmath.exp(t * complex(1.0, TWO_PI))
                assert mx.contains_point(T, mx.apply_to_point(M, pt(w))).member
                mirror = mx.apply_to_point(M, pt(w.conjugate()))
                assert not mx.contains_point(T, mirror).member, (branch, t)
                assert not mx.contains_point_oracle(T, mirror), (branch, t)


class TestMembershipOracle:
    def test_plus_branch(self):
        p = pt(math.exp(0.75) * cmath.exp(1.5j * math.pi))
        assert mx.contains_point_oracle(std(1.0), p)

    def test_minus_branch(self):
        p = pt(math.exp(0.75) * cmath.exp(0.5j * math.pi))
        assert mx.contains_point_oracle(std(1.0), p)

    def test_off_curve(self):
        p = pt(math.exp(0.1) * cmath.exp(0.5j * math.pi))
        assert not mx.contains_point_oracle(std(1.0), p)

    def test_degenerate_kinds(self):
        assert mx.contains_point_oracle(std(0.0), pt(1j))
        assert not mx.contains_point_oracle(std(0.0), pt(2j))
        inf_triple = mx.standard_triple(mx.SlsParameter.infinite())
        assert mx.contains_point_oracle(inf_triple, pt(-4))
        assert not mx.contains_point_oracle(inf_triple, pt(1j))

    def test_circle_shape_on_a_line(self):
        # the curve is c2, here the real axis: normalised by the Cayley map
        T = mx.LoxodromeTriple(UNIT, REAL_AXIS, REAL_AXIS)
        assert mx.Loxodrome(T).shape == mx.loxodrome.CurveKind.CIRCLE
        assert mx.contains_point_oracle(T, 5)
        assert not mx.contains_point_oracle(T, 1j)

    def test_agreement_with_procedure(self, rng):
        for _ in range(300):
            lt = rng.uniform(0.25, 2.5) * (1 if rng.uniform() < 0.5 else -1)
            M = random_moebius(rng)
            T = mx.apply_map(M, std(lt))
            p, _, _ = on_curve_point(rng, lt, M)
            assert mx.contains_point(T, p).member
            assert mx.contains_point_oracle(T, p)


def band_points(rng, lt_range, t_range, triples=400):
    """Triples moved by random maps, with 3 curve points each and each
    point rotated 0.05 rad off the curve: (T, p, on_curve) triples."""
    for _ in range(triples):
        lt = rng.uniform(*lt_range) * (1 if rng.uniform() < 0.5 else -1)
        M = random_moebius(rng)
        T = mx.apply_map(M, std(lt))
        for _ in range(3):
            w = (1 if rng.uniform() < 0.5 else -1) * cmath.exp(complex(lt, TWO_PI) * rng.uniform(*t_range))
            yield T, mx.apply_to_point(M, pt(w)), True
            yield T, mx.apply_to_point(M, pt(w * cmath.exp(0.05j))), False


class TestMembershipBands:
    """Membership beside the acceptance envelope (|lambda_tilde| in
    [0.25, 2.5], t in [-2, 2]), where the pencil route and the
    normal-form route once disagreed."""

    def test_pencil_route_agrees_inside_the_envelope(self, rng):
        import pencil_route

        for T, p, _ in band_points(rng, (0.25, 2.5), (-2.0, 2.0), triples=300):
            assert pencil_route.contains_point(T, p) == mx.contains_point(T, p).member, (T, p)

    @pytest.mark.parametrize(
        "lt_range,t_range", [((0.25, 2.5), (-6.0, 6.0)), ((1e-4, 1e-2), (-2.0, 2.0))], ids=["long", "slow"]
    )
    def test_every_answer_right(self, rng, lt_range, t_range):
        wrong = []
        for T, p, on_curve in band_points(rng, lt_range, t_range):
            answers = (mx.contains_point(T, p).member, mx.contains_point_oracle(T, p))
            if answers != (on_curve, on_curve):
                wrong.append((T, p, on_curve, answers))
        assert wrong == []


class TestIntersectionAngle:
    def test_at_infinity(self):
        # the point at infinity is a curve point here; the angle is taken
        # after a swap of 0 and infinity moves it into view
        w = cmath.exp(complex(1.0, TWO_PI) * 0.3)
        T = mx.apply_map(mx.MoebiusMap(1, 0, 1, -w), std(1.0))
        assert mx.contains_point(T, INF).member
        assert mx.intersection_angle(T, T, INF) == 0.0

    def test_at_infinity_prepares_each_swapped_triple_once(self, monkeypatch):
        # two spirals through infinity: the angle there is the one at 0
        # after the swap of 0 and infinity, as a conformal map keeps it,
        # and it is read off the kept forms, so no call builds a form or
        # moves a cycle once both triples are prepared
        import moeblox.loxodrome as lox

        w, v = (cmath.exp(complex(lt, TWO_PI) * 0.3) for lt in (1.0, 2.0))
        T = mx.apply_map(mx.MoebiusMap(1, 0, 1, -w), std(1.0))
        Tp = mx.apply_map(mx.MoebiusMap(1, 0, 1, -v), std(2.0))
        swap = mx.MoebiusMap(0, 1, 1, 0)
        swapped = mx.apply_map(swap, T)
        want = mx.intersection_angle(swapped, mx.apply_map(swap, Tp), pt(0))
        at_inf = mx.apply_to_cycle(swap, mx.tangent_line_at(swapped, pt(0)))
        mx.contains_point(T, INF), mx.contains_point(Tp, INF)  # both kept prepared
        built, moved = [], []
        prepare, move = mx.Loxodrome.__init__, lox._cycle_action
        monkeypatch.setattr(mx.Loxodrome, "__init__", lambda form, *a: built.append(a) or prepare(form, *a))
        monkeypatch.setattr(lox, "_cycle_action", lambda *a, **k: moved.append(a) or move(*a, **k))
        for _ in range(2):
            assert mx.intersection_angle(T, Tp, INF) == pytest.approx(want, abs=1e-12)
            assert mx.tangent_check(T, at_inf, INF)
        assert (built, moved) == ([], [])

    def test_documented_value(self):
        angle = mx.intersection_angle(std(0.0), std(1.0), pt(1))
        assert angle == pytest.approx(math.atan(1 / TWO_PI), abs=1e-9)
        assert angle == pytest.approx(0.1578312, abs=1e-6)

    def test_self_angle_zero(self):
        assert mx.intersection_angle(std(1.0), std(1.0), pt(1)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_self_angle_is_exactly_zero(self, rng):
        # the phase is read off v * conj(v), which is real to the last bit,
        # where the quotient v / v of a complex v need not be exactly 1
        for i in range(400):
            lt = rng.uniform(0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1)
            M = random_moebius(rng)
            p, t, branch = on_curve_point(rng, lt, M, t_range=(-1, 1))
            if i % 4 == 0:  # a map that sends the curve point to infinity
                M = mx.MoebiusMap(1, 0, 1, -branch * cmath.exp(complex(lt, TWO_PI) * t))
                p = INF
            T = mx.apply_map(M, std(lt))
            assert mx.intersection_angle(T, T, p) == 0.0

    def test_not_on_both(self):
        with pytest.raises(PointNotOnCurve, match=r"^point 0\.000000,1\.105171 is not on both curves$"):
            mx.intersection_angle(std(1.0), std(2.0), pt(math.exp(0.1) * 1j))

    def test_constant_angle_against_pencil_members(self, rng):
        # the curve crosses every cycle of its own disjoint family at the
        # fixed angle arctan(lambda_tilde / 2 pi)
        checked = 0
        while checked < 100:
            lt = rng.uniform(0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1)
            M = random_moebius(rng)
            T = mx.apply_map(M, std(lt))
            p, _, _ = on_curve_point(rng, lt, M, t_range=(-1, 1))
            if p.is_infinity:
                continue
            ch = _member_through(mx.canonicalize(T.c2), mx.canonicalize(T.c3), mx.zero_radius_at(p))
            z = p.as_complex()
            if mx.classify(ch) == mx.CycleKind.LINE:
                u = complex(-ch.n, ch.l)
            else:
                c, _ = mx.center_radius(ch)
                u = 1j * (z - c)
            v = _fd_tangent(T, p)
            crossing = abs(math.remainder(cmath.phase(v) - cmath.phase(u), math.pi))
            assert abs(crossing - abs(math.atan(lt / TWO_PI))) <= 1e-5
            checked += 1

    def test_matches_finite_difference_tangents(self, rng):
        worst = 0.0
        for _ in range(60):
            lt1 = rng.uniform(0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1)
            lt2 = rng.uniform(0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1)
            M1 = random_moebius(rng)
            p, _, _ = on_curve_point(rng, lt1, M1, t_range=(-1, 1))
            if p.is_infinity:
                continue
            T1 = mx.apply_map(M1, std(lt1))
            t2 = rng.uniform(-1, 1)
            b2 = 1 if rng.uniform() < 0.5 else -1
            w2 = b2 * cmath.exp((lt2 + TWO_PI * 1j) * t2)
            N2 = random_moebius(rng)
            q = mx.apply_to_point(N2.inverse(), p).as_complex()
            M2 = N2 @ mx.MoebiusMap(1, q - w2, 0, 1)
            T2 = mx.apply_map(M2, std(lt2))
            analytic = mx.intersection_angle(T1, T2, p)
            v1 = _fd_tangent(T1, p)
            v2 = _fd_tangent(T2, p)
            numeric = math.remainder(cmath.phase(v2) - cmath.phase(v1), math.pi)
            worst = max(worst, abs(abs(analytic) - abs(numeric)))
        assert worst <= 1e-5


def _fd_tangent(T, p, h=1e-6):
    """Finite-difference curve direction through p, independent of the
    tangent construction under test."""
    S = mx.standard_map(T)
    w = mx.apply_to_point(S, p).as_complex()
    lam = mx.lambda_from_triple(T).rate
    t0 = math.log(abs(w)) / lam.real
    # branch sign that reproduces w at parameter t0
    sgn = 1.0 if abs(cmath.exp(lam * t0) - w) <= abs(cmath.exp(lam * t0) + w) else -1.0
    Si = S.inverse()
    before = mx.apply_to_point(Si, pt(sgn * cmath.exp(lam * (t0 - h)))).as_complex()
    after = mx.apply_to_point(Si, pt(sgn * cmath.exp(lam * (t0 + h)))).as_complex()
    return (after - before) / (2 * h)


class TestTangency:
    def test_documented_line(self):
        line = mx.Cycle(0, -math.pi, 0.5, -TWO_PI)
        assert mx.product(line, mx.zero_radius_at(pt(1))) == pytest.approx(0, abs=1e-12)
        assert mx.tangent_check(std(1.0), line, pt(1))

    def test_unit_circle_not_tangent(self):
        assert not mx.tangent_check(std(1.0), UNIT, pt(1))

    def test_line_missing_point_fails_first_condition(self):
        assert not mx.tangent_check(std(1.0), mx.from_line(2j, 1 + 2j), pt(1))

    def test_point_candidate_rejected(self):
        with pytest.raises(InvalidInput, match="^tangency candidate must not be a point cycle$"):
            mx.tangent_check(std(1.0), mx.Cycle(1, 1, 0, 1), pt(1))

    def test_off_curve_point_rejected(self):
        with pytest.raises(PointNotOnCurve):
            mx.tangent_check(std(1.0), UNIT, pt(math.exp(0.1) * 1j))

    @pytest.mark.parametrize(
        "c2, p",
        [
            # a circle of radius 5.5e-5 whose centre 1 passes it within tolerance, so
            # the circle shape's map sends that member to 0
            (mx.Cycle(1, 1, 0, 1 - 3e-9), pt(1)),
            # a circle of radius 5e8 that infinity passes within tolerance, sent to infinity
            (mx.Cycle(1, 0, 0, -2.5e17), INF),
        ],
    )
    def test_member_sent_to_a_limit_point_has_no_direction(self, c2, p):
        T = mx.LoxodromeTriple(REAL_AXIS, c2, c2, 1)
        assert mx.contains_point(T, p).member
        queries = [lambda: mx.intersection_angle(T, T, p), lambda: mx.tangent_check(T, REAL_AXIS, p)]
        if not p.is_infinity:
            queries.append(lambda: mx.tangent_line_at(T, p))
        for query in queries:
            with pytest.raises(PointNotOnCurve, match="^point maps to a limit point under the normal form$"):
                query()

    def test_tangent_line_at_one(self):
        line = mx.tangent_line_at(std(1.0), pt(1))
        assert_projectively_equal(line, mx.Cycle(0, -math.pi, 0.5, -TWO_PI), tol=1e-9)

    def test_tangent_line_circle_degenerate(self):
        line = mx.tangent_line_at(std(0.0), pt(1))
        assert_projectively_equal(line, mx.Cycle(0, 1, 0, 2), tol=1e-12)

    def test_tangent_line_of_line_shape_is_c1(self):
        T = mx.standard_triple(mx.SlsParameter(math.inf))
        assert mx.tangent_line_at(T, pt(2)) == mx.Cycle(0, 0, 1, 0)

    def test_tangent_line_translates(self):
        shift = mx.MoebiusMap(1, 2, 0, 1)
        moved = mx.apply_map(shift, std(1.0))
        line = mx.tangent_line_at(moved, pt(3))
        expected = mx.apply_to_cycle(shift, mx.tangent_line_at(std(1.0), pt(1)))
        assert_projectively_equal(line, expected, tol=1e-9)

    def test_duality_random(self, rng):
        checked = 0
        while checked < 200:
            lt = rng.uniform(0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1)
            M = random_moebius(rng)
            T = mx.apply_map(M, std(lt))
            p, _, _ = on_curve_point(rng, lt, M, t_range=(-1, 1))
            if p.is_infinity:
                continue
            line = mx.tangent_line_at(T, p)
            assert mx.tangent_check(T, line, p)
            z = p.as_complex()
            rotated = mx.from_line(z, z + complex(-line.n, line.l) * cmath.exp(0.01j))
            assert not mx.tangent_check(T, rotated, p)
            checked += 1

    def test_check_at_infinity_is_the_swapped_check_at_zero(self, rng):
        # tangency is conformal: at infinity, read in the chart 1/z, each
        # candidate gets the answer its image gets at 0 after the swap of
        # 0 and infinity.  Every line passes infinity: a parallel of the
        # tangent touches the curve there, a turned line crosses it
        swap = mx.MoebiusMap(0, 1, 1, 0)
        for _ in range(50):
            lt = rng.uniform(0.3, 2.0) * (1 if rng.uniform() < 0.5 else -1)
            w = cmath.exp(complex(lt, TWO_PI) * rng.uniform(-1, 1)) * (1 if rng.uniform() < 0.5 else -1)
            scale = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
            shift = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            T = mx.apply_map(mx.MoebiusMap(scale, shift, 0, 1) @ mx.MoebiusMap(1, 0, 1, -w), std(lt))
            swapped = mx.apply_map(swap, T)
            tangent = mx.apply_to_cycle(swap, mx.tangent_line_at(swapped, pt(0)))
            z0 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            d = complex(-tangent.n, tangent.l)
            candidates = (
                (tangent, True),
                (mx.from_line(z0, z0 + d), True),
                (mx.from_line(z0, z0 + d * cmath.exp(0.01j)), False),
                (mx.from_circle(z0, 1.0), False),
            )
            for C, touches in candidates:
                assert mx.tangent_check(T, C, INF) == touches
                assert mx.tangent_check(swapped, mx.apply_to_cycle(swap, C), pt(0)) == touches


class TestSampleCurve:
    def test_two_point_grid(self):
        points = mx.sample_curve(std(1.0), 0, 1, 2, "+")
        assert points[0].as_complex() == pytest.approx(1, abs=1e-12)
        assert points[1].as_complex() == pytest.approx(math.e, abs=1e-9)

    def test_circle_degenerate_arc(self):
        points = mx.sample_curve(std(0.0), 0, 0.5, 3, "+")
        values = [p.as_complex() for p in points]
        assert values[0] == pytest.approx(1, abs=1e-9)
        assert values[1] == pytest.approx(1j, abs=1e-9)
        assert values[2] == pytest.approx(-1, abs=1e-9)

    def test_count_validation(self):
        with pytest.raises(InvalidInput):
            mx.sample_curve(std(1.0), 0, 1, 1, "+")

    def test_reversed_range_refused(self):
        with pytest.raises(InvalidInput, match="^empty parameter range$"):
            mx.sample_curve(std(1.0), 1.0, -1.0, 8)

    def test_both_branches(self):
        points = mx.sample_curve(std(1.0), 0, 1, 3, "both")
        assert len(points) == 6

    def test_samples_lie_on_curve(self, rng):
        T = mx.apply_map(random_moebius(rng), std(0.8))
        for p in mx.sample_curve(T, -1, 1, 9, "both"):
            if p.is_infinity:
                continue
            assert mx.contains_point_oracle(T, p)

    def test_line_degenerate_samples_cover_both_half_lines(self):
        T = mx.standard_triple(mx.SlsParameter.infinite())
        plus = [p.as_complex() for p in mx.sample_curve(T, -1, 1, 5, "+")]
        minus = [p.as_complex() for p in mx.sample_curve(T, -1, 1, 5, "-")]
        assert all(z.real > 0 and abs(z.imag) < 1e-9 for z in plus)
        assert all(z.real < 0 and abs(z.imag) < 1e-9 for z in minus)

    def test_circle_shape_on_a_line(self):
        # c2 is the real axis: the grid runs along it through infinity at t = 0
        T = mx.LoxodromeTriple(UNIT, REAL_AXIS, REAL_AXIS)
        points = mx.sample_curve(T, -0.5, 0.5, 5, "+")
        assert [p.is_infinity for p in points] == [False, False, True, False, False]
        assert all(mx.passes(REAL_AXIS, p) for p in points)


def reference_samples(T, t_min, t_max, count, branch):
    """``sample_curve`` as first written: each model point becomes an
    ExtendedPoint and is mapped back by apply_to_point."""
    from moeblox.loxodrome import CurveKind

    lox = mx.Loxodrome(T)
    rate = complex(1.0, 0.0) if lox.shape == CurveKind.LINE else lox.param.rate
    back = lox.map.inverse()
    step = (t_max - t_min) / (count - 1)
    out = []
    for sgn in {"+": (1.0,), "-": (-1.0,), "both": (1.0, -1.0)}[branch]:
        for i in range(count):
            try:
                w = sgn * cmath.exp(rate * (t_min + step * i))
            except OverflowError:
                out.append(mx.ExtendedPoint.infinity())
                continue
            out.append(mx.apply_to_point(back, mx.ExtendedPoint.from_complex(w)))
    return out


ROADMAP_MAP = mx.MoebiusMap(1, 2j, 0.5, 1)


class TestSampleCurveReference:
    """The complex-number sampling path against the ExtendedPoint loop."""

    SHAPES = {
        "spiral": mx.apply_map(ROADMAP_MAP, std(1.0)),
        "mirror": mx.apply_map(ROADMAP_MAP, std(-1.0)),
        "circle": mx.apply_map(ROADMAP_MAP, std(0.0)),
        "line": mx.apply_map(ROADMAP_MAP, mx.standard_triple(mx.SlsParameter.infinite())),
        "standard": std(1.0),
    }
    RANGES = [(-3.0, 3.0, 257), (-1.0, 1.0, 2), (-400.0, 400.0, 801), (-1000.0, 1000.0, 401)]

    @staticmethod
    def bits(points):
        # repr tells signed zeros apart, which == does not
        return [(repr(p.w1), repr(p.w2)) for p in points]

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("t_min,t_max,count", RANGES)
    @pytest.mark.parametrize("branch", ["+", "-", "both"])
    def test_equals_reference(self, shape, t_min, t_max, count, branch):
        T = self.SHAPES[shape]
        got = mx.sample_curve(T, t_min, t_max, count, branch)
        want = reference_samples(T, t_min, t_max, count, branch)
        assert [(p.w1, p.w2) for p in got] == [(p.w1, p.w2) for p in want]
        assert self.bits(got) == self.bits(want)

    def test_far_model_points_collapse_before_the_map(self):
        # beyond |w| = 1e15 the model point is infinity, whose image is
        # the finite point a / c; beyond t = 709.78 exp overflows and the
        # image itself is infinity
        T = self.SHAPES["spiral"]
        back = mx.Loxodrome(T).map.inverse()
        points = mx.sample_curve(T, 0.0, 1000.0, 1001, "+")
        far = mx.ExtendedPoint(back.a, back.c)
        assert not far.is_infinity
        assert all(p == far for p in points[35:709])
        assert all(p.is_infinity for p in points[710:])
        assert points == reference_samples(T, 0.0, 1000.0, 1001, "+")

    def test_non_finite_model_point_refused(self):
        # rate * t is inf + 1.57e308j, whose exponential is nan+nanj without
        # an OverflowError: the model point is refused, not drawn as the far
        # point or as infinity
        with pytest.raises(InvalidInput, match="^homogeneous components must be finite$"):
            mx.sample_curve(std(8.0), 0.0, 2.5e307, 2, "+")

    @pytest.mark.parametrize(
        "t_min,t_max,needle",
        [
            (0.0, math.inf, "t_max must be finite, got inf"),
            (-math.inf, 0.0, "t_min must be finite, got -inf"),
            (math.nan, 0.0, "t_min must be finite, got nan"),
            (-1e308, 1e308, "grid step is not finite"),
        ],
    )
    def test_non_finite_grid_refused(self, t_min, t_max, needle):
        with pytest.raises(InvalidInput, match=needle):
            mx.sample_curve(self.SHAPES["spiral"], t_min, t_max, 5, "both")

    @pytest.mark.parametrize("count", [10.5, 10.0])
    def test_non_integer_count_refused(self, count):
        # range() would raise TypeError, which is no MoebloxError
        with pytest.raises(InvalidInput, match="sample count must be an integer, got 10"):
            mx.sample_curve(self.SHAPES["spiral"], -1.0, 1.0, count, "both")

    @pytest.mark.parametrize(
        "call,needle",
        [
            # the comparisons count < 2, samples < 16 and math.isfinite would
            # raise TypeError; float() is no check, as it reads "1" as 1.0
            (lambda T: mx.sample_curve(T, -1, 1, "10"), "sample count must be an integer, got '10'"),
            (lambda T: mx.sample_curve(T, "-1", 1, 10), "t_min must be a real number, got '-1'"),
            (lambda T: mx.sample_curve(T, -1, None, 10), "t_max must be a real number, got None"),
            (lambda T: mx.RenderConfig(samples="64"), "sample count must be an integer, got '64'"),
            (lambda T: mx.RenderConfig(t_min="0"), "t_min must be a real number, got '0'"),
            (lambda T: mx.RenderConfig(width="800"), "width must be a real number, got '800'"),
            (lambda T: mx.Cycle("1", 0, 0, 0), "cycle component k must be a real number, got '1'"),
            (lambda T: mx.Cycle(1, 0, 1j, 0), "cycle component n must be a real number, got 1j"),
            (lambda T: mx.Cycle(1, 0, 0, 10**400), "cycle component m is too large for a float"),
            # complex() would parse "1+2j" and raise ValueError or TypeError
            # on the rest, neither of them a MoebloxError
            (lambda T: mx.contains_point(T, "1,0"), "point must be a number, got '1,0'"),
            (lambda T: mx.contains_point(T, None), "point must be a number, got None"),
            (lambda T: mx.contains_point(T, "1+2j"), "point must be a number, got '1+2j'"),
            (lambda T: mx.contains_point_oracle(T, b"1"), "point must be a number, got b'1'"),
            (lambda T: mx.tangent_line_at(T, "1+2j"), "point must be a number, got '1+2j'"),
            (lambda T: mx.tangent_check(T, UNIT, "1,0"), "point must be a number, got '1,0'"),
            (lambda T: mx.intersection_angle(T, T, None), "point must be a number, got None"),
            (lambda T: mx.contains_point(T, 10**400), "point is too large for a float"),
            (lambda T: mx.MoebiusMap("1", 0, 0, "2"), "matrix entry a must be a number, got '1'"),
            (lambda T: mx.MoebiusMap(1, 0, 0, "2"), "matrix entry d must be a number, got '2'"),
            (lambda T: mx.MoebiusMap(None, 0, 0, 1), "matrix entry a must be a number, got None"),
            (lambda T: mx.MoebiusMap(1, 10**400, 0, 1), "matrix entry b is too large for a float"),
            (lambda T: mx.ExtendedPoint("1+2j", 1), "point component w1 must be a number, got '1+2j'"),
            (lambda T: mx.ExtendedPoint(1, None), "point component w2 must be a number, got None"),
            (lambda T: mx.ExtendedPoint.from_complex("1+2j"), "point component w1 must be a number, got '1+2j'"),
            # the constructors' complex() and float() parsed these, and the
            # comparisons and attribute reads raised TypeError or AttributeError
            (lambda T: mx.from_circle("1+2j", 1), "center must be a number, got '1+2j'"),
            (lambda T: mx.from_circle(None, 1), "center must be a number, got None"),
            (lambda T: mx.from_circle(0, "2"), "radius must be a real number, got '2'"),
            (lambda T: mx.from_line("0", "1j"), "point p must be a number, got '0'"),
            (lambda T: mx.from_line(0, None), "point q must be a number, got None"),
            (lambda T: mx.zero_radius_at("2"), "point must be a number, got '2'"),
            (lambda T: mx.diagonal_flow("1+2j", 0.5), "lam must be a number, got '1+2j'"),
            (lambda T: mx.diagonal_flow(1 + 2j, "0.5"), "t must be a real number, got '0.5'"),
            (lambda T: mx.SlsParameter.finite("1.5"), "lambda_tilde must be a real number, got '1.5'"),
            (lambda T: mx.SlsParameter("1.5"), "lambda_tilde must be a real number, got '1.5'"),
            (lambda T: mx.standard_triple(1.0), "param must be an SlsParameter, got 1.0"),
            (lambda T: mx.diagonal_flow(1j, 0.0, branch=0), "branch must be +1 or -1"),
            (lambda T: mx.sample_curve(T, -1.0, 1.0, 8, "x"), "branch must be '+', '-' or 'both', got 'x'"),
            (lambda T: mx.ExtendedPoint.infinity().as_complex(), "point at infinity has no complex coordinate"),
            (lambda T: mx.MoebiusMap(math.inf, 0, 0, 1), "matrix entries must be finite"),
        ],
    )
    def test_non_number_argument_refused_by_name(self, call, needle):
        with pytest.raises(InvalidInput, match=f"^{re.escape(needle)}$"):
            call(self.SHAPES["spiral"])

    @pytest.mark.parametrize("shape", ["spiral", "circle"])
    def test_overflowing_angle_refused(self, shape):
        # every bound and the step are finite, but (lambda_tilde + 2 pi i) t
        # is not: the point's angle is undefined
        with pytest.raises(InvalidInput, match="rate [*] t is not finite"):
            mx.sample_curve(self.SHAPES[shape], -3.0, 1e308, 3, "+")

    @pytest.mark.parametrize("t_min,t_max", [(-math.inf, math.inf), (0.0, math.inf)])
    def test_non_finite_model_point_raises(self, t_min, t_max):
        T = self.SHAPES["spiral"]
        with pytest.raises(InvalidInput, match="finite"):
            reference_samples(T, t_min, t_max, 5, "both")
        with pytest.raises(InvalidInput, match="finite"):
            mx.sample_curve(T, t_min, t_max, 5, "both")


class TestCheckAndClassifyAgree:
    """The triple check and ``classify`` read one self-product <C,C> by one
    bound, so a cycle that the check takes as a proper circle is drawn and
    sampled as one.  The float discriminant l^2 + n^2 - m k that
    ``classify`` once read called circles of r^2 in (eps/2, eps] points."""

    TINY = mx.Cycle(1, 0, 0, -7e-10)  # r^2 = 7e-10, within eps_product = 1e-9
    TRIPLE = mx.LoxodromeTriple(REAL_AXIS, TINY, TINY)

    def test_tiny_circle_triple_answers(self):
        T = self.TRIPLE
        assert mx.Loxodrome(T).violations() == []
        assert mx.classify(T.c2) == mx.CycleKind.CIRCLE
        p = complex(math.sqrt(7e-10), 0)
        assert len(mx.sample_curve(T, -1, 1, 8)) == 8
        assert_projectively_equal(mx.tangent_line_at(T, p), mx.Cycle(0, 1, 0, 2 * p.real), tol=1e-12)  # x = r
        assert mx.intersection_angle(T, T, p) == 0.0
        notes = []
        scene = mx.parse_scene({"objects": [{"id": "T", "kind": "triple", "data": T.to_json()}]})
        mx.render_scene(scene, mx.RenderConfig(samples=16), warnings_out=notes)
        assert not [note for note in notes if "curve not drawn" in note]

    def test_huge_circle_about_the_origin_answers(self):
        # radius 1e15: k vanishes against sqrt(T(C) / 2), and so does (l, n),
        # so the circle shape's map reads the circle that k gives, not a
        # line of zero normal, whose map would have a vanishing determinant
        C = mx.Cycle(1, 0, 0, -1e30)
        T = mx.LoxodromeTriple(REAL_AXIS, C, C)
        assert mx.Loxodrome(T).violations() == []
        assert mx.contains_point(T, pt(1e15)).member
        assert not mx.contains_point(T, pt(0)).member
        assert len(mx.sample_curve(T, -1, 1, 8)) == 8

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        log_r2=st.floats(math.log(1e-9 / 4), math.log(4e-9)),
        x=st.floats(-1, 1),
        y=st.floats(-1, 1),
        turn=st.floats(0, math.pi),
        moved=st.booleans(),
    )
    def test_checked_circle_is_never_a_point(self, log_r2, x, y, turn, moved):
        c = complex(x, y)
        circle = mx.from_circle(c, math.sqrt(math.exp(log_r2)))
        T = mx.LoxodromeTriple(mx.from_line(c, c + cmath.exp(1j * turn)), circle, circle)
        if moved:
            T = mx.apply_map(ROADMAP_MAP, T)
        if mx.Loxodrome(T).violations():
            return
        assert mx.classify(T.c1) != mx.CycleKind.POINT
        assert mx.classify(T.c2) != mx.CycleKind.POINT
        assert len(mx.sample_curve(T, -1, 1, 8)) == 8


class TestApplyMap:
    def test_identity(self):
        T = std(1.0)
        same = mx.apply_map(mx.MoebiusMap(1, 0, 0, 1), T)
        for a, b in ((same.c1, T.c1), (same.c2, T.c2), (same.c3, T.c3)):
            assert_projectively_equal(a, b, tol=1e-12)

    def test_translation(self):
        moved = mx.apply_map(mx.MoebiusMap(1, 1, 0, 1), std(1.0))
        assert_projectively_equal(moved.c1, REAL_AXIS, tol=1e-12)
        assert_projectively_equal(moved.c2, mx.from_circle(1, 1), tol=1e-12)
        assert_projectively_equal(moved.c3, mx.from_circle(1, math.e), tol=1e-9)

    def test_composition(self, rng):
        T = std(1.0)
        M1, M2 = random_moebius(rng), random_moebius(rng)
        a = mx.apply_map(M2, mx.apply_map(M1, T))
        b = mx.apply_map(M2 @ M1, T)
        for x, y in ((a.c1, b.c1), (a.c2, b.c2), (a.c3, b.c3)):
            assert_projectively_equal(x, y, tol=1e-8)

    def test_sign_preserved(self, rng):
        T = std(-1.5)
        assert mx.apply_map(random_moebius(rng), T).sign == -1


class TestTripleJson:
    """Triples as the scene reader reads them."""

    @staticmethod
    def read(data):
        return mx.parse_scene({"objects": [{"id": "T", "kind": "triple", "data": data}]}).triple("T")

    def test_roundtrip(self):
        for T in (std(1.0), std(-1.5)):
            assert self.read(T.to_json()) == T

    def test_missing_field(self):
        with pytest.raises(SceneError, match=r"objects\[0\]\.c2 is missing"):
            self.read({"c1": [0, 0, 1, 0]})

    def test_bad_sign(self):
        data = std(1.0).to_json()
        for sign in (1.7, 0, "1", None, True, 1.0):
            with pytest.raises(SceneError, match=r"objects\[0\]\.sign must be the int 1 or -1"):
                self.read(dict(data, sign=sign))


def _rescaled(T, rng):
    """The same triple with each cycle multiplied by an independent real
    of either sign and magnitude in [0.1, 10]."""

    def factor():
        return (1 if rng.uniform() < 0.5 else -1) * 10 ** rng.uniform(-1, 1)

    return mx.LoxodromeTriple(
        factor() * T.c1, factor() * T.c2, factor() * T.c3, T.sign
    )


def _assert_maps_projectively_equal(M, N, tol):
    a, b = M.normalized(), N.normalized()
    ea, eb = (a.a, a.b, a.c, a.d), (b.a, b.b, b.c, b.d)
    assert max(abs(x - y) for x, y in zip(ea, eb)) <= tol * max(map(abs, ea))


class TestPreparedTriple:
    def test_projective_invariance(self, rng):
        # cycles are projective: no answer may depend on the representatives
        for lt in (0.4, -0.9, 1.0, 1.8):
            for _ in range(10):
                M = random_moebius(rng)
                T = mx.apply_map(M, std(lt))
                S = _rescaled(T, rng)
                assert mx.lambda_from_triple(S).lambda_tilde == pytest.approx(
                    mx.lambda_from_triple(T).lambda_tilde, abs=1e-9
                )
                _assert_maps_projectively_equal(mx.standard_map(S), mx.standard_map(T), 1e-8)
                assert mx.equivalent(T, S)
                on, _, _ = on_curve_point(rng, lt, M, t_range=(-1, 1))
                off = mx.apply_to_point(M, pt(1.3 * cmath.exp(0.25j * TWO_PI)))
                for p in (on, off):
                    assert mx.contains_point(S, p).member == mx.contains_point(T, p).member
                    assert mx.contains_point_oracle(S, p) == mx.contains_point_oracle(T, p)
                if not on.is_infinity:
                    assert_projectively_equal(
                        mx.tangent_line_at(S, on), mx.tangent_line_at(T, on), tol=1e-8
                    )

    def test_power_of_two_scaling_changes_no_answer(self):
        # scaling a cycle by 2^k is exact, and every product is homogeneous
        # in each cycle: lambda_tilde, membership and the normal form stay
        # bit for bit, far beyond the range where raw products over- or underflow
        M = mx.MoebiusMap(1, 2j, 0.5, 1)
        T = mx.LoxodromeTriple(*mx.apply_map(M, std(1.0)))
        points = [mx.apply_to_point(M, pt(w)) for w in (cmath.exp(complex(1.0, TWO_PI) * 0.3), 1.3j, -2.0)]

        def answers(triple):
            members = [mx.contains_point(triple, p).member for p in points]
            return mx.lambda_from_triple(triple), members, mx.standard_map(triple)

        want = answers(T)
        assert want[1] == [True, False, False]
        for index in range(3):
            for k in (-900, -300, 300, 900):
                cycles = list(T[:3])
                cycles[index] = math.ldexp(1.0, k) * cycles[index]
                assert answers(mx.LoxodromeTriple(*cycles, T.sign)) == want, (index, k)

    def test_shape_is_read_off_lambda(self):
        from moeblox.loxodrome import CurveKind

        # the normalised product of c2 and c3 rounds to 1, yet the cycles
        # are not equal: the shape is a spiral, the pencil is neither
        # disjoint nor one cycle, and every query refuses the triple
        near = mx.LoxodromeTriple(REAL_AXIS, UNIT, mx.Cycle(1, 0, 0, -(1 + 1e-9)))
        lox = mx.Loxodrome(near)
        assert lox.shape is CurveKind.SPIRAL
        assert [str(v) for v in lox.violations()] == ["second and third cycle neither disjoint nor equal"]
        for query in (
            lambda: mx.lambda_from_triple(near),
            lambda: mx.equivalent(near, near),
            lambda: mx.standard_map(near),
            lambda: mx.contains_point(near, pt(1)),
            lambda: mx.sample_curve(near, -1.0, 1.0, 8),
        ):
            with pytest.raises(TripleViolation, match="^second and third cycle neither disjoint nor equal$"):
                query()
        line = mx.Loxodrome(mx.standard_triple(mx.SlsParameter.infinite()))
        assert (line.shape, line.rate) == (CurveKind.LINE, 1.0)

    def test_large_scale_triple_is_checked_at_unit_scale(self):
        # the raw products of c2 and c3 reach 1e200; the canonical ones are 1
        big = (REAL_AXIS, 1e100 * UNIT, 1e100 * E_CIRCLE)
        T = mx.LoxodromeTriple(*big)
        assert mx.Loxodrome(T).violations() == []
        assert mx.lambda_from_triple(T).lambda_tilde == pytest.approx(1.0, abs=1e-12)
        moved = mx.apply_map(mx.MoebiusMap(1, 2j, 0.5, 1), T)
        assert mx.lambda_from_triple(moved).lambda_tilde == pytest.approx(1.0, abs=1e-9)

    def test_far_scaled_pair_answers_as_at_unit_scale(self):
        # the raw products of c2 and c3 overflow a float; the binary-scaled ones are finite
        big = mx.LoxodromeTriple(REAL_AXIS, 1e200 * UNIT, 1e200 * E_CIRCLE)
        assert mx.Loxodrome(big).violations() == []
        assert mx.lambda_from_triple(big).lambda_tilde == pytest.approx(1.0, abs=1e-12)
        _assert_maps_projectively_equal(mx.standard_map(big), mx.standard_map(std(1.0)), 1e-12)
        assert mx.contains_point(big, pt(1)).member and not mx.contains_point(big, pt(5)).member

    def test_pencil_member_solved_once_per_point(self, rng, monkeypatch):
        # angles and tangency read the curve's velocity off the kept map, so
        # no query of direction solves a pencil member: a fresh triple is
        # prepared once, and later calls at the point build no form and
        # move no cycle
        import moeblox.loxodrome as lox

        M = random_moebius(rng)
        T = mx.apply_map(M, std(1.0))
        p = mx.apply_to_point(M, pt(cmath.exp(complex(1.0, TWO_PI) * 0.3)))
        built, moved = [], []
        prepare, move = mx.Loxodrome.__init__, lox._cycle_action
        monkeypatch.setattr(mx.Loxodrome, "__init__", lambda form, *a: built.append(a) or prepare(form, *a))
        monkeypatch.setattr(lox, "_cycle_action", lambda *a, **k: moved.append(a) or move(*a, **k))
        line = mx.tangent_line_at(T, p)
        assert len(built) == 1  # the first query prepares T
        moved.clear()
        assert mx.tangent_check(T, line, p)
        assert mx.tangent_line_at(T, p) == line
        assert mx.intersection_angle(T, T, p) == 0.0
        assert (len(built), moved) == (1, [])  # all three reuse the kept form
        fresh = mx.apply_map(M, std(1.0))
        assert len(built) == 1  # moving a triple prepares nothing
        mx.intersection_angle(fresh, T, p)
        assert len(built) == 2  # its first query prepares it

    def test_point_queries_map_each_point_once(self, rng, monkeypatch):
        # after the first query on a triple, a point query reads the kept
        # map and its inverse: it builds no map and no point, and calls the
        # form's membership kernel, which maps the point, once per curve
        M = random_moebius(rng)
        T = mx.apply_map(M, std(1.0))
        copy = mx.apply_map(M @ mx.diagonal_flow(complex(1.0, TWO_PI), 0.3), std(1.0))
        p = mx.apply_to_point(M, pt(cmath.exp(complex(1.0, TWO_PI) * 0.3)))
        line = mx.tangent_line_at(T, p)
        assert mx.intersection_angle(copy, T, p) == pytest.approx(0.0, abs=1e-9)
        built, mapped = [], []
        for cls in (mx.MoebiusMap, mx.ExtendedPoint):
            check = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__", staticmethod(
                lambda *a, cls=cls, check=check: built.append(cls.__name__) or check(*a)))
        form, copy_form = vars(T)["_loxodrome"], vars(copy)["_loxodrome"]
        for curve in (form, copy_form):  # both kernels were bound by the queries above
            monkeypatch.setattr(curve, "_member",
                                lambda q, curve=curve, member=curve._member: mapped.append(curve) or member(q))
        questions = [
            (lambda: mx.contains_point(T, p).member, [form]),
            (lambda: mx.contains_point_oracle(T, p), [form]),
            (lambda: mx.tangent_line_at(T, p) == line, [form]),
            (lambda: mx.tangent_check(T, line, p), [form]),
            (lambda: abs(mx.intersection_angle(T, copy, p)) < 1e-9, [form, copy_form]),
        ]
        for question, curves in questions:
            assert question()
            assert (built, mapped) == ([], curves)
            mapped.clear()

    def test_tangent_line_solves_limit_points_once(self, rng, monkeypatch):
        import moeblox.loxodrome as lox

        M = random_moebius(rng)
        T = mx.apply_map(M, std(1.0))
        U = mx.LoxodromeTriple(*T)  # equal to T, prepared on its own
        p = mx.apply_to_point(M, pt(cmath.exp(complex(1.0, TWO_PI) * 0.3)))
        calls = []
        solve = lox._root_pairing
        monkeypatch.setattr(lox, "_root_pairing", lambda *a, **k: calls.append(a) or solve(*a, **k))
        mx.tangent_line_at(T, p)
        assert len(calls) == 1  # the first query's check solved them, and its form keeps them
        mx.tangent_line_at(U, p)
        assert len(calls) == 2
        for triple in (T, U):
            mx.tangent_line_at(triple, p)
            mx.contains_point(triple, p)
        assert len(calls) == 2  # later calls on the triples pay nothing

    def test_oracle_recovers_lambda_once(self, rng, monkeypatch):
        M = random_moebius(rng)
        T = mx.apply_map(M, std(1.0))
        p = mx.apply_to_point(M, pt(-cmath.exp(complex(1.0, TWO_PI) * 0.3)))
        calls = []
        param = mx.Loxodrome._DERIVE["param"]
        monkeypatch.setitem(mx.Loxodrome._DERIVE, "param", lambda form: calls.append(form) or param(form))
        assert mx.contains_point_oracle(T, p)
        assert len(calls) == 1

    def test_equivalent_forms_each_pencil_once(self, rng, monkeypatch):
        # one pass over each triple's pencil serves the shape, the check,
        # the pair products, the limit points and T's map; no given cycle
        # is canonicalised, only the point members of the two pencils, each
        # from its components and their scale, with no cycle built before it
        import moeblox.cycles as cycles
        import moeblox.loxodrome as lox

        M = random_moebius(rng)
        T = mx.LoxodromeTriple(*mx.apply_map(M, std(1.0)))
        calls, pencils = [], []
        canon, pencil = cycles._canonical, lox._pencil
        monkeypatch.setattr(cycles, "_canonical", lambda *a, **k: calls.append((a, canon(*a, **k))) or calls[-1][1])
        monkeypatch.setattr(lox, "_pencil", lambda *a, **k: pencils.append(a) or pencil(*a, **k))
        # the query checks both triples: each check forms its triple's
        # pencil and solves its point members, which T's map reads
        copy = mx.apply_map(M @ mx.diagonal_flow(complex(1.0, TWO_PI), 0.3), std(1.0))
        assert mx.equivalent(T, copy)
        assert len(pencils) == 2
        assert len(calls) == 4
        assert all(len(args) == 6 and not any(isinstance(x, mx.Cycle) for x in args) for args, _ in calls)
        assert all(mx.classify(X) == mx.CycleKind.POINT for _, X in calls)

    def test_check_reads_each_scale_once(self, rng, monkeypatch):
        # the first query's check reads each given cycle's scale once, in
        # _binary_scaled; every zero test after it reads the terms of its product
        triples = [mx.apply_map(random_moebius(rng), std(lt)) for lt in (1.0, -0.5, 2.0)]
        triples.append(mx.standard_triple(mx.SlsParameter.infinite()))
        reads = []
        scale = mx.Cycle.scale
        monkeypatch.setattr(mx.Cycle, "scale", lambda C: reads.append(C) or scale(C))
        for T in triples:
            reads.clear()
            mx.lambda_from_triple(T)
            for C in T[:3]:
                assert sum(X is C for X in reads) == 1, (T, C)

    def test_apply_map_and_crossing_form_one_action_each(self, rng, monkeypatch):
        # a map's |det| = 1 entries and their conjugate products are formed
        # once for all the cycles it moves
        import moeblox.loxodrome as lox

        M = random_moebius(rng)
        actions = []
        act = lox._cycle_action
        monkeypatch.setattr(lox, "_cycle_action", lambda F: actions.append(F) or act(F))
        T = mx.apply_map(M, std(1.0))
        assert actions == [M]
        U = mx.LoxodromeTriple(*T)  # a copy of T: its map is read afresh
        actions.clear()
        F = mx.standard_map(U)
        assert len(actions) == 1  # the one _crossing of _map
        actions.clear()
        assert lox._crossing(F, T.c1, T.c2) == lox._crossing(F, T.c1, T.c2)
        assert actions == [F, F]
        assert [lox._act(act(M), C) for C in std(1.0)[:3]] == [mx.apply_to_cycle(M, C) for C in std(1.0)[:3]] == list(T[:3])

    def test_point_members_equal_the_combine_route(self):
        # each member is formed componentwise and canonicalised as one cycle,
        # bit for bit the route that built it by combine and canonicalised it
        from moeblox.cycles import _binary_scaled, _pencil, _root_pairing
        from pencil_route import root_pairing

        rng = random.Random(27)
        for i in range(300):
            lt = math.copysign(10 ** rng.uniform(-4, 0.4), rng.random() - 0.5)
            G = squeezed_moebius(rng) if i % 2 else random_moebius(rng)
            c2, c3 = (mx.apply_to_cycle(G, C) for C in std(lt)[1:3])
            pencil = _pencil(_binary_scaled(c2), _binary_scaled(c3), mx.DEFAULT_TOLERANCES)
            assert repr(_root_pairing(pencil, mx.DEFAULT_TOLERANCES)) == repr(root_pairing(pencil)), (G, lt)

    def test_one_pencil_per_decision(self, monkeypatch):
        import moeblox.cycles as cycles
        import moeblox.loxodrome as lox

        calls = []
        form = cycles._pencil
        for module in (cycles, lox):
            monkeypatch.setattr(module, "_pencil", lambda *a, **k: calls.append(a) or form(*a, **k))
        mx.zero_radius_members(UNIT, E_CIRCLE)
        assert len(calls) == 1
        calls.clear()
        crossing = mx.LoxodromeTriple(REAL_AXIS, UNIT, mx.from_circle(1, 1))
        violations = mx.Loxodrome(crossing).violations()
        assert [str(v) for v in violations] == ["second and third cycle neither disjoint nor equal"]
        assert len(calls) == 1


def _questions(T, tol, points):
    """One call of every query on T at tol, unasked."""
    qs = [
        lambda: mx.lambda_from_triple(T, tol),
        lambda: mx.standard_map(T, tol),
        lambda: mx.equivalent(T, T, tol),
        lambda: mx.sample_curve(T, -1.0, 1.0, 9, "both", tol),
    ]
    for p in points:
        qs += [
            lambda p=p: mx.contains_point(T, p, tol),
            lambda p=p: mx.contains_point_oracle(T, p, tol),
            lambda p=p: mx.tangent_line_at(T, p, tol),
            lambda p=p: mx.tangent_check(T, UNIT, p, tol),
            lambda p=p: mx.intersection_angle(T, T, p, tol),
        ]
    return qs


def _ask(question) -> str:
    """The answer's repr, or the refusal's type and message."""
    try:
        return repr(question())
    except MoebloxError as exc:
        return f"{type(exc).__name__}: {exc}"


class TestPointRouteReference:
    """Every per-point query answers as the route that built a point and a
    map on every call (``point_route``): the same repr, or the same
    refusal, on curve points, points off the curve, the limit points and
    infinity."""

    @staticmethod
    def groups(rng, count):
        """Per random map M: the triples it carries, and a pool of points
        on and off each curve.  The triples are spirals with |lambda_tilde|
        inside [0.25, 2.5] and beyond it up to 8, both signs, each followed
        by a copy shifted along the curve, then the circle and line shapes;
        all of them pass M(1) and M(-1)."""
        for _ in range(count):
            M = random_moebius(rng)
            lts = [sign * rng.uniform(lo, hi) for lo, hi in ((0.25, 2.5), (2.5, 8.0)) for sign in (1, -1)]
            triples = []
            for lt in lts:
                shift = mx.diagonal_flow(complex(lt, TWO_PI), rng.uniform(-1, 1))
                triples += [mx.apply_map(M, std(lt)), mx.apply_map(M @ shift, std(lt))]
            triples.append(mx.apply_map(M, mx.standard_triple(mx.SlsParameter(0.0))))
            triples.append(mx.apply_map(M, mx.standard_triple(mx.SlsParameter.infinite())))
            model = [1, -1, 0, INF]
            for lt in lts:
                t_max = 2.0 if abs(lt) <= 2.5 else 4.0
                for _ in range(6):
                    w = (1 if rng.uniform() < 0.5 else -1) * cmath.exp(complex(lt, TWO_PI) * rng.uniform(-t_max, t_max))
                    model += [w, w * math.exp(0.05 * lt)] if rng.uniform() < 0.5 else [w]
            model += [cmath.exp(1j * rng.uniform(-math.pi, math.pi)) for _ in range(3)]
            model += [rng.uniform(-3, 3) for _ in range(3)] + [complex(rng.uniform(-3, 3), 0.1)]
            points = [INF] + [mx.apply_to_point(M, w if w is INF else pt(w)) for w in model]
            points += [z for T in triples[:8:2] for z in mx.Loxodrome(T).limit_points]
            yield triples, points

    def test_answers_match(self, rng):
        import point_route

        asked = 0
        for triples, points in self.groups(rng, 6):
            for i, T in enumerate(triples):
                partner = triples[(i + 1) % len(triples)]
                for p in points:
                    try:  # the tangent line where there is one, so tangent_check also answers True
                        candidate = point_route.tangent_line_at(T, p)
                    except MoebloxError:
                        candidate = UNIT
                    pairs = [
                        (mx.contains_point, point_route.contains_point, (T, p)),
                        (mx.contains_point_oracle, point_route.contains_point_oracle, (T, p)),
                        (mx.tangent_line_at, point_route.tangent_line_at, (T, p)),
                        (mx.tangent_check, point_route.tangent_check, (T, candidate, p)),
                        (mx.tangent_check, point_route.tangent_check, (T, REAL_AXIS, p)),
                        (mx.intersection_angle, point_route.intersection_angle, (T, T, p)),
                        (mx.intersection_angle, point_route.intersection_angle, (T, partner, p)),
                        (mx.intersection_angle, point_route.intersection_angle, (partner, T, p)),
                    ]
                    for query, reference, args in pairs:
                        assert _ask(lambda: query(*args)) == _ask(lambda: reference(*args)), (query.__name__, args)
                        asked += 1
        assert asked > 10_000

    def test_answers_match_at_the_limit_point_threshold(self, rng):
        # points at f eps_product of the scale of ExtendedPoint.approx_eq
        # from each limit point, on both sides of where the limit-point test
        # flips, and infinity; the untransformed standard triples put the
        # limit points at 0 and infinity themselves
        import point_route
        from moeblox.loxodrome import CurveKind

        eps = mx.DEFAULT_TOLERANCES.eps_product
        factors = (0.5, 0.99, 1.01, 2.0)
        turns = [cmath.exp(1j * theta) for theta in (0.0, 1.0, -2.5)]
        extra = [std(1.0), std(-3.0)]
        flagged = set()  # the limit-point flag of each answer off the circle shape
        for triples, _ in [*self.groups(rng, 3), (extra, None)]:
            for T in triples:
                form = mx.Loxodrome(T)
                points = [INF]
                if form.shape is not CurveKind.CIRCLE:
                    for z in form.limit_points:
                        if z.is_infinity:
                            points += [pt(f / eps * u) for f in factors for u in turns]
                        else:
                            v = z.as_complex()
                            delta = eps * max(abs(v) ** 2, abs(v), 1.0)
                            points += [pt(v + f * delta * u) for f in factors for u in turns]
                for p in points:
                    for query, reference in (
                        (mx.contains_point, point_route.contains_point),
                        (mx.contains_point_oracle, point_route.contains_point_oracle),
                        (mx.tangent_line_at, point_route.tangent_line_at),
                    ):
                        assert _ask(lambda: query(T, p)) == _ask(lambda: reference(T, p)), (query.__name__, T, p)
                    if form.shape is not CurveKind.CIRCLE:
                        flagged.add("limit_point" in mx.contains_point(T, p).flags)
        assert flagged == {True, False}  # the threshold is straddled


class TestPreparedFormKept:
    """The first query keeps the prepared form on its triple; later queries
    at equal tolerances reuse it, and nothing else about the triple changes."""

    LOOSE = mx.Tolerances(eps_product=5e-3)

    @staticmethod
    def near():
        # c3 is 1e-3 off c2: coincident at eps_product 5e-3, a spiral with
        # lambda_tilde about 3.5e-4 at the default
        return mx.LoxodromeTriple(REAL_AXIS, UNIT, mx.Cycle(1, 0, 0, -(1 + 1e-3)))

    def test_each_tolerance_sees_its_own_preparation(self):
        from moeblox.loxodrome import CurveKind

        assert mx.Loxodrome(self.near(), self.LOOSE).shape == CurveKind.CIRCLE
        assert mx.Loxodrome(self.near()).shape == CurveKind.SPIRAL
        points = [pt(1), pt(-1), pt(1j), pt(2), INF]
        tols = (self.LOOSE, mx.DEFAULT_TOLERANCES)
        fresh = {tol: [_ask(q) for q in _questions(self.near(), tol, points)] for tol in tols}
        assert fresh[self.LOOSE] != fresh[mx.DEFAULT_TOLERANCES]
        for order in (tols, tols[::-1], tols + tols[::-1]):
            T = self.near()
            for tol in order:
                assert [_ask(q) for q in _questions(T, tol, points)] == fresh[tol]
        # question by question, alternating the tolerance
        T = self.near()
        got = {tol: [] for tol in tols}
        for pair in zip(*(_questions(T, tol, points) for tol in tols)):
            for tol, question in zip(tols, pair):
                got[tol].append(_ask(question))
        assert got == fresh

    def test_triple_value_is_unchanged(self, rng):
        M = random_moebius(rng)
        T = mx.apply_map(M, std(1.0))
        twin = mx.LoxodromeTriple(T.c1, T.c2, T.c3, T.sign)
        before = (repr(T), hash(T), T.to_json(), tuple(T))
        p, _, _ = on_curve_point(rng, 1.0, M, t_range=(-1, 1))
        for question in _questions(T, mx.DEFAULT_TOLERANCES, [p]) + _questions(T, self.LOOSE, [p]):
            _ask(question)
        assert vars(T) and not set(vars(T)) & set(T._fields)  # the prepared form is kept, not as a field
        assert (repr(T), hash(T), T.to_json(), tuple(T)) == before
        assert T == twin and twin == T and len({T, twin}) == 1

    def test_transported_triples_carry_no_prepared_form(self, rng):
        M = random_moebius(rng)
        fields = ("c1", "c2", "c3", "sign")
        T = mx.apply_map(M, std(1.0))
        assert T._fields == fields and vars(T) == {}
        mx.contains_point(T, pt(1))
        U = mx.apply_map(M, T)
        V = mx.LoxodromeTriple(*T)
        assert U._fields == V._fields == fields
        assert vars(U) == vars(V) == {}

    def test_threads_share_one_prepared_form(self, rng):
        M = random_moebius(rng)
        groups = [[on_curve_point(rng, 1.0, M, t_range=(-1, 1))[0] for _ in range(3)] for _ in range(4)]
        serial = [[_ask(q) for q in _questions(mx.apply_map(M, std(1.0)), mx.DEFAULT_TOLERANCES, g)]
                  for g in groups]
        T = mx.apply_map(M, std(1.0))
        got = [[] for _ in groups]
        start = threading.Barrier(len(groups))

        def work(i):
            start.wait(timeout=30)
            for _ in range(20):
                got[i].append([_ask(q) for q in _questions(T, mx.DEFAULT_TOLERANCES, groups[i])])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(groups))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for answers, expected in zip(got, serial):
            assert answers == [expected] * 20

    def test_form_is_slotted_and_each_field_filled_once(self, rng, monkeypatch):
        # no instance dict: a derived field fills its slot on its first
        # read, so after one round of every question a second round
        # forms no pencil and solves none
        import moeblox.loxodrome as lox

        M = random_moebius(rng)
        T = mx.apply_map(M, std(1.0))
        U = mx.LoxodromeTriple(*T)  # equal to T, prepared on its own
        assert not hasattr(mx.Loxodrome(T), "__dict__")
        with pytest.raises(AttributeError, match="'Loxodrome' object has no attribute 'colour'"):
            mx.Loxodrome(T).colour
        points = [on_curve_point(rng, 1.0, M, t_range=(-1, 1))[0] for _ in range(3)]
        calls = []
        for name in ("_pencil", "_root_pairing"):
            monkeypatch.setattr(lox, name, lambda *a, fn=getattr(lox, name), name=name: calls.append(name) or fn(*a))
        first = [_ask(q) for q in _questions(T, mx.DEFAULT_TOLERANCES, points)]
        assert calls == ["_pencil", "_root_pairing"]  # T's first query checks it, and the form keeps both
        assert [_ask(q) for q in _questions(U, mx.DEFAULT_TOLERANCES, points)] == first
        assert calls == ["_pencil", "_root_pairing"] * 2
        for _ in range(2):
            for triple in (T, U):
                assert [_ask(q) for q in _questions(triple, mx.DEFAULT_TOLERANCES, points)] == first
        assert len(calls) == 4

    def test_threads_racing_on_a_fill_store_equal_values(self, rng):
        # fills take no lock: threads that read an empty field at once each
        # derive it, and every one of them stores and returns an equal value
        M = random_moebius(rng)
        T = mx.apply_map(M, std(1.0))
        serial = mx.Loxodrome(T)
        want = (serial.map, serial.param, serial.limit_points, serial._n1)
        forms = [mx.Loxodrome(T) for _ in range(10)]
        got = [[] for _ in range(8)]
        start = threading.Barrier(len(got))

        def work(i):
            start.wait(timeout=30)
            for form in forms:
                got[i].append((form.map, form.param, form.limit_points, form._n1))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(got))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[want] * len(forms)] * len(got)
        assert all((form.map, form.param, form.limit_points, form._n1) == want for form in forms)

    def test_transported_triple_holds_only_its_cycles(self, rng):
        # a guard on peak memory: apply_map's output keeps no prepared form
        # (a triple and three cycles of four floats, about 700 B on CPython
        # 3.11; a kept form would add more than a kilobyte)
        maps = [random_moebius(rng) for _ in range(500)]
        T0 = std(1.0)
        mx.apply_map(maps[0], T0)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = [mx.apply_map(M, T0) for M in maps]
            per_output = (tracemalloc.get_traced_memory()[0] - before) / len(out)
        finally:
            tracemalloc.stop()
        assert per_output <= 800, per_output

    def test_first_query_on_a_transported_triple_prepares_it_once(self, rng, monkeypatch):
        # apply_map checks nothing, so the output's first query does:
        # whichever query comes first, on any shape, it builds one form and
        # forms one pencil, whose point members the check of a spiral or a
        # line solves
        import moeblox.loxodrome as lox

        M = random_moebius(rng)
        points = [on_curve_point(rng, 1.0, M, t_range=(-1, 1))[0] for _ in range(2)]
        calls = []
        prepare = mx.Loxodrome.__init__
        monkeypatch.setattr(mx.Loxodrome, "__init__", lambda form, *a: calls.append("Loxodrome") or prepare(form, *a))
        for name in ("_pencil", "_root_pairing"):
            monkeypatch.setattr(lox, name, lambda *a, fn=getattr(lox, name), name=name: calls.append(name) or fn(*a))
        shapes = (std(1.0), std(-0.7), mx.standard_triple(mx.SlsParameter(0.0)),
                  mx.standard_triple(mx.SlsParameter.infinite()))
        for T0 in shapes:
            for i in range(len(_questions(T0, mx.DEFAULT_TOLERANCES, points))):
                T = mx.apply_map(M, T0)
                calls.clear()
                _ask(_questions(T, mx.DEFAULT_TOLERANCES, points)[i])
                solved = [] if T0.c2 == T0.c3 else ["_root_pairing"]
                assert calls == ["Loxodrome", "_pencil"] + solved, (T0, i)

    def test_apply_map_prepares_nothing(self, rng, monkeypatch):
        # on every shape, moving a triple builds no form and forms no
        # pencil; its first query builds the one form that the later ones reuse
        import moeblox.loxodrome as lox

        M = random_moebius(rng)
        points = [on_curve_point(rng, 1.0, M, t_range=(-1, 1))[0] for _ in range(2)]
        calls = []
        prepare, pencil = mx.Loxodrome.__init__, lox._pencil
        monkeypatch.setattr(mx.Loxodrome, "__init__", lambda form, *a: calls.append("Loxodrome") or prepare(form, *a))
        monkeypatch.setattr(lox, "_pencil", lambda *a: calls.append("_pencil") or pencil(*a))
        for T0 in (std(1.0), std(-1.0), std(0.0), mx.standard_triple(mx.SlsParameter.infinite())):
            calls.clear()
            T = mx.apply_map(M, T0)
            assert calls == [] and vars(T) == {}, T0
            for question in _questions(T, mx.DEFAULT_TOLERANCES, points):
                _ask(question)
                assert calls == ["Loxodrome", "_pencil"], T0

    def test_form_is_kept_only_at_its_own_tolerance(self):
        # checked at LOOSE, the triple is a circle; its first query at the
        # default tolerance prepares it afresh and sees the spiral
        T = self.near()
        assert mx.lambda_from_triple(T, self.LOOSE).lambda_tilde == 0.0
        assert vars(T)["_loxodrome"].tol == self.LOOSE
        spiral = mx.lambda_from_triple(self.near()).lambda_tilde
        assert spiral != 0.0
        assert mx.lambda_from_triple(T).lambda_tilde == spiral
        assert mx.lambda_from_triple(T, self.LOOSE).lambda_tilde == 0.0

    def test_transported_triples_build_no_form(self, rng, monkeypatch):
        # moving 100 triples builds no form; a query on one output builds
        # one, which lives as long as that output
        import moeblox.loxodrome as lox

        forms = []

        class Watched(mx.Loxodrome):
            __slots__ = ("__weakref__",)  # a form itself takes no weak reference

            def __init__(self, *args):
                super().__init__(*args)
                forms.append(weakref.ref(self))

        monkeypatch.setattr(lox, "Loxodrome", Watched)
        T0 = std(1.0)
        out = [mx.apply_map(random_moebius(rng), T0) for _ in range(100)]
        assert forms == [] and all(vars(T) == {} for T in out)
        mx.lambda_from_triple(out[0])
        assert len(forms) == 1 and forms[0]() is vars(out[0])["_loxodrome"]
        del out
        gc.collect()
        assert forms[0]() is None

    def test_threads_validating_their_own_triples_answer_as_alone(self, rng):
        # each thread moves triples of its own and queries each at one
        # tolerance, then at the other, which prepares it anew
        tols = (mx.DEFAULT_TOLERANCES, self.LOOSE)
        work_items = [
            [(M, [on_curve_point(rng, 1.0, M, t_range=(-1, 1))[0] for _ in range(2)])
             for M in [random_moebius(rng) for _ in range(6)]]
            for _ in range(4)
        ]

        def answers(i):
            out = []
            for M, points in work_items[i]:
                T = mx.apply_map(M, std(1.0))
                out += [_ask(q) for tol in (tols[i % 2], tols[1 - i % 2]) for q in _questions(T, tol, points)]
            return out

        serial = [answers(i) for i in range(len(work_items))]
        got = [[] for _ in work_items]
        start = threading.Barrier(len(work_items))

        def work(i):
            start.wait(timeout=30)
            for _ in range(5):
                got[i].append(answers(i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(work_items))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[expected] * 5 for expected in serial]
