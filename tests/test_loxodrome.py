import cmath
import dataclasses
import math
import sys
import threading

import pytest

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


class TestValidateTriple:
    def test_standard_is_valid(self):
        T = mx.validate_triple(REAL_AXIS, UNIT, E_CIRCLE, 1)
        assert isinstance(T, mx.LoxodromeTriple)

    def test_other_elliptic_member_is_valid(self):
        mx.validate_triple(IMAG_AXIS, UNIT, E_CIRCLE, 1)

    def test_non_orthogonal_first_cycle(self):
        with pytest.raises(TripleViolation, match="^first and second cycle are not orthogonal$"):
            mx.validate_triple(UNIT, UNIT, E_CIRCLE, 1)

    def test_crossing_pair_rejected(self):
        with pytest.raises(TripleViolation, match="^second and third cycle neither disjoint nor equal$"):
            mx.validate_triple(REAL_AXIS, UNIT, mx.from_circle(1, 1), 1)

    def test_degenerate_kinds_validate(self):
        for param in (mx.SlsParameter.finite(0.0), mx.SlsParameter.infinite()):
            T = mx.standard_triple(param)
            mx.validate_triple(T.c1, T.c2, T.c3, T.sign)

    def test_bad_sign(self):
        with pytest.raises(InvalidInput):
            mx.validate_triple(REAL_AXIS, UNIT, E_CIRCLE, 2)

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
        T = mx.LoxodromeTriple(REAL_AXIS, UNIT, mx.from_circle(1, 1), 1)
        with pytest.raises(NumericalBreakdown, match=r"^acosh argument .* below 1-eps$"):
            mx.lambda_from_triple(T)


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

    def test_degenerate_rejected(self):
        with pytest.raises(TripleViolation, match="^normal form needs a distinct, non-point third cycle$"):
            mx.standard_map(std(0.0))
        with pytest.raises(TripleViolation, match="^normal form needs a distinct, non-point third cycle$"):
            mx.standard_map(mx.standard_triple(mx.SlsParameter.infinite()))

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


def reference_in_span(A, B, X, tol=mx.DEFAULT_TOLERANCES):
    """The span test of ``equivalent`` as first written: numpy's
    ``lstsq`` with its default rcond, and the residual norm of its
    solution."""
    import numpy as np

    S = np.array([mx.canonicalize(A, tol).to_json(), mx.canonicalize(B, tol).to_json()]).T
    v = np.array(mx.canonicalize(X, tol).to_json())
    coef, *_ = np.linalg.lstsq(S, v, rcond=None)
    residual = float(np.linalg.norm(S @ coef - v))
    return residual <= tol.eps_product * max(1.0, float(np.linalg.norm(v)))


def in_span(A, B, X, tol=mx.DEFAULT_TOLERANCES):
    """The span test of ``equivalent``, on the canonical forms it uses."""
    from moeblox.loxodrome import _span_test

    return _span_test(mx.canonicalize(A, tol), mx.canonicalize(B, tol), tol)(
        mx.canonicalize(X, tol)
    )


class TestInSpanReference:
    """The Gram-Schmidt span test against lstsq."""

    @staticmethod
    def perturbed(rng, X, size):
        return mx.Cycle(*(c + size * rng.normal() for c in X.to_json()))

    @pytest.mark.parametrize("size", [0.0, 1e-12, 1e-10, 3e-10, 1e-9, 3e-9, 1e-8, 1e-6, 1e-2])
    def test_members_and_perturbed_non_members(self, rng, size):
        from moeblox.cycles import combine
        from conftest import random_real_cycle

        inside = 0
        for _ in range(400):
            A, B = random_real_cycle(rng), random_real_cycle(rng)
            if projective_residual(A, B) <= 1e-9:
                continue
            alpha, beta = rng.uniform(-3, 3, 2)
            X = self.perturbed(rng, combine(alpha, A, beta, B), size)
            want = reference_in_span(A, B, X)
            assert in_span(A, B, X) == want, (A, B, X)
            inside += want
        if size <= 1e-12:
            assert inside >= 390
        if size >= 1e-6:
            assert inside == 0

    @pytest.mark.parametrize("kind", ["scaled", "nearly"])
    def test_rank_one_spans(self, rng, kind):
        # a second column within lstsq's rcond of the first is dropped, so
        # the span is the line of A alone
        from conftest import random_real_cycle

        for _ in range(300):
            A = random_real_cycle(rng)
            if kind == "scaled":
                B = float(rng.uniform(0.5, 4)) * A
            else:
                e = 10 ** rng.uniform(-17, -14)
                B = mx.Cycle(A.k * (1 + e * rng.normal()), A.l, A.n, A.m * (1 + e * rng.normal()))
            for X in (3.0 * A, random_real_cycle(rng), self.perturbed(rng, A, 1e-9)):
                want = reference_in_span(A, B, X)
                assert in_span(A, B, X) == want, (A, B, X)


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
        assert rep.member and "degenerate_arc_unchecked" in rep.flags
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
        T = mx.validate_triple(UNIT, REAL_AXIS, REAL_AXIS)
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
        prepare, move = mx.Loxodrome.__init__, lox.apply_to_cycle
        monkeypatch.setattr(mx.Loxodrome, "__init__", lambda form, *a: built.append(a) or prepare(form, *a))
        monkeypatch.setattr(lox, "apply_to_cycle", lambda *a, **k: moved.append(a) or move(*a, **k))
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
        T = mx.validate_triple(UNIT, REAL_AXIS, REAL_AXIS)
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

    def test_shape_is_read_off_lambda(self):
        from moeblox.loxodrome import CurveKind

        # the normalised product of c2 and c3 rounds to 1, so lambda_tilde
        # is 0: every query, equivalent and standard_map too, sees a circle
        near = mx.LoxodromeTriple(REAL_AXIS, UNIT, mx.Cycle(1, 0, 0, -(1 + 1e-9)))
        lox = mx.Loxodrome(near)
        assert (lox.kind, lox.param.lambda_tilde, lox.shape) == (CurveKind.SPIRAL, 0.0, CurveKind.CIRCLE)
        with pytest.raises(TripleViolation, match="^equivalence needs non-degenerate triples$"):
            mx.equivalent(near, near)
        with pytest.raises(TripleViolation, match="^normal form needs a distinct, non-point third cycle$"):
            mx.standard_map(near)
        assert mx.contains_point(near, pt(1)).member
        line = mx.Loxodrome(mx.standard_triple(mx.SlsParameter.infinite()))
        assert (line.shape, line.rate) == (CurveKind.LINE, 1.0)

    def test_large_scale_triple_is_checked_at_unit_scale(self):
        # the raw products of c2 and c3 reach 1e200; the canonical ones are 1
        big = (REAL_AXIS, 1e100 * UNIT, 1e100 * E_CIRCLE)
        assert mx.Loxodrome(mx.LoxodromeTriple(*big)).violations() == []
        T = mx.validate_triple(*big)
        moved = mx.apply_map(mx.MoebiusMap(1, 2j, 0.5, 1), T)
        assert mx.lambda_from_triple(moved).lambda_tilde == pytest.approx(1.0, abs=1e-9)

    def test_violations_refuse_overflowing_products(self):
        big = mx.LoxodromeTriple(REAL_AXIS, 1e200 * UNIT, 1e200 * E_CIRCLE)
        with pytest.raises(NumericalBreakdown, match=r"Cycle\(k=1e\+200"):
            mx.Loxodrome(big).violations()

    def test_pencil_member_solved_once_per_point(self, rng, monkeypatch):
        # angles and tangency read the curve's velocity off the kept map, so
        # no query of direction solves a pencil member: a fresh triple is
        # prepared once, and later calls at the point build no form and
        # move no cycle
        import moeblox.loxodrome as lox

        M = random_moebius(rng)
        T, fresh = mx.apply_map(M, std(1.0)), mx.apply_map(M, std(1.0))
        p = mx.apply_to_point(M, pt(cmath.exp(complex(1.0, TWO_PI) * 0.3)))
        built, moved = [], []
        prepare, move = mx.Loxodrome.__init__, lox.apply_to_cycle
        monkeypatch.setattr(mx.Loxodrome, "__init__", lambda form, *a: built.append(a) or prepare(form, *a))
        monkeypatch.setattr(lox, "apply_to_cycle", lambda *a, **k: moved.append(a) or move(*a, **k))
        line = mx.tangent_line_at(T, p)
        assert len(built) == 1  # the first query prepares T
        moved.clear()
        assert mx.tangent_check(T, line, p)
        assert mx.tangent_line_at(T, p) == line
        assert mx.intersection_angle(T, T, p) == 0.0
        assert (len(built), moved) == (1, [])  # all three reuse the kept form
        mx.intersection_angle(fresh, T, p)
        assert len(built) == 2  # a fresh triple is prepared once

    def test_tangent_line_solves_limit_points_once(self, rng, monkeypatch):
        import moeblox.loxodrome as lox

        M = random_moebius(rng)
        T = mx.apply_map(M, std(1.0))
        p = mx.apply_to_point(M, pt(cmath.exp(complex(1.0, TWO_PI) * 0.3)))
        calls = []
        solve = lox.zero_radius_members
        monkeypatch.setattr(
            lox, "zero_radius_members", lambda *a, **k: calls.append(a) or solve(*a, **k)
        )
        mx.tangent_line_at(T, p)
        assert len(calls) == 1
        mx.tangent_line_at(T, p)
        mx.contains_point(T, p)
        assert len(calls) == 1  # later calls on the triple pay nothing

    def test_oracle_recovers_lambda_once(self, rng, monkeypatch):
        import moeblox.loxodrome as lox

        M = random_moebius(rng)
        T = mx.apply_map(M, std(1.0))
        p = mx.apply_to_point(M, pt(-cmath.exp(complex(1.0, TWO_PI) * 0.3)))
        calls = []
        cosine = lox._cosine
        monkeypatch.setattr(lox, "_cosine", lambda *a, **k: calls.append(a) or cosine(*a, **k))
        assert mx.contains_point_oracle(T, p)
        assert len(calls) == 1

    def test_equivalent_canonicalises_each_spanning_cycle_once(self, rng, monkeypatch):
        # one canonical form per cycle serves the span tests, the pair
        # products and the c1 term, wherever the canonicalisation happens
        import moeblox.cycles as cycles
        import moeblox.loxodrome as lox

        M = random_moebius(rng)
        T = mx.apply_map(M, std(1.0))
        copy = mx.apply_map(M @ mx.diagonal_flow(complex(1.0, TWO_PI), 0.3), std(1.0))
        calls = []
        canon = cycles.canonicalize
        for module in (cycles, lox):
            monkeypatch.setattr(
                module, "canonicalize", lambda *a, **k: calls.append(a[0]) or canon(*a, **k)
            )
        assert mx.equivalent(T, copy)
        six = [C for triple in (T, copy) for C in (triple.c1, triple.c2, triple.c3)]
        assert len(calls) == 6
        assert all(sum(C is X for X in calls) == 1 for C in six)

    def test_one_pencil_discriminant_per_decision(self, monkeypatch):
        import moeblox.cycles as cycles
        import moeblox.loxodrome as lox
        import moeblox.pencils as pencils

        calls = []
        form = cycles.pencil_discriminant
        for module in (cycles, pencils, lox):
            monkeypatch.setattr(module, "pencil_discriminant", lambda *a, **k: calls.append(a) or form(*a, **k))
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
        before = (repr(T), hash(T), T.to_json(), dataclasses.astuple(T))
        p, _, _ = on_curve_point(rng, 1.0, M, t_range=(-1, 1))
        for question in _questions(T, mx.DEFAULT_TOLERANCES, [p]) + _questions(T, self.LOOSE, [p]):
            _ask(question)
        assert set(vars(T)) > {f.name for f in dataclasses.fields(T)}  # the prepared form is kept
        assert (repr(T), hash(T), T.to_json(), dataclasses.astuple(T)) == before
        assert T == twin and twin == T and len({T, twin}) == 1

    def test_transported_triples_carry_no_prepared_form(self, rng):
        M = random_moebius(rng)
        fields = {"c1", "c2", "c3", "sign"}
        T = mx.apply_map(M, std(1.0))
        assert set(vars(T)) == fields
        mx.contains_point(T, pt(1))
        U = mx.apply_map(M, T)
        V = mx.validate_triple(T.c1, T.c2, T.c3, T.sign)
        assert set(vars(U)) == set(vars(V)) == fields

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
