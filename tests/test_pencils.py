import cmath
import math

import pytest

import moeblox as mx
from moeblox.errors import InvalidInput

from conftest import (
    assert_projectively_equal,
    projective_residual,
    random_moebius,
    random_real_cycle,
)
from pencil_route import OnRadicalLocus, RankDeficient, _member_through, combine, orthogonal_cycle_through

UNIT = mx.Cycle(1, 0, 0, -1)
REAL_AXIS = mx.Cycle(0, 0, 1, 0)
E_CIRCLE = mx.from_circle(0, math.e)
pt = mx.ExtendedPoint.from_complex


class TestPencilType:
    def test_coincident_rejected(self):
        with pytest.raises(InvalidInput, match=r"^pencil discriminant .* is not positive$"):
            mx.zero_radius_members(UNIT, 2 * UNIT)

    def test_crossing_lines_elliptic(self):
        P = (REAL_AXIS, mx.from_line(0, 1 + 1j))
        assert mx.classify_pencil(*P) == mx.PencilKind.ELLIPTIC

    def test_concentric_hyperbolic(self):
        assert mx.classify_pencil(UNIT, E_CIRCLE) == mx.PencilKind.HYPERBOLIC

    def test_tangent_parabolic(self):
        P = (UNIT, mx.from_line(1j, 1 + 1j))
        assert mx.classify_pencil(*P) == mx.PencilKind.PARABOLIC

    def test_type_is_transform_invariant(self, rng):
        for _ in range(200):
            A, B = random_real_cycle(rng), random_real_cycle(rng)
            if projective_residual(A, B) <= 1e-9:
                continue
            kind = mx.classify_pencil(A, B)
            if kind == mx.PencilKind.PARABOLIC:
                continue  # knife-edge class is not stable under roundoff
            M = random_moebius(rng)
            moved = (mx.apply_to_cycle(M, A), mx.apply_to_cycle(M, B))
            assert mx.classify_pencil(*moved) == kind


class TestMember:
    """Pencil members alpha A + beta B, built with pencil_route.combine."""

    def test_endpoints(self):
        assert combine(1, UNIT, 0, E_CIRCLE) == UNIT
        assert combine(0, UNIT, 1, E_CIRCLE) == E_CIRCLE

    def test_limit_combination(self):
        t = math.e**2 / (math.e**2 - 1)
        combo = combine(t, UNIT, 1 - t, E_CIRCLE)
        assert_projectively_equal(combo, mx.Cycle(1, 0, 0, 0), tol=1e-12)

    def test_zero_coefficients(self):
        with pytest.raises(InvalidInput):
            combine(0, UNIT, 0, E_CIRCLE)


class TestZeroRadiusMembers:
    def test_concentric(self):
        Z1, Z2 = mx.zero_radius_members(UNIT, mx.from_circle(0, 2))
        assert_projectively_equal(Z1, mx.Cycle(0, 0, 0, 1), tol=1e-12)
        assert_projectively_equal(Z2, mx.Cycle(1, 0, 0, 0), tol=1e-12)

    def test_two_offset_unit_circles(self):
        # limit points of circles centred 0 and 3 solve z^2 - 3z + 1 = 0
        P = (UNIT, mx.from_circle(3, 1))
        Z1, Z2 = mx.zero_radius_members(*P)
        zs = sorted(mx.point_of(Z).as_complex().real for Z in (Z1, Z2))
        assert zs[0] == pytest.approx((3 - math.sqrt(5)) / 2, abs=1e-12)
        assert zs[1] == pytest.approx((3 + math.sqrt(5)) / 2, abs=1e-12)
        for Z in (Z1, Z2):
            assert mx.point_of(Z).as_complex().imag == pytest.approx(0, abs=1e-12)
            assert mx.classify(Z) == mx.CycleKind.POINT

    def test_elliptic_rejected(self):
        with pytest.raises(InvalidInput, match=r"^pencil discriminant .* is not positive$"):
            mx.zero_radius_members(REAL_AXIS, mx.from_line(0, 1j))

    @pytest.mark.parametrize("lt", [1e-4, 1e-3, 1e-2])
    def test_nearby_cycles_lose_no_precision_to_cancellation(self, rng, lt):
        # the limit points of moved concentric circles exp(lt) apart are the
        # images of 0 and infinity, conditioned as 1 / lt by the rounded
        # cycles; the discriminant formed as <A,B>^2 - <A,A><B,B> would
        # cost them a relative error of eps / lt^2 (about 1e-14 / lt^2 here)
        worst = 0.0
        for _ in range(100):
            M = random_moebius(rng)
            A, B = (mx.apply_to_cycle(M, C) for C in (UNIT, mx.from_circle(0, math.exp(lt))))
            want = [mx.apply_to_point(M, z) for z in (pt(0), mx.ExtendedPoint.infinity())]
            got = [mx.point_of(Z) for Z in mx.zero_radius_members(*(mx.canonicalize(C) for C in (A, B)))]
            if abs(got[0].as_complex() - want[0].as_complex()) > abs(got[1].as_complex() - want[0].as_complex()):
                got.reverse()
            for g, w in zip(got, want):
                z = w.as_complex()
                worst = max(worst, abs(g.as_complex() - z) / max(1.0, abs(z)))
        assert worst * lt <= 2e-14

    def test_two_point_cycles_are_their_own_members(self):
        # the discriminant is all <A,B>^2 here: nothing cancels
        A, B = mx.zero_radius_at(pt(1 + 2j)), mx.zero_radius_at(pt(-3))
        got = sorted((mx.point_of(Z).as_complex() for Z in mx.zero_radius_members(A, B)), key=abs)
        assert got == [pytest.approx(1 + 2j, abs=1e-15), pytest.approx(-3, abs=1e-15)]

    def test_members_are_points_in_span(self, rng):
        import numpy as np

        found = 0
        while found < 200:
            A, B = random_real_cycle(rng), random_real_cycle(rng)
            if projective_residual(A, B) <= 1e-9:
                continue
            P = (A, B)
            if mx.classify_pencil(*P) != mx.PencilKind.HYPERBOLIC:
                continue
            found += 1
            for Z in mx.zero_radius_members(*P):
                scale = max(1.0, Z.scale() ** 2)
                assert abs(mx.product(Z, Z)) <= 1e-9 * scale
                S = np.array([A.to_json(), B.to_json()], dtype=float).T
                v = np.array(Z.to_json(), dtype=float)
                coef, *_ = np.linalg.lstsq(S, v, rcond=None)
                assert np.linalg.norm(S @ coef - v) <= 1e-9 * max(
                    1.0, float(np.linalg.norm(v))
                )


class TestOrthogonalCycleThrough:
    def test_real_axis_through_two(self):
        X = orthogonal_cycle_through(UNIT, E_CIRCLE, mx.zero_radius_at(pt(2)))
        assert_projectively_equal(X, REAL_AXIS, tol=1e-12)

    def test_imaginary_axis_through_2i(self):
        X = orthogonal_cycle_through(UNIT, E_CIRCLE, mx.zero_radius_at(pt(2j)))
        assert_projectively_equal(X, mx.Cycle(0, 1, 0, 0), tol=1e-12)

    def test_rank_deficient_at_limit_point(self):
        with pytest.raises(RankDeficient):
            orthogonal_cycle_through(UNIT, E_CIRCLE, mx.zero_radius_at(pt(0)))

    def test_solution_passes_both_limit_points(self, rng):
        found = 0
        while found < 100:
            A, B = random_real_cycle(rng), random_real_cycle(rng)
            if projective_residual(A, B) <= 1e-9:
                continue
            P = (A, B)
            if mx.classify_pencil(*P) != mx.PencilKind.HYPERBOLIC:
                continue
            Z1, Z2 = mx.zero_radius_members(*P)
            probe = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            C0 = mx.zero_radius_at(pt(probe))
            try:
                X = orthogonal_cycle_through(A, B, C0)
            except RankDeficient:
                continue
            found += 1
            for other in (A, B, C0, Z1, Z2):
                assert mx.is_orthogonal(X, other)


def reference_orthogonal_cycle_through(A, B, P, tol=mx.DEFAULT_TOLERANCES):
    """``orthogonal_cycle_through`` as first written: the null vector of
    the stacked rows from numpy's SVD, with its rank test on the
    singular values."""
    import numpy as np

    rows = np.array([[-X.m, 2.0 * X.l, 2.0 * X.n, -X.k] for X in (A, B, P)], dtype=float)
    _, sing, vt = np.linalg.svd(rows)
    if sing[2] <= tol.eps_product * sing[0]:
        raise RankDeficient(f"singular values {sing.tolist()!r}")
    return mx.canonicalize(mx.Cycle(*vt[-1]), tol)


def relative_difference(a, b):
    return max(abs(a.k - b.k), abs(a.l - b.l), abs(a.n - b.n), abs(a.m - b.m)) / max(
        a.scale(), b.scale()
    )


def outcome(f, *args):
    try:
        return f(*args)
    except RankDeficient:
        return RankDeficient


class TestOrthogonalCycleThroughReference:
    """The closed-form null space and rank test against the SVD, inside
    the acceptance envelope: |lambda_tilde| in [0.25, 2.5], t in [-2, 2].
    Beyond it the two drift apart, and neither is reliable there."""

    def envelope_triples(self, rng, count):
        for _ in range(count):
            lt = rng.uniform(0.25, 2.5) * rng.choice([-1.0, 1.0])
            M = random_moebius(rng)
            yield lt, M, mx.apply_map(M, mx.standard_triple(mx.SlsParameter.finite(lt)))

    def test_null_cycle_matches_svd(self, rng):
        from conftest import on_curve_point

        worst, compared = 0.0, 0
        for lt, M, T in self.envelope_triples(rng, 400):
            points = [on_curve_point(rng, lt, M)[0] for _ in range(3)]
            points.append(pt(complex(*rng.uniform(-4, 4, 2))))
            for p in points:
                c0 = mx.zero_radius_at(p)
                want = outcome(reference_orthogonal_cycle_through, T.c2, T.c3, c0)
                got = outcome(orthogonal_cycle_through, T.c2, T.c3, c0)
                if want is RankDeficient:
                    assert got is RankDeficient
                    continue
                worst = max(worst, relative_difference(got, want))
                compared += 1
        assert compared > 1500
        assert worst <= 1e-10

    @pytest.mark.parametrize("offset", [0.0, 1e-12, 1e-10, 1e-9, 3e-9, 1e-8, 1e-6])
    def test_rank_deficient_at_and_near_limit_points(self, rng, offset):
        # the SVD raises at every offset up to 1e-9 and at most of 3e-9 and
        # 1e-8: the closed-form rank test must draw the same line
        raised = 0
        for _, _, T in self.envelope_triples(rng, 100):
            for Z in mx.zero_radius_members(T.c2, T.c3):
                z = mx.point_of(Z)
                if z.is_infinity:
                    p = z if offset == 0.0 else pt(1.0 / offset)
                else:
                    p = pt(z.as_complex() + offset * cmath.exp(1j * rng.uniform(0, 2 * math.pi)))
                c0 = mx.zero_radius_at(p)
                want = outcome(reference_orthogonal_cycle_through, T.c2, T.c3, c0)
                got = outcome(orthogonal_cycle_through, T.c2, T.c3, c0)
                assert (got is RankDeficient) == (want is RankDeficient), (T, p)
                raised += want is RankDeficient
        if offset <= 1e-9:
            assert raised == 200

    @pytest.mark.parametrize(
        "A,B,P",
        [
            (UNIT, UNIT, mx.zero_radius_at(pt(2))),  # two equal rows
            (UNIT, E_CIRCLE, mx.Cycle(1, 0, 0, -1 - 1e-12)),  # near-dependent third row
        ],
    )
    def test_rank_deficient_like_svd(self, A, B, P):
        with pytest.raises(RankDeficient):
            reference_orthogonal_cycle_through(A, B, P)
        with pytest.raises(RankDeficient):
            orthogonal_cycle_through(A, B, P)

    def test_rank_one_rows_raise(self, rng):
        # rows equal up to rounding: the minors and cofactors are roundoff,
        # so the cofactor test alone could pass; s1 <= eps s0 decides
        for _ in range(200):
            A = mx.Cycle(*rng.uniform(-3, 3, 4))
            B, P = float(rng.uniform(0.1, 3)) * A, float(rng.uniform(-3, -0.1)) * A
            with pytest.raises(RankDeficient):
                reference_orthogonal_cycle_through(A, B, P)
            with pytest.raises(RankDeficient):
                orthogonal_cycle_through(A, B, P)

    @pytest.mark.parametrize("exponent", [-300, -150, 150, 300])
    def test_scale_invariant_over_the_whole_range(self, exponent):
        # cofactors are cubic in the components and their squares are of
        # degree six, so unscaled rows would overflow or underflow here
        f = 2.0**exponent
        X = orthogonal_cycle_through(f * UNIT, f * E_CIRCLE, f * mx.zero_radius_at(pt(2)))
        assert X == orthogonal_cycle_through(UNIT, E_CIRCLE, mx.zero_radius_at(pt(2)))
        with pytest.raises(RankDeficient):
            orthogonal_cycle_through(f * UNIT, f * E_CIRCLE, f * mx.zero_radius_at(pt(0)))


TOL = mx.DEFAULT_TOLERANCES
CANON_UNIT, CANON_E = mx.canonicalize(UNIT), mx.canonicalize(E_CIRCLE)


class TestHyperbolicMemberThrough:
    """_member_through: the member of a (hyperbolic) pencil through a point,
    on canonical representatives of the spanning pair."""

    def test_point_one_gives_unit_circle(self):
        ch = _member_through(CANON_UNIT, CANON_E, mx.zero_radius_at(pt(1)), TOL)
        assert_projectively_equal(ch, UNIT, tol=1e-12)
        assert mx.classify(ch) != mx.CycleKind.POINT

    def test_point_minus_sqrt_e(self):
        p = pt(-math.exp(0.5))
        ch = _member_through(CANON_UNIT, CANON_E, mx.zero_radius_at(p), TOL)
        assert mx.canonicalize(ch).m == pytest.approx(-math.e, abs=1e-12)
        _, r = mx.center_radius(ch)
        assert r == pytest.approx(math.exp(0.5), abs=1e-12)

    def test_limit_point_collapses(self):
        ch = _member_through(CANON_UNIT, CANON_E, mx.zero_radius_at(pt(0)), TOL)
        assert mx.classify(ch) == mx.CycleKind.POINT
        assert_projectively_equal(ch, mx.Cycle(1, 0, 0, 0), tol=1e-9)

    def test_radical_member_defined(self):
        # where the affine coefficient t = -<P,b>/<P,a-b> diverges the member
        # still exists; for a concentric pair it is the limit point at infinity
        ch = _member_through(
            CANON_UNIT, CANON_E, mx.zero_radius_at(mx.ExtendedPoint.infinity()), TOL
        )
        assert mx.point_of(ch).is_infinity

    def test_incident_with_both_raises(self):
        with pytest.raises(OnRadicalLocus):
            _member_through(CANON_UNIT, mx.canonicalize(REAL_AXIS), mx.zero_radius_at(pt(1)), TOL)

    def test_result_is_orthogonal_to_point(self, rng):
        found = 0
        while found < 100:
            A, B = random_real_cycle(rng), random_real_cycle(rng)
            if projective_residual(A, B) <= 1e-9:
                continue
            if mx.classify_pencil(A, B) != mx.PencilKind.HYPERBOLIC:
                continue
            C0 = mx.zero_radius_at(pt(complex(rng.uniform(-4, 4), rng.uniform(-4, 4))))
            try:
                ch = _member_through(mx.canonicalize(A), mx.canonicalize(B), C0, TOL)
            except OnRadicalLocus:
                continue
            found += 1
            assert mx.is_orthogonal(ch, C0)
