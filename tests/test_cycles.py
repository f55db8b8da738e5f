import cmath
import math
import re

import pytest
from hypothesis import given, strategies as st

import moeblox as mx
from moeblox.errors import InvalidInput, NumericalBreakdown, SceneError

from conftest import (
    assert_projectively_equal,
    projective_residual,
    random_cycle,
    random_moebius,
    random_real_cycle,
    random_sl2,
)

UNIT = mx.Cycle(1, 0, 0, -1)
REAL_AXIS = mx.Cycle(0, 0, 1, 0)
pt = mx.ExtendedPoint.from_complex
INF = mx.ExtendedPoint.infinity()


class TestExtendedPoint:
    def test_projective_normalisation(self):
        assert mx.ExtendedPoint(4 + 2j, 2).as_complex() == 2 + 1j
        assert mx.ExtendedPoint(3, 0).is_infinity

    def test_rejects_zero_pair(self):
        with pytest.raises(InvalidInput):
            mx.ExtendedPoint(0, 0)

    def test_parse_format_roundtrip(self):
        assert mx.ExtendedPoint.parse("1.5,-2").as_complex() == 1.5 - 2j
        assert mx.ExtendedPoint.parse("inf").is_infinity
        assert mx.ExtendedPoint.parse("inf").format() == "inf"
        assert pt(1.5 - 2j).format(3) == "1.500,-2.000"

    @pytest.mark.parametrize("bad", ["", "1", "1,2,3", "x,y"])
    def test_parse_rejects(self, bad):
        with pytest.raises(InvalidInput):
            mx.ExtendedPoint.parse(bad)

    @pytest.mark.parametrize("bad", ["1_0,0", "\u0661,0", "1e400,0", "0,-inf", "nan,0"])
    def test_parse_reads_ascii_decimals_only(self, bad):
        # float() takes the first two as the points 10 and 1
        with pytest.raises(InvalidInput, match=re.escape(repr(bad))):
            mx.ExtendedPoint.parse(bad)

    @pytest.mark.parametrize(
        "text,z",
        [(" 1.5 , -2 ", 1.5 - 2j), ("+.5,5.", 0.5 + 5j), ("1E+2,-3e-1", 100 - 0.3j), ("-0,0", 0j)],
    )
    def test_parse_decimal_forms(self, text, z):
        assert mx.ExtendedPoint.parse(text).as_complex() == z

    def test_approx_eq_is_projective(self):
        assert pt(2 + 1j).approx_eq(mx.ExtendedPoint(4 + 2j, 2))
        assert INF.approx_eq(mx.ExtendedPoint(5, 0))
        assert not pt(1).approx_eq(pt(1.001))


class TestConstructors:
    def test_from_circle_unit(self):
        assert mx.from_circle(0, 1) == mx.Cycle(1, 0, 0, -1)

    def test_from_circle_shifted(self):
        assert mx.from_circle(1, 1) == mx.Cycle(1, 1, 0, 0)

    def test_from_circle_imaginary_center(self):
        assert mx.from_circle(1j, 2) == mx.Cycle(1, 0, 1, -3)

    def test_from_circle_rejects_radius(self):
        with pytest.raises(InvalidInput, match=r"^radius must be positive, got 0\.0$"):
            mx.from_circle(0, 0.0)
        with pytest.raises(InvalidInput, match=r"^radius must be positive, got -1\.0$"):
            mx.from_circle(0, -1.0)

    def test_from_line_real_axis(self):
        assert_projectively_equal(mx.from_line(0, 1), mx.Cycle(0, 0, 1, 0))

    def test_from_line_imaginary_axis(self):
        assert_projectively_equal(mx.from_line(0, 1j), mx.Cycle(0, 1, 0, 0))

    def test_from_line_diagonal(self):
        assert_projectively_equal(mx.from_line(0, 1 + 1j), mx.Cycle(0, 1, -1, 0))

    def test_from_line_rejects_equal_points(self):
        with pytest.raises(InvalidInput, match=r"^line needs two distinct points, got \(1\+1j\) twice$"):
            mx.from_line(1 + 1j, 1 + 1j)

    def test_zero_radius_origin(self):
        assert mx.zero_radius_at(pt(0)) == mx.Cycle(1, 0, 0, 0)

    def test_zero_radius_one(self):
        assert mx.zero_radius_at(pt(1)) == mx.Cycle(1, 1, 0, 1)

    def test_zero_radius_infinity(self):
        assert mx.zero_radius_at(INF) == mx.Cycle(0, 0, 0, 1)


class TestClassifyAndCoordinates:
    def test_classify(self):
        assert mx.classify(REAL_AXIS) == mx.CycleKind.LINE
        assert mx.classify(mx.Cycle(1, 1, 0, 1)) == mx.CycleKind.POINT
        assert mx.classify(UNIT) == mx.CycleKind.CIRCLE
        assert mx.classify(mx.Cycle(0, 0, 0, 1)) == mx.CycleKind.POINT

    def test_center_radius(self):
        assert mx.center_radius(UNIT) == (0, 1.0)
        c, r = mx.center_radius(mx.Cycle(2, 2, 0, 0))
        assert c == 1 and r == pytest.approx(1.0)
        assert mx.center_radius(mx.Cycle(1, 0, 0, 0)) == (0, 0.0)

    def test_center_radius_errors(self):
        with pytest.raises(InvalidInput, match=r"^cycle Cycle\(.*\) has no centre$"):
            mx.center_radius(REAL_AXIS)
        with pytest.raises(InvalidInput, match=r"^cycle Cycle\(.*\) has negative discriminant -1\.0$"):
            mx.center_radius(mx.Cycle(1, 0, 0, 1))

    def test_point_of(self):
        assert mx.point_of(mx.Cycle(1, 2, -1, 5)).as_complex() == 2 - 1j
        assert mx.point_of(mx.Cycle(0, 0, 0, 1)).is_infinity


class TestProduct:
    def test_unit_self(self):
        assert mx.product(UNIT, UNIT) == 2.0

    def test_orthogonal_axis(self):
        assert mx.product(REAL_AXIS, UNIT) == 0.0

    def test_point_self(self):
        assert mx.product(mx.Cycle(1, 0, 0, 0), mx.Cycle(1, 0, 0, 0)) == 0.0

    def test_scale_covariant(self):
        assert mx.product(2 * UNIT, UNIT) == 2 * mx.product(UNIT, UNIT)

    @given(st.integers(min_value=0, max_value=10_000))
    def test_matches_trace_form(self, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        C = random_cycle(rng)
        Cp = random_cycle(rng)
        (a11, a12), (a21, a22) = C.matrix()
        (b11, b12), (b21, b22) = Cp.matrix()
        trace = (
            a11 * b11.conjugate()
            + a12 * b21.conjugate()
            + a21 * b12.conjugate()
            + a22 * b22.conjugate()
        )
        assert trace.imag == pytest.approx(0.0, abs=1e-9)
        assert mx.product(C, Cp) == pytest.approx(trace.real, rel=1e-12, abs=1e-12)


class TestCanonicalize:
    def test_examples(self):
        assert mx.canonicalize(mx.Cycle(-2, 0, 0, 2)) == mx.Cycle(1, 0, 0, -1)
        assert mx.canonicalize(mx.Cycle(0, 0, -3, 0)) == mx.Cycle(0, 0, 1, 0)
        assert mx.canonicalize(mx.Cycle(0, 0, 0, -5)) == mx.Cycle(0, 0, 0, 1)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-100, max_value=100).filter(lambda t: abs(t) > 1e-3),
    )
    def test_idempotent_and_scale_free(self, seed, t):
        import numpy as np

        rng = np.random.default_rng(seed)
        C = random_cycle(rng)
        canon = mx.canonicalize(C)
        again = mx.canonicalize(canon)
        # unit-normal lines may drift by one ulp when renormalised
        for a, b in zip(again.to_json(), canon.to_json()):
            assert abs(a - b) <= 1e-14 * max(1.0, canon.scale())
        assert_projectively_equal(mx.canonicalize(t * C), canon, tol=1e-9)

    @pytest.mark.parametrize("C, eps", [
        (mx.Cycle(1e-310, 0, 0, 0), 1e-9),  # 1 / k overflows
        (mx.Cycle(0, 0, 1e-310, 0), 1e-9),  # 1 / |(l, n)| overflows
        (mx.Cycle(0, 0, 0, 1e-310), 1e-9),  # 1 / m overflows
        (mx.Cycle(2e-5, 1e305, 0, 0), 1e-310),  # l / k overflows
    ])
    def test_overflowing_rescale_refused(self, C, eps):
        # results are built unchecked only when finite
        with pytest.raises(InvalidInput, match="cycle components must be finite"):
            mx.canonicalize(C, mx.Tolerances(eps_product=eps))


class TestNormalizedProduct:
    def test_concentric_cosh(self):
        e_circle = mx.from_circle(0, math.e)
        assert mx.normalized_product(UNIT, e_circle) == pytest.approx(
            math.cosh(1.0), abs=1e-12
        )

    def test_crossing_lines_cos_up_to_canonical_sign(self):
        diag = mx.from_line(0, 1 + 1j)
        value = mx.normalized_product(REAL_AXIS, diag)
        # canonical representatives pair these normals negatively
        assert abs(value) == pytest.approx(math.cos(math.pi / 4), abs=1e-12)
        assert value == pytest.approx(-math.cos(math.pi / 4), abs=1e-12)

    def test_self_is_one(self):
        assert mx.normalized_product(UNIT, UNIT) == pytest.approx(1.0)
        assert mx.normalized_product(REAL_AXIS, REAL_AXIS) == pytest.approx(1.0)

    def test_rejects_points(self):
        with pytest.raises(InvalidInput, match="^normalised product needs two non-point cycles$"):
            mx.normalized_product(mx.Cycle(1, 0, 0, 0), UNIT)

    def test_invariant_under_rescaling_and_maps(self, rng):
        for _ in range(100):
            C, Cp = random_real_cycle(rng), random_real_cycle(rng)
            base = mx.normalized_product(C, Cp)
            s, u = rng.uniform(0.1, 9), rng.uniform(-9, -0.1)
            assert mx.normalized_product(s * C, u * Cp) == pytest.approx(
                base, abs=1e-9 * max(1, abs(base))
            )
            M = random_moebius(rng)
            moved = mx.normalized_product(
                mx.apply_to_cycle(M, C), mx.apply_to_cycle(M, Cp)
            )
            # magnitude is fully invariant; the canonical sign may flip
            # when the map turns a circle inside out
            assert abs(moved) == pytest.approx(abs(base), abs=1e-8 * max(1, abs(base)))


class TestOverflowRefused:
    """A zero test on products that overflow a float decides nothing: it
    is refused with NumericalBreakdown naming the cycles, not left to
    raise OverflowError or to compare against inf."""

    BIG = mx.Cycle(1e100, 0, 0, -1e100)
    BIG_E = mx.Cycle(1e100, 0, 0, -1e100 * math.e**2)

    def test_pencil_routines(self):
        for routine in (mx.classify_pencil, mx.zero_radius_members, mx.intersect):
            with pytest.raises(NumericalBreakdown, match=r"products of Cycle\(k=1e\+100.* overflow a float"):
                routine(self.BIG, self.BIG_E)

    def test_normalized_product(self):
        # canonical cycles stay below 1 / eps_product, so only a tiny
        # tolerance lets their products overflow: here the circle of
        # radius 1e100 is canonicalised to (1, 0, 0, -1e200)
        tiny = mx.Tolerances(eps_product=1e-250)
        with pytest.raises(NumericalBreakdown, match="overflow a float"):
            mx.normalized_product(mx.Cycle(1e-100, 0, 0, -1e100), UNIT, tiny)

    def test_center_radius(self):
        with pytest.raises(NumericalBreakdown, match="overflow a float"):
            mx.center_radius(mx.Cycle(1e200, 0, 0, -1e200))

    def test_classify(self):
        # eps * s * s is inf above about 1.3e154, where every cycle used to
        # pass the point test
        for big in (1e155, 1e200):
            with pytest.raises(NumericalBreakdown, match=r"products of Cycle\(k=1e\+\d+.* overflow a float"):
                mx.classify(mx.Cycle(big, 0, 0, -big))
        assert mx.classify(self.BIG) == mx.CycleKind.CIRCLE


class TestMoebiusAction:
    def test_identity_on_point(self):
        M = mx.MoebiusMap(1, 0, 0, 1)
        assert mx.apply_to_point(M, pt(5)).as_complex() == 5

    def test_branch_swap_on_point(self):
        R = mx.MoebiusMap(0, -1, 1, 0)
        assert mx.apply_to_point(R, pt(1)).as_complex() == -1

    def test_affine_fixes_infinity(self):
        M = mx.MoebiusMap(1, 1, 0, 1)
        assert mx.apply_to_point(M, INF).is_infinity

    def test_identity_on_cycle(self):
        assert_projectively_equal(mx.apply_to_cycle(mx.MoebiusMap(1, 0, 0, 1), UNIT), UNIT)

    def test_branch_swap_on_unit_circle_raw_sign(self):
        R = mx.MoebiusMap(0, -1, 1, 0)
        image = mx.apply_to_cycle(R, UNIT)
        assert (image.k, image.l, image.n, image.m) == (-1.0, 0.0, -0.0, 1.0)
        assert_projectively_equal(image, UNIT)

    def test_translation_on_unit_circle(self):
        M = mx.MoebiusMap(1, 1, 0, 1)
        assert_projectively_equal(mx.apply_to_cycle(M, UNIT), mx.Cycle(1, 1, 0, 0))

    def test_rotation_with_complex_determinant(self):
        M = mx.MoebiusMap(cmath.exp(1j * math.pi / 3), 0, 0, 1)
        image = mx.apply_to_cycle(M, REAL_AXIS)
        expected = mx.from_line(0, cmath.exp(1j * math.pi / 3))
        assert_projectively_equal(image, expected)

    def test_singular_map_rejected(self):
        with pytest.raises(InvalidInput, match=r"^matrix determinant 0j vanishes at scale 4\.0$"):
            mx.MoebiusMap(1, 2, 2, 4)

    def test_composition_law(self, rng):
        for _ in range(50):
            C = random_real_cycle(rng)
            M1, M2 = random_moebius(rng), random_moebius(rng)
            lhs = mx.apply_to_cycle(M2, mx.apply_to_cycle(M1, C))
            rhs = mx.apply_to_cycle(M2 @ M1, C)
            assert_projectively_equal(lhs, rhs, tol=1e-8)

    def test_product_invariance_sample(self, rng):
        for _ in range(200):
            C, Cp = random_cycle(rng), random_cycle(rng)
            M = random_sl2(rng)
            moved = mx.product(mx.apply_to_cycle(M, C), mx.apply_to_cycle(M, Cp))
            scale = max(1.0, C.scale() * Cp.scale())
            assert abs(moved - mx.product(C, Cp)) <= 1e-9 * scale

    def test_incidence_preserved(self, rng):
        for _ in range(100):
            C = random_real_cycle(rng)
            points = mx.intersect(C, random_real_cycle(rng))
            M = random_moebius(rng)
            image = mx.apply_to_cycle(M, C)
            for p in points:
                assert mx.passes(C, p)
                assert mx.passes(image, mx.apply_to_point(M, p))

    def test_det_identity(self, rng):
        for _ in range(200):
            C = random_cycle(rng)
            (a11, _), (_, a22) = C.matrix()
            det = a11 * (-C.L) - (-C.m) * C.k
            assert mx.self_product(C) == pytest.approx(-2.0 * det.real, abs=1e-9)
            assert det.imag == 0.0

    def test_point_kind_iff_null_self_product(self, rng):
        for _ in range(300):
            C = random_cycle(rng)
            null = abs(mx.self_product(C)) <= 2e-9 * C.scale() ** 2
            assert (mx.classify(C) == mx.CycleKind.POINT) == null
        # exact point cycles land on the kind boundary from either side
        for z in (0, 1 + 2j, -3j):
            Z = mx.zero_radius_at(mx.ExtendedPoint.from_complex(z))
            assert mx.classify(Z) == mx.CycleKind.POINT
            assert mx.self_product(Z) == 0.0


class TestPredicates:
    def test_orthogonality(self):
        assert mx.is_orthogonal(REAL_AXIS, UNIT)
        assert not mx.is_orthogonal(UNIT, UNIT)
        assert not mx.is_orthogonal(UNIT, mx.from_circle(0, math.e))

    def test_passes(self):
        assert mx.passes(UNIT, pt(1))
        assert not mx.passes(UNIT, pt(0))
        assert mx.passes(REAL_AXIS, INF)

    def test_passes_scale_invariant(self):
        assert mx.passes(1e6 * UNIT, pt(1))
        assert not mx.passes(1e-6 * UNIT, pt(0))


class TestIntersect:
    def test_unit_circle_and_real_axis(self):
        points = mx.intersect(UNIT, REAL_AXIS)
        assert [p.format(6) for p in points] == ["-1.000000,0.000000", "1.000000,0.000000"]

    def test_disjoint_concentric(self):
        assert mx.intersect(UNIT, mx.from_circle(0, 2)) == ()

    def test_tangent_line(self):
        points = mx.intersect(UNIT, mx.from_line(1j, 1 + 1j))
        assert len(points) == 1
        assert points[0].approx_eq(pt(1j))

    def test_crossing_lines_meet_at_infinity_too(self):
        points = mx.intersect(REAL_AXIS, mx.from_line(0, 1j))
        assert len(points) == 2
        assert points[0].approx_eq(pt(0))
        assert points[1].is_infinity

    def test_parallel_lines_touch_at_infinity(self):
        points = mx.intersect(REAL_AXIS, mx.from_line(1j, 1 + 1j))
        assert len(points) == 1 and points[0].is_infinity

    def test_coincident_rejected(self):
        with pytest.raises(InvalidInput, match="^intersection of a cycle with itself is the cycle$"):
            mx.intersect(UNIT, -3 * UNIT)

    def test_count_matches_pencil_classification(self, rng):
        counts = {
            mx.PencilKind.ELLIPTIC: 2,
            mx.PencilKind.PARABOLIC: 1,
            mx.PencilKind.HYPERBOLIC: 0,
        }
        seen = 0
        while seen < 1000:
            C, Cp = random_real_cycle(rng), random_real_cycle(rng)
            if projective_residual(C, Cp) <= 1e-9:
                continue
            seen += 1
            kind = mx.classify_pencil(C, Cp)
            assert len(mx.intersect(C, Cp)) == counts[kind]

    def test_points_actually_lie_on_both(self, rng):
        for _ in range(300):
            C, Cp = random_real_cycle(rng), random_real_cycle(rng)
            if projective_residual(C, Cp) <= 1e-9:
                continue
            for p in mx.intersect(C, Cp):
                assert mx.passes(C, p) and mx.passes(Cp, p)


class TestMapToZeroOneInf:
    def test_identity_triple(self):
        M = mx.map_to_zero_one_inf(pt(0), pt(1), INF)
        for z, w in ((0, 0), (1, 1), (5, 5)):
            assert mx.apply_to_point(M, pt(z)).as_complex() == pytest.approx(w)

    def test_inversion_triple(self):
        M = mx.map_to_zero_one_inf(INF, pt(1), pt(0))
        assert mx.apply_to_point(M, INF).as_complex() == pytest.approx(0)
        assert mx.apply_to_point(M, pt(1)).as_complex() == pytest.approx(1)
        assert mx.apply_to_point(M, pt(0)).is_infinity
        assert mx.apply_to_point(M, pt(2)).as_complex() == pytest.approx(0.5)

    def test_halving_triple(self):
        M = mx.map_to_zero_one_inf(pt(0), pt(2), INF)
        assert mx.apply_to_point(M, pt(2)).as_complex() == pytest.approx(1)
        assert mx.apply_to_point(M, pt(3)).as_complex() == pytest.approx(1.5)

    def test_colliding_points_rejected(self):
        with pytest.raises(InvalidInput, match="^points 0 and 1 coincide$"):
            mx.map_to_zero_one_inf(pt(1), pt(1), INF)

    def test_random_triples(self, rng):
        for _ in range(100):
            zs = rng.uniform(-5, 5, 6)
            p0, pu, pinf = (
                pt(complex(zs[0], zs[1])),
                pt(complex(zs[2], zs[3])),
                pt(complex(zs[4], zs[5])),
            )
            if p0.approx_eq(pu) or pu.approx_eq(pinf) or p0.approx_eq(pinf):
                continue
            M = mx.map_to_zero_one_inf(p0, pu, pinf)
            assert mx.apply_to_point(M, p0).as_complex() == pytest.approx(0, abs=1e-9)
            assert mx.apply_to_point(M, pu).as_complex() == pytest.approx(1, abs=1e-9)
            image_inf = mx.apply_to_point(M, pinf)
            assert image_inf.is_infinity or abs(image_inf.as_complex()) > 1e9


def read_back(kind, data):
    """The value of a one-object scene, read by the scene reader."""
    return mx.parse_scene({"objects": [{"id": "x", "kind": kind, "data": data}]}).get("x").value


class TestSerialization:
    def test_cycle_json(self):
        assert read_back("cycle", UNIT.to_json()) == UNIT
        with pytest.raises(SceneError, match=r"expected \[k, l, n, m\]"):
            read_back("cycle", [1, 2, 3])

    def test_map_json(self):
        M = mx.MoebiusMap(1 + 2j, 0, 3, 4 - 1j)
        again = read_back("moebius", M.to_json())
        assert (again.a, again.b, again.c, again.d) == (M.a, M.b, M.c, M.d)
        with pytest.raises(SceneError, match="four"):
            read_back("moebius", M.to_json()[:3])
