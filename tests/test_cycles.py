import cmath
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import moeblox as mx
from moeblox.cycles import _accurate_product, _locus
from moeblox.errors import InvalidInput, MoebloxError, SceneError
from moeblox.scene import SceneObject

from conftest import (
    assert_projectively_equal,
    projective_residual,
    random_cycle,
    random_moebius,
    random_real_cycle,
    random_sl2,
)
from map_route import intersect, map_to_zero_one_inf

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

    def test_from_line_is_the_canonical_form_of_its_line(self):
        # from_line scales (0, l, n, m) by canonicalize's rule without its
        # reading: the same Cycle bit for bit (repr tells signed zeros apart),
        # or the same refusal, over subnormal, 2^+-900 and axis-parallel lines
        def answer(f, *args):
            try:
                return repr(f(*args))
            except MoebloxError as exc:
                return f"{type(exc).__name__}: {exc}"

        def canonical_line(p, q):
            normal = 1j * (q - p)
            l, n = normal.real, normal.imag
            return mx.canonicalize(mx.Cycle(0.0, l, n, 2.0 * (l * p.real + n * p.imag)))

        rng = random.Random(44)
        tiny = [0.0, -0.0, 5e-324, -1e-310, 2.0**-900, -(2.0**-560)]
        sizes = [1.0, 2.0**30, 2.0**560, 2.0**900, 1e300]  # directions within from_line's floor of 1e-9

        def component(values):
            return rng.choice(values + [rng.uniform(-2, 2) * rng.choice(sizes + [2.0**-900])])

        seen = set()
        for _ in range(3000):
            p = complex(component(tiny), component(tiny))
            d = complex(component(tiny + [1.0, -1.0]), component(tiny + [1.0, -1.0])) * rng.choice(sizes)
            got = answer(mx.from_line, p, p + d)
            if not got.startswith("InvalidInput: line needs"):  # refused before any cycle is built
                assert got == answer(canonical_line, p, p + d), (p, d)
            if got.startswith("InvalidInput"):
                seen.add(got.split(",")[0])
            else:
                C = mx.from_line(p, p + d)
                seen.update({"subnormal" for x in C if 0 < abs(x) < 2.0**-1022} | {"axis" for x in C[1:3] if not x})
                seen.update({"-0.0" for x in C if str(x) == "-0.0"})
        assert seen == {"InvalidInput: line needs two distinct points", "InvalidInput: cycle components must be finite",
                        "subnormal", "axis", "-0.0"}

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
    @settings(derandomize=True, database=None)
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

    @staticmethod
    def _exact_product(C, Cp):
        (k, l, n, m), (k2, l2, n2, m2) = map(Fraction, C), map(Fraction, Cp)
        return 2 * (l * l2 + n * n2) - m * k2 - k * m2

    def test_accurate_product_correctly_rounded_where_it_cancels(self):
        # small circles far from the origin: |c|^2 and m nearly cancel in <C, C'>
        rng = random.Random(5)
        float_missed = 0
        for _ in range(200):
            c = cmath.rect(10 ** rng.uniform(2, 5), rng.uniform(-math.pi, math.pi))
            r = 10 ** rng.uniform(-4, -1)
            C = mx.from_circle(c, r)
            Cp = mx.from_circle(c + r * rng.uniform(-1, 1), r * rng.uniform(0.5, 2))
            for X, Y in ((C, C), (C, Cp), (Cp, Cp)):
                exact = float(self._exact_product(X, Y))
                assert _accurate_product(X, Y)[0] == exact
                float_missed += mx.product(X, Y) != exact
        assert float_missed > 100

    def test_accurate_product_is_the_float_product_elsewhere(self):
        rng = random.Random(6)
        checked = 0
        for _ in range(200):
            C = mx.Cycle(*(rng.uniform(-5, 5) for _ in range(4)))
            Cp = mx.Cycle(*(rng.uniform(-5, 5) for _ in range(4)))
            (k, l, n, m), (k2, l2, n2, m2) = C, Cp
            terms = 2 * (abs(l * l2) + abs(n * n2)) + abs(m * k2) + abs(k * m2)
            if abs(mx.product(C, Cp)) > 1e-2 * terms:
                assert _accurate_product(C, Cp) == (mx.product(C, Cp), terms)
                checked += 1
        assert checked > 150


class TestCanonicalize:
    def test_examples(self):
        assert mx.canonicalize(mx.Cycle(-2, 0, 0, 2)) == mx.Cycle(1, 0, 0, -1)
        assert mx.canonicalize(mx.Cycle(0, 0, -3, 0)) == mx.Cycle(0, 0, 1, 0)
        assert mx.canonicalize(mx.Cycle(0, 0, 0, -5)) == mx.Cycle(0, 0, 0, 1)

    def test_unit_pivot_is_returned_as_it_is(self):
        # dividing by k = 1 changes no bit, so the cycle itself is canonical;
        # a k of 1 that the pivot test calls vanishing is not
        C = mx.Cycle(1.0, -0.0, 2.5, -3.0)
        assert mx.canonicalize(C) is C
        line = mx.Cycle(1.0, 1e12, 0.0, 0.0)
        assert mx.canonicalize(line) == mx.Cycle(1e-12, 1.0, 0.0, 0.0)

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.floats(min_value=-100, max_value=100).filter(lambda t: abs(t) > 1e-3),
    )
    @settings(derandomize=True, database=None)
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

    @pytest.mark.parametrize("C, want", [
        (mx.Cycle(1e-310, 0, 0, 0), (1, 0, 0, 0)),  # 1 / k overflows unscaled
        (mx.Cycle(0, 0, 1e-310, 0), (0, 0, 1, 0)),  # 1 / |(l, n)| overflows unscaled
        (mx.Cycle(0, 0, 0, 1e-310), (0, 0, 0, 1)),  # 1 / m overflows unscaled
    ])
    def test_subnormal_cycle_is_rescaled(self, C, want):
        # read binary-scaled, a subnormal cycle canonicalises as at unit scale
        assert tuple(mx.canonicalize(C, mx.Tolerances(eps_product=1e-9))) == want

    def test_any_float_scale_answers(self):
        y_axis = mx.Cycle(0, 5e-324, 0, 0)
        assert tuple(mx.canonicalize(y_axis)) == (0, 1, 0, 0)
        assert mx.normalized_product(y_axis, mx.Cycle(0, 0, 1, 0)) == 0.0
        assert tuple(mx.canonicalize(mx.Cycle(1e-310, 0, 0, -1e-310))) == (1, 0, 0, -1)

    @pytest.mark.parametrize("C, eps", [
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
    """A zero test on products that overflow a float decides nothing.  The
    classifiers, ``normalized_product`` and the ``intersect`` reference read
    their cycles binary-scaled, where no product overflows, and answer as
    at unit scale, rather than raise OverflowError or compare against inf."""

    BIG = mx.Cycle(1e100, 0, 0, -1e100)
    BIG_E = mx.Cycle(1e100, 0, 0, -1e100 * math.e**2)

    def test_pencil_routines(self):
        E = mx.Cycle(1, 0, 0, -math.e**2)
        assert mx.classify_pencil(self.BIG, self.BIG_E) == mx.classify_pencil(UNIT, E) == mx.PencilKind.HYPERBOLIC
        for got, want in zip(mx.zero_radius_members(self.BIG, self.BIG_E), mx.zero_radius_members(UNIT, E)):
            assert_projectively_equal(got, want, tol=1e-15)  # the points 0 and infinity
        # the reference forms the pencil binary-scaled too: the circles are disjoint
        assert intersect(self.BIG, self.BIG_E) == intersect(UNIT, E) == ()

    def test_normalized_product(self):
        # canonical cycles stay below 1 / eps_product, so only a tiny
        # tolerance keeps a cycle whose raw products overflow: here the
        # circle of radius 1e100 is canonicalised to (1, 0, 0, -1e200), and
        # its product with the unit circle is cosh(ln 1e100) = 5e99
        tiny = mx.Tolerances(eps_product=1e-250)
        assert mx.normalized_product(mx.Cycle(1e-100, 0, 0, -1e100), UNIT, tiny) == pytest.approx(5e99, rel=1e-15)

    def test_center_radius(self):
        assert mx.center_radius(mx.Cycle(1e200, 0, 0, -1e200)) == (0j, 1.0)

    def test_classify(self):
        # eps * s * s is inf above about 1.3e154, where every cycle used to
        # pass the point test
        for big in (1e155, 1e200):
            assert mx.classify(mx.Cycle(big, 0, 0, -big)) == mx.CycleKind.CIRCLE
        assert mx.classify(self.BIG) == mx.CycleKind.CIRCLE


class TestSelfProductAccuracy:
    """``normalized_product`` and ``center_radius`` read the compensated
    self-product, so a small circle far from the origin, where the float
    <C,C> cancels, keeps the digits its stored components hold.  Each is
    compared with mpmath on those components."""

    @staticmethod
    def _pairing(mpmath, C, D):
        (k, l, n, m), (k2, l2, n2, m2) = ([mpmath.mpf(x) for x in X] for X in (C, D))
        return 2 * (l * l2 + n * n2) - m * k2 - k * m2

    def test_normalized_product_of_small_far_circles(self):
        # the float self-products lost up to 4.2e-8 of the answer here
        mpmath = pytest.importorskip("mpmath")
        rng, worst, answered = random.Random(3), 0.0, 0
        with mpmath.workprec(300):
            for _ in range(2000):
                c = cmath.rect(10 ** rng.uniform(0, 4), rng.uniform(-math.pi, math.pi))
                r, lam = 10 ** rng.uniform(-4, 0), 10 ** rng.uniform(-3, 0)
                C, D = mx.from_circle(c, r), mx.from_circle(c + 0.1 * r, r * math.exp(lam))
                try:
                    got = mx.normalized_product(C, D)
                except InvalidInput:  # a point by the component-scaled test
                    continue
                P = self._pairing
                want = P(mpmath, C, D) / mpmath.sqrt(P(mpmath, C, C) * P(mpmath, D, D))
                worst, answered = max(worst, float(abs(got - want) / abs(want))), answered + 1
        assert answered > 500
        assert worst < 1e-13

    def test_center_radius_of_small_far_circles(self):
        # the float discriminant lost up to 7.1e-9 of the radius where
        # r / |c| >= 1e-4, and up to twice the radius below
        mpmath = pytest.importorskip("mpmath")
        rng, worst = random.Random(9), 0.0
        with mpmath.workprec(300):
            for _ in range(20000):
                c = cmath.rect(10 ** rng.uniform(-2, 3), rng.uniform(-math.pi, math.pi))
                C = mx.from_circle(c, 10 ** rng.uniform(-7, 1))
                square = self._pairing(mpmath, C, C) / 2
                centre, got = mx.center_radius(C)
                assert centre == complex(C.l, C.n)
                if square <= 0:  # m rounded to a point, or just past one: radius 0
                    assert got == 0.0
                    continue
                want = mpmath.sqrt(square) / abs(C.k)
                worst = max(worst, float(abs(got - want) / want))
        assert worst < 1e-13


class TestAnyFloatScale:
    """``classify``, ``center_radius``, ``classify_pencil`` and
    ``zero_radius_members`` read their cycles binary-scaled: beyond 2^+-100
    each is scaled exactly by a power of two to a largest component in
    [0.5, 1), within it kept as given."""

    @pytest.mark.parametrize("k", [-900, -560, 560, 900])
    def test_power_of_two_scaling_changes_no_answer(self, rng, k):
        # products of components overflow a float at 2^560 and underflow at
        # 2^-560; a refusal is compared by its class, as it names the cycle
        def answer(routine, *cycles):
            try:
                return repr(routine(*cycles))
            except MoebloxError as exc:
                return type(exc)

        def scaled(C, e):
            return mx.Cycle(*(math.ldexp(x, e) for x in C))

        fixed = [UNIT, REAL_AXIS, mx.from_circle(0, 1), mx.from_circle(0.3 + 0.2j, 0.7),
                 mx.zero_radius_at(0.5 + 0.5j), mx.Cycle(0, 0, 0, 1), mx.Cycle(1, 0, 0, -math.e**2)]
        pairs = list(zip(fixed, fixed[1:])) + [(random_real_cycle(rng), random_real_cycle(rng)) for _ in range(100)]
        for A, B in pairs:
            for C in (A, B):
                for routine in (mx.classify, mx.center_radius):
                    assert answer(routine, scaled(C, k)) == answer(routine, C), (routine, C)
            assert answer(mx.classify_pencil, scaled(A, k), scaled(B, k)) == answer(mx.classify_pencil, A, B)
            # the pencil's frame starts from the cycle of larger self-product,
            # which the relative scale of A and B decides: so the pair is
            # given at scales in [0.5, 1), as the binary-scaled pair reads it
            A, B = (scaled(C, -math.frexp(C.scale())[1]) for C in (A, B))
            members = answer(mx.zero_radius_members, A, B)
            assert answer(mx.zero_radius_members, scaled(A, k), scaled(B, k)) == members, (A, B)

    def test_unit_circle_at_1e_minus_170(self):
        # each read a circle scaled by 1e-170 as a point, or its pencil as tangent
        C = mx.from_circle(0, 1) * 1e-170
        assert mx.classify(C) == mx.CycleKind.CIRCLE
        assert mx.center_radius(C) == (0j, 1.0)
        E = mx.Cycle(1, 0, 0, -math.e**2) * 1e-170
        assert mx.classify_pencil(C, E) == mx.PencilKind.HYPERBOLIC

    def test_subnormal_scale(self):
        # the power of two that scales it, 2^1074, overflows a float, so
        # each component is scaled with ldexp
        C = mx.Cycle(5e-324, 0, 0, -5e-324)
        assert mx.classify(C) == mx.CycleKind.CIRCLE and mx.center_radius(C) == (0j, 1.0)
        T = mx.LoxodromeTriple(mx.Cycle(0, 0, 5e-324, 0), UNIT, mx.Cycle(1, 0, 0, -math.e**2))
        assert mx.lambda_from_triple(T).lambda_tilde == pytest.approx(1.0, rel=1e-15)
        # render's frame of a line, the y axis here
        assert _locus(mx.Cycle(0, 5e-324, 0, 0))[1:] == _locus(mx.Cycle(0, 1, 0, 0))[1:] == (0j, 1j)


class TestOneReading:
    """``classify``, ``center_radius``, ``canonicalize``, ``_locus`` and
    render's view box read a cycle by one private reading, so they agree on
    whether <C,C> and k vanish, at any float scale."""

    EDGE = [mx.Cycle(1e-30, 1e-20, 0, 1), mx.Cycle(1e-30, 0, 0, -1), mx.Cycle(0, 0, 0, 1), mx.Cycle(1e-10, 1, 0, 1e10)]

    def cycles(self, rng):
        drawn = [random_real_cycle(rng) for _ in range(60)]
        drawn += [mx.zero_radius_at(complex(*rng.uniform(-4, 4, 2))) for _ in range(20)]
        return self.EDGE + [mx.Cycle(*(math.ldexp(x, e) for x in C)) for e in (0, -900, 900) for C in drawn]

    def test_routines_agree(self, rng, monkeypatch):
        import moeblox.cycles as cycles

        pivots, canonical = [], cycles._canonical
        monkeypatch.setattr(cycles, "_canonical", lambda *a: pivots.append(a[4]) or canonical(*a))
        for C in self.cycles(rng):
            try:
                kind, a, b = _locus(C)
            except InvalidInput:
                kind = None  # no real locus
            assert (mx.classify(C) == mx.CycleKind.POINT) == (kind is mx.CycleKind.POINT), C
            if kind is not None:  # a cycle of no real locus has no locus to agree on
                assert mx.classify(C) == kind, C
            if kind is mx.CycleKind.CIRCLE:
                assert mx.center_radius(C) == (a, b), C  # bit for bit
            pivots.clear()
            mx.canonicalize(C)
            assert (pivots == [None]) == (kind in (None, mx.CycleKind.POINT)), C
        # a circle about the origin whose k vanishes against its normal's size
        # too is the circle that k gives, to every routine
        huge = mx.Cycle(1e-30, 0, 0, -1)
        assert _locus(huge) == (mx.CycleKind.CIRCLE, 0j, 1e15)
        assert mx.classify(huge) == mx.CycleKind.CIRCLE and mx.center_radius(huge) == (0j, 1e15)
        # the point at infinity keeps its refusal at every scale
        for e in (0, -900, 900):
            with pytest.raises(InvalidInput, match=r"^cycle Cycle\(.*\) has no centre$"):
                mx.center_radius(mx.Cycle(0, 0, 0, math.ldexp(1.0, e)))

    def test_auto_box_holds_what_render_draws(self, rng):
        # every circle, point and clipped line lies in the canvas of the view
        # box fitted to the scene, the point cycle [1e-10, 1, 0, 1e10] at 1e10
        # too, which a default +-5 view would put 6e11 pixels to its right
        from moeblox.render import RenderConfig, render_scene

        config = RenderConfig(samples=16)
        for C in self.cycles(rng):
            svg = render_scene(mx.parse_scene({"objects": [{"id": "C", "kind": "cycle", "data": C.to_json()}]}), config)
            for element in re.findall(r"<(?:circle|line) [^>]*>", svg):
                values = {name: float(v) for name, v in re.findall(r'(\w+)="(-?[0-9.]+)"', element)}
                r = values.get("r", 0.0) if "cx" in values else 0.0
                xs = [values[x] for x in ("cx", "x1", "x2") if x in values]
                ys = [values[y] for y in ("cy", "y1", "y2") if y in values]
                assert all(-1e-6 <= x - r and x + r <= config.width + 1e-6 for x in xs), (C, element)
                assert all(-1e-6 <= y - r and y + r <= config.height + 1e-6 for y in ys), (C, element)
        # the huge circle about the origin is drawn, in a view that it crosses
        huge = {"bbox": [-2e15, -2e15, 2e15, 2e15], "objects": [{"id": "C", "kind": "cycle", "data": [1e-30, 0, 0, -1]}]}
        assert '<circle cx="400.000000" cy="300.000000" r="125.000000" />' in render_scene(mx.parse_scene(huge), config)


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
            points = intersect(C, random_real_cycle(rng))
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
            assert mx.product(C, C) == pytest.approx(-2.0 * det.real, abs=1e-9)
            assert det.imag == 0.0

    def test_point_kind_iff_null_self_product(self, rng):
        for _ in range(300):
            C = random_cycle(rng)
            null = abs(mx.product(C, C)) <= 2e-9 * C.scale() ** 2
            assert (mx.classify(C) == mx.CycleKind.POINT) == null
        # exact point cycles land on the kind boundary from either side
        for z in (0, 1 + 2j, -3j):
            Z = mx.zero_radius_at(mx.ExtendedPoint.from_complex(z))
            assert mx.classify(Z) == mx.CycleKind.POINT
            assert mx.product(Z, Z) == 0.0

    def test_closed_form_matches_conjugation(self, rng):
        # maps of every determinant phase, |det| from 1e-6 to 1e6 and
        # condition |G|^2 / |det G| up to 1e6, built as U diag(s, 1/s) V
        # from determinant-1 U and V.  Either route rounds each component
        # to eps of its largest term, which reaches condition * |C|: above
        # the largest image component when the image cancels.
        import cycle_action

        checked, worst = 0, 0.0
        while checked < 4000:
            U, V = random_sl2(rng, -2.0, 2.0), random_sl2(rng, -2.0, 2.0)
            s = 10 ** rng.uniform(0.0, 3.0)
            scale = 10 ** rng.uniform(-3.0, 3.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            G = U @ mx.MoebiusMap(s, 0, 0, 1 / s) @ V
            G = mx.MoebiusMap(*(scale * e for e in G))
            condition = max(map(abs, G)) ** 2 / abs(G.det)
            if condition > 1e6:
                continue
            C = random_cycle(rng) if checked % 2 else random_real_cycle(rng)
            got, want = mx.apply_to_cycle(G, C), cycle_action.apply_to_cycle(G, C)
            gap = max(abs(x - y) for x, y in zip(got, want))
            assert gap <= 1e-13 * max(want.scale(), condition * C.scale()), (G, C)
            if condition <= 10.0:
                worst = max(worst, gap / want.scale())
            checked += 1
        assert worst <= 1e-13


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
        points = intersect(UNIT, REAL_AXIS)
        assert [p.format(6) for p in points] == ["-1.000000,0.000000", "1.000000,0.000000"]

    def test_disjoint_concentric(self):
        assert intersect(UNIT, mx.from_circle(0, 2)) == ()

    def test_tangent_line(self):
        points = intersect(UNIT, mx.from_line(1j, 1 + 1j))
        assert len(points) == 1
        assert points[0].approx_eq(pt(1j))

    def test_crossing_lines_meet_at_infinity_too(self):
        points = intersect(REAL_AXIS, mx.from_line(0, 1j))
        assert len(points) == 2
        assert points[0].approx_eq(pt(0))
        assert points[1].is_infinity

    def test_parallel_lines_touch_at_infinity(self):
        points = intersect(REAL_AXIS, mx.from_line(1j, 1 + 1j))
        assert len(points) == 1 and points[0].is_infinity

    def test_coincident_rejected(self):
        with pytest.raises(InvalidInput, match="^intersection of a cycle with itself is the cycle$"):
            intersect(UNIT, -3 * UNIT)

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
            assert len(intersect(C, Cp)) == counts[kind]

    def test_points_actually_lie_on_both(self, rng):
        for _ in range(300):
            C, Cp = random_real_cycle(rng), random_real_cycle(rng)
            if projective_residual(C, Cp) <= 1e-9:
                continue
            for p in intersect(C, Cp):
                assert mx.passes(C, p) and mx.passes(Cp, p)


class TestMapToZeroOneInf:
    def test_identity_triple(self):
        M = map_to_zero_one_inf(pt(0), pt(1), INF)
        for z, w in ((0, 0), (1, 1), (5, 5)):
            assert mx.apply_to_point(M, pt(z)).as_complex() == pytest.approx(w)

    def test_inversion_triple(self):
        M = map_to_zero_one_inf(INF, pt(1), pt(0))
        assert mx.apply_to_point(M, INF).as_complex() == pytest.approx(0)
        assert mx.apply_to_point(M, pt(1)).as_complex() == pytest.approx(1)
        assert mx.apply_to_point(M, pt(0)).is_infinity
        assert mx.apply_to_point(M, pt(2)).as_complex() == pytest.approx(0.5)

    def test_halving_triple(self):
        M = map_to_zero_one_inf(pt(0), pt(2), INF)
        assert mx.apply_to_point(M, pt(2)).as_complex() == pytest.approx(1)
        assert mx.apply_to_point(M, pt(3)).as_complex() == pytest.approx(1.5)

    def test_colliding_points_rejected(self):
        with pytest.raises(InvalidInput, match="^points 0 and 1 coincide$"):
            map_to_zero_one_inf(pt(1), pt(1), INF)

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
            M = map_to_zero_one_inf(p0, pu, pinf)
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


# each value type, with its repr as the frozen dataclasses wrote it
VALUES = [
    (mx.Cycle(1, 0.5, -2, 3), "Cycle(k=1.0, l=0.5, n=-2.0, m=3.0)"),
    (mx.ExtendedPoint(4 + 2j, 2), "ExtendedPoint(w1=(2+1j), w2=(1+0j))"),
    (mx.MoebiusMap(1, 2j, 0.5, 1), "MoebiusMap(a=(1+0j), b=2j, c=(0.5+0j), d=(1+0j))"),
    (mx.Tolerances(1e-8, 1e-6, 1e-5), "Tolerances(eps_product=1e-08, eps_angle=1e-06, eps_mod=1e-05)"),
    (mx.SlsParameter(-0.5), "SlsParameter(lambda_tilde=-0.5)"),
    (
        mx.LoxodromeTriple(REAL_AXIS, UNIT, mx.Cycle(1, 0, 0, -4), -1),
        "LoxodromeTriple(c1=Cycle(k=0.0, l=0.0, n=1.0, m=0.0), c2=Cycle(k=1.0, l=0.0, n=0.0, m=-1.0), "
        "c3=Cycle(k=1.0, l=0.0, n=0.0, m=-4.0), sign=-1)",
    ),
    (
        mx.MembershipReport(False, flags=("limit_point",)),
        "MembershipReport(member=False, lhs=None, rhs=None, flags=('limit_point',))",
    ),
    (
        mx.RenderConfig(samples=64, t_max=2.5),
        "RenderConfig(samples=64, t_min=-3.0, t_max=2.5, width=800, height=600, precision=6)",
    ),
    (SceneObject("P", "point", INF), "SceneObject(id='P', kind='point', value=ExtendedPoint(w1=(1+0j), w2=0j))"),
]


@pytest.mark.parametrize("value,text", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_contract(value, text):
    fields = tuple(value)
    assert fields == tuple(getattr(value, name) for name in value._fields)
    assert value == type(value)(*fields) and not value != type(value)(*fields)
    assert value != fields and fields != value and not value == fields and not fields == value
    assert repr(value) == text
    assert hash(value) == hash(fields)  # a frozen dataclass's hash: that of its fields' tuple
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], fields[0])
    for tuple_op in (lambda: value + value, lambda: value < value, lambda: fields + value):
        with pytest.raises(TypeError):
            tuple_op()


def test_derived_values_are_checked():
    with pytest.raises(InvalidInput, match="must not all vanish"):
        UNIT._replace(k=0, m=0)
    with pytest.raises(InvalidInput, match="sign must be"):
        mx.LoxodromeTriple._make([UNIT, UNIT, UNIT, 0])
    with pytest.raises(InvalidInput, match="eps_mod"):
        mx.DEFAULT_TOLERANCES._replace(eps_mod=1.0)
