import math
import re
import sys

import pytest
from hypothesis import assume, example, given, strategies as st

from moeblox import (
    DEFAULT_TOLERANCES,
    Tolerances,
    clamped_acos,
    clamped_acosh,
    congruent_mod,
)
from moeblox.errors import InvalidInput, NumericalBreakdown


def _acos_newton(value, x0=1.5):
    """Invert the cosine by Newton iteration; independent of math.acos."""
    x = x0
    for _ in range(60):
        x -= (math.cos(x) - value) / (-math.sin(x))
    return x


def _acosh_exponential(value):
    """Exponential-based inverse of cosh: log(v + sqrt(v^2 - 1))."""
    return math.log(value + math.sqrt(value * value - 1.0))


class TestTolerances:
    def test_defaults(self):
        t = DEFAULT_TOLERANCES
        assert (t.eps_product, t.eps_angle, t.eps_mod) == (1e-9, 1e-7, 1e-6)

    @pytest.mark.parametrize("bad", [0.0, -1e-9, 1e-2, 5.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(InvalidInput):
            Tolerances(eps_product=bad)

    def test_parse_single(self):
        assert Tolerances.parse("1e-8").eps_product == 1e-8

    def test_parse_triple(self):
        t = Tolerances.parse("1e-8, 1e-6, 1e-5")
        assert (t.eps_product, t.eps_angle, t.eps_mod) == (1e-8, 1e-6, 1e-5)

    @pytest.mark.parametrize("text", ["", "a", "1e-8,1e-6", "1,2,3,4"])
    def test_parse_rejects(self, text):
        with pytest.raises(InvalidInput):
            Tolerances.parse(text)

    @pytest.mark.parametrize("text", ["1_0e-10", "\u0661e-9", "1e400", "nan"])
    def test_parse_reads_ascii_decimals_only(self, text):
        # float() takes the first three as 1e-9, 1e-9 and inf
        with pytest.raises(InvalidInput, match=re.escape(repr(text))):
            Tolerances.parse(text)

    def test_parse_quotes_a_long_spec_in_part(self):
        with pytest.raises(InvalidInput) as info:
            Tolerances.parse("x" * 100_000)
        assert len(str(info.value)) < 300


class TestClampedAcos:
    def test_boundaries(self):
        assert clamped_acos(1.0) == 0.0
        assert clamped_acos(-1.0) == pytest.approx(math.pi)

    def test_cos_of_one(self):
        value = 0.5403023  # cos(1) rounded; oracle refines below
        assert clamped_acos(value) == pytest.approx(_acos_newton(value), abs=1e-12)
        assert clamped_acos(math.cos(1.0)) == pytest.approx(1.0, abs=1e-7)

    def test_overshoot_tolerated(self):
        assert clamped_acos(1.0 + 5e-10) == 0.0
        assert clamped_acos(-1.0 - 5e-10) == pytest.approx(math.pi)

    @pytest.mark.parametrize("x", [1.1, -1.1, 1.0 + 1e-8])
    def test_domain_error(self, x):
        with pytest.raises(NumericalBreakdown, match=r"^acos argument .* outside \[-1-eps, 1\+eps\]$"):
            clamped_acos(x)

    @given(st.floats(min_value=1e-7, max_value=math.pi - 1e-7))
    def test_left_inverse_of_cos(self, x):
        assert abs(clamped_acos(math.cos(x)) - x) <= DEFAULT_TOLERANCES.eps_angle


class TestClampedAcosh:
    def test_boundary(self):
        assert clamped_acosh(1.0) == 0.0

    def test_cosh_of_one(self):
        value = 1.5430806
        assert clamped_acosh(value) == pytest.approx(
            _acosh_exponential(value), abs=1e-12
        )
        assert clamped_acosh(math.cosh(1.0)) == pytest.approx(1.0, abs=1e-7)

    def test_undershoot_tolerated(self):
        assert clamped_acosh(1.0 - 5e-10) == 0.0

    def test_domain_error(self):
        with pytest.raises(NumericalBreakdown, match=r"^acosh argument 0\.9 below 1-eps$"):
            clamped_acosh(0.9)

    @given(st.floats(min_value=1e-7, max_value=20.0))
    def test_left_inverse_of_cosh(self, x):
        err = abs(clamped_acosh(math.cosh(x)) - x)
        assert err <= DEFAULT_TOLERANCES.eps_angle * (1.0 + abs(x))


class TestCongruentMod:
    def test_examples(self):
        assert congruent_mod(0.75, 0.25, 0.5)
        assert not congruent_mod(0.3, 0.0, 0.5)
        assert congruent_mod(1.0, 0.0, 1.0)

    def test_bad_modulus(self):
        with pytest.raises(InvalidInput):
            congruent_mod(0.0, 0.0, 0.0)

    @given(
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=0.01, max_value=10),
    )
    def test_symmetric(self, a, b, modulus):
        assert congruent_mod(a, b, modulus) == congruent_mod(b, a, modulus)

    @given(
        st.floats(min_value=-40, max_value=40),
        st.floats(min_value=-40, max_value=40),
        st.floats(min_value=0.5, max_value=4),
        st.integers(min_value=-5, max_value=5),
    )
    @example(a=1e-6, b=0.0, modulus=0.5, j=1)  # on the boundary: assumed away
    @example(a=0.9e-6, b=0.0, modulus=0.5, j=1)
    @example(a=1.1e-6, b=0.0, modulus=0.5, j=1)
    def test_shift_invariant(self, a, b, modulus, j):
        # a + j * modulus and its difference from b are rounded, so the
        # shifted input is an exact shift only up to a few ulps of the
        # operands; keep a - b further than that from the eps_mod boundary
        roundoff = 4 * sys.float_info.epsilon * (abs(a) + abs(j * modulus) + abs(b))
        distance = abs(math.remainder(a - b, modulus))
        assume(abs(distance - DEFAULT_TOLERANCES.eps_mod) > roundoff)
        assert congruent_mod(a, b, modulus) == congruent_mod(a + j * modulus, b, modulus)
