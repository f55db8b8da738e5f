import math
import re
import sys

import pytest
from hypothesis import assume, example, given, strategies as st

from moeblox import (
    DEFAULT_TOLERANCES,
    Tolerances,
    congruent_mod,
)
from moeblox.errors import InvalidInput


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


class TestNegativeZero:
    @given(st.floats(min_value=-1e6, max_value=1e6), st.integers(0, 12))
    @example(-1e-9, 6)
    @example(-0.0, 0)
    @example(-0.4, 0)
    def test_one_rule_for_every_number_written(self, x, precision):
        # a number that rounds to zero is written "0.0...", without a sign,
        # by the rule itself, by a point's format and by every caller
        from moeblox import ExtendedPoint
        from moeblox.numerics import _clear_negative_zero

        text = f"{x:.{precision}f}"
        cleared = _clear_negative_zero(f"{text},{text} {text}", precision)
        want = text if float(text) != 0.0 else f"{0.0:.{precision}f}"
        assert cleared == f"{want},{want} {want}"
        assert ExtendedPoint.from_complex(complex(x, -x)).format(precision) == ",".join(
            [want, _clear_negative_zero(f"{-x:.{precision}f}", precision)]
        )
        assert not re.search(r"(^|,)-0(\.0*)?(,|$)", ExtendedPoint.from_complex(complex(x, -x)).format(precision))
