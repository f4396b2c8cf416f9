"""Q2.30 fixed-point representation and saturating arithmetic."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from streamtree import fixed_point as fx


def rational_round_half_even(fr: Fraction) -> int:
    # Independent oracle: exact rational scaling + banker's rounding.
    q, r = divmod(fr.numerator, fr.denominator)
    rem = Fraction(r, fr.denominator)
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and q % 2 == 1):
        q += 1
    return q


class TestScalarConversion:
    def test_zero(self):
        assert fx.float_to_raw(0.0) == 0

    def test_one(self):
        assert fx.float_to_raw(1.0) == 1 << 30

    def test_max_representable(self):
        assert fx.raw_to_float(fx.RAW_MAX) == 2.0 - 2.0 ** -30

    def test_min_representable(self):
        assert fx.raw_to_float(fx.RAW_MIN) == -2.0

    def test_nearest_representable(self):
        # 0.0103515627 is not exactly representable; oracle gives the
        # nearest raw value under round-half-even.
        x = 0.0103515627
        raw = fx.float_to_raw(x)
        assert raw == 11114906
        assert raw == rational_round_half_even(Fraction(x) * fx.SCALE)
        assert abs(fx.raw_to_float(raw) - x) <= 2.0 ** -31

    def test_round_trip_bound_scalar(self):
        for x in (0.1, -0.7, 1.3333, -1.99999, 2.0 - 2.0 ** -30, 0.25):
            raw = fx.float_to_raw(x)
            assert abs(fx.raw_to_float(raw) - x) <= 2.0 ** -31

    def test_half_even_tie(self):
        # x = (2k+1) * 2^-31 sits exactly between two raws; must round to even.
        x = 3.0 * 2.0 ** -31
        assert fx.float_to_raw(x) == 2
        x = 5.0 * 2.0 ** -31
        assert fx.float_to_raw(x) == 2

    def test_out_of_range_saturates(self):
        assert fx.float_to_raw(2.5) == fx.RAW_MAX
        assert fx.float_to_raw(-3.0) == fx.RAW_MIN


def raw_sum(a: float, b: float) -> int:
    """a + b the way a fixed tracker steps: int64 add, then saturate."""
    raw = np.array([fx.float_to_raw(a) + fx.float_to_raw(b)], dtype=np.int64)
    fx.saturate_raw_array(raw)
    return int(raw[0])


class TestScalarArithmetic:
    def test_exact_add(self):
        assert fx.raw_to_float(raw_sum(0.5, 0.25)) == 0.75

    def test_exact_mul(self):
        a = fx.float_to_raw(0.5)
        assert fx.raw_to_float(fx.mul_raw(a, a)) == 0.25

    def test_add_saturates_high(self):
        s = raw_sum(1.9, 1.9)
        assert s == fx.RAW_MAX
        assert fx.raw_to_float(s) == 2.0 - 2.0 ** -30

    def test_sub_saturates_low(self):
        assert raw_sum(-1.9, -1.9) == fx.RAW_MIN

    def test_mul_saturates(self):
        a = fx.float_to_raw(1.9)
        assert fx.mul_raw(a, a) == fx.RAW_MAX
        b = fx.float_to_raw(-1.9)
        assert fx.mul_raw(a, b) == fx.RAW_MIN

    def test_mul_rounding_matches_rational_oracle(self):
        pairs = [(0.3, 0.7), (-0.123, 0.456), (1.5, 0.9), (-1.1, -0.2)]
        for xa, xb in pairs:
            ra, rb = fx.float_to_raw(xa), fx.float_to_raw(xb)
            got = fx.mul_raw(ra, rb)
            want = rational_round_half_even(Fraction(ra * rb, fx.SCALE))
            want = max(fx.RAW_MIN, min(fx.RAW_MAX, want))
            assert got == want

    def test_comparisons(self):
        # trackers compare in raw units, so raw order must be real order
        assert fx.float_to_raw(0.1) < fx.float_to_raw(0.2)
        assert fx.float_to_raw(-1.0) <= fx.float_to_raw(-1.0)
        assert fx.float_to_raw(-0.5) < fx.float_to_raw(0.5)


class TestVectorized:
    def test_round_trip_bound_bulk(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(-2.0, 2.0 - 2.0 ** -30, 1_000_000)
        raw, sat = fx.float_to_raw_array(xs)
        assert sat == 0
        back = fx.raw_to_float_array(raw)
        assert np.max(np.abs(back - xs)) <= 2.0 ** -31

    def test_bulk_matches_scalar(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-2.5, 2.5, 1000)
        raw, _ = fx.float_to_raw_array(xs)
        for x, r in zip(xs, raw):
            assert fx.float_to_raw(float(x)) == int(r)

    def test_saturation_count(self):
        xs = np.array([0.0, 2.4, -2.4, 1.0, 3.0])
        raw, sat = fx.float_to_raw_array(xs)
        assert sat == 3
        assert raw[1] == fx.RAW_MAX and raw[2] == fx.RAW_MIN and raw[4] == fx.RAW_MAX

    def test_huge_and_edge_values_agree_with_scalar(self):
        # clipped in float before the product and the int64 cast, so huge
        # values neither overflow nor wrap to the wrong edge
        xs = [1e10, -1e10, 1e300, -1e300, 2.0, -2.0, 2.0 - 2.0 ** -30,
              2.0 - 2.0 ** -31, -2.0 - 2.0 ** -31, -2.0 - 2.0 ** -30,
              2.0 ** 33, -(2.0 ** 33), 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            raw, sat = fx.float_to_raw_array(np.array(xs))
            want = [fx.float_to_raw(x) for x in xs]
        assert raw.tolist() == want
        assert want[:4] == [fx.RAW_MAX, fx.RAW_MIN, fx.RAW_MAX, fx.RAW_MIN]
        assert want[4:10] == [fx.RAW_MAX, fx.RAW_MIN, fx.RAW_MAX, fx.RAW_MAX,
                              fx.RAW_MIN, fx.RAW_MIN]
        # -2 and 2 - 2**-30 are words; -2 - 2**-31 rounds to the even -2
        assert sat == 9

    def test_saturate_raw_array(self):
        raw = np.array([0, fx.RAW_MAX + 5, fx.RAW_MIN - 5, 17], dtype=np.int64)
        n = fx.saturate_raw_array(raw)
        assert n == 2
        assert raw.tolist() == [0, fx.RAW_MAX, fx.RAW_MIN, 17]


def test_all_raws_in_int32_range():
    for x in (-2.0, -1.0, 0.0, 1.0, 1.999, 2.0, -2.0001):
        r = fx.float_to_raw(x)
        assert np.int32(r) == r


def test_resolution_is_2_pow_minus_30():
    assert fx.raw_to_float(1) == 2.0 ** -30
    assert math.ulp(1.0) < 2.0 ** -30  # float64 can hold every raw exactly
