"""Q2.30 representation and saturating arithmetic, through the array kernels
and against exact rational oracles."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamtree import fixed_point as fx
from streamtree.leaf_stats import StatsPool, default_targets
from streamtree.schema import AttributeSpec, DatasetSchema
from streamtree.tree import TreeConfig


def rational_round_half_even(fr: Fraction) -> int:
    # Independent oracle: exact rational scaling + banker's rounding.
    q, r = divmod(fr.numerator, fr.denominator)
    rem = Fraction(r, fr.denominator)
    if rem > Fraction(1, 2) or (rem == Fraction(1, 2) and q % 2 == 1):
        q += 1
    return q


def saturate(v: int) -> int:
    return max(fx.RAW_MIN, min(fx.RAW_MAX, v))


def oracle_raw(x: float) -> int:
    """The Q2.30 word of the real x: exact scaling, round half to even, saturate."""
    return saturate(rational_round_half_even(Fraction(x) * fx.SCALE))


def oracle_mul(a: int, b: int) -> int:
    """The Q2.30 product of two raw words: exact, round half to even, saturate."""
    return saturate(rational_round_half_even(Fraction(a * b, fx.SCALE)))


def to_raw(x: float) -> int:
    """x through `float_to_raw_array`, as one word."""
    raw, _ = fx.float_to_raw_array(np.array([x]))
    return int(raw[0])


def mul(a: int, b: int) -> int:
    """The raw words a * b through `mul_raw_array`, as one word."""
    return int(fx.mul_raw_array(*np.array([[a], [b]], dtype=np.int64))[0])


class TestScalarConversion:
    """Single values through `float_to_raw_array`."""

    def test_zero(self):
        assert to_raw(0.0) == oracle_raw(0.0) == 0

    def test_one(self):
        assert to_raw(1.0) == oracle_raw(1.0) == 1 << 30

    def test_max_representable(self):
        assert to_raw(2.0 - 2.0 ** -30) == oracle_raw(2.0 - 2.0 ** -30) == fx.RAW_MAX
        assert fx.RAW_MAX / fx.SCALE == 2.0 - 2.0 ** -30

    def test_min_representable(self):
        assert to_raw(-2.0) == oracle_raw(-2.0) == fx.RAW_MIN
        assert fx.RAW_MIN / fx.SCALE == -2.0

    def test_nearest_representable(self):
        # 0.0103515627 is not exactly representable; oracle gives the
        # nearest raw value under round-half-even.
        x = 0.0103515627
        raw = to_raw(x)
        assert raw == 11114906
        assert raw == rational_round_half_even(Fraction(x) * fx.SCALE)
        assert abs(raw / fx.SCALE - x) <= 2.0 ** -31

    def test_round_trip_bound_scalar(self):
        for x in (0.1, -0.7, 1.3333, -1.99999, 2.0 - 2.0 ** -30, 0.25):
            raw = to_raw(x)
            assert raw == oracle_raw(x)
            assert abs(raw / fx.SCALE - x) <= 2.0 ** -31

    def test_half_even_tie(self):
        # x = (2k+1) * 2^-31 sits exactly between two raws; must round to even.
        for x in (3.0 * 2.0 ** -31, 5.0 * 2.0 ** -31):
            assert to_raw(x) == oracle_raw(x) == 2
        assert to_raw(-3.0 * 2.0 ** -31) == oracle_raw(-3.0 * 2.0 ** -31) == -2

    def test_out_of_range_saturates(self):
        assert to_raw(2.5) == oracle_raw(2.5) == fx.RAW_MAX
        assert to_raw(-3.0) == oracle_raw(-3.0) == fx.RAW_MIN


def raw_sum(a: float, b: float) -> int:
    """a + b the way a fixed tracker steps: int64 add, then saturate."""
    raw, _ = fx.float_to_raw_array(np.array([a, b]))
    total = raw[:1] + raw[1:]
    fx.saturate_raw_array(total)
    return int(total[0])


class TestScalarArithmetic:
    """Single words through the tracker step's add and `mul_raw_array`."""

    def test_exact_add(self):
        assert raw_sum(0.5, 0.25) == oracle_raw(0.75)
        assert raw_sum(0.5, 0.25) / fx.SCALE == 0.75

    def test_exact_mul(self):
        a = to_raw(0.5)
        assert mul(a, a) == oracle_mul(a, a) == oracle_raw(0.25)

    def test_add_saturates_high(self):
        s = raw_sum(1.9, 1.9)
        assert s == saturate(oracle_raw(1.9) * 2) == fx.RAW_MAX
        assert s / fx.SCALE == 2.0 - 2.0 ** -30

    def test_sub_saturates_low(self):
        assert raw_sum(-1.9, -1.9) == saturate(oracle_raw(-1.9) * 2) == fx.RAW_MIN

    def test_mul_saturates(self):
        a = to_raw(1.9)
        assert mul(a, a) == oracle_mul(a, a) == fx.RAW_MAX
        b = to_raw(-1.9)
        assert mul(a, b) == oracle_mul(a, b) == fx.RAW_MIN

    def test_mul_rounding_matches_rational_oracle(self):
        pairs = [(0.3, 0.7), (-0.123, 0.456), (1.5, 0.9), (-1.1, -0.2)]
        ra, rb = (fx.float_to_raw_array(np.array(xs))[0] for xs in zip(*pairs))
        got = fx.mul_raw_array(ra, rb)
        assert got.dtype == np.int64
        assert got.tolist() == [oracle_mul(int(a), int(b)) for a, b in zip(ra, rb)]

    def test_comparisons(self):
        # trackers compare in raw units, so raw order must be real order
        assert to_raw(0.1) < to_raw(0.2)
        assert to_raw(-1.0) <= to_raw(-1.0)
        assert to_raw(-0.5) < to_raw(0.5)


words = st.integers(fx.RAW_MIN, fx.RAW_MAX)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(a=words, b=words)
@example(a=fx.RAW_MIN, b=fx.RAW_MIN)  # 2**62, the largest product
@example(a=fx.RAW_MIN, b=fx.RAW_MAX)
@example(a=fx.RAW_MAX, b=fx.RAW_MAX)
@example(a=5 << 29, b=1)  # ties: 2.5 and -2.5 ulps round to 2 and -2
@example(a=-5 << 29, b=1)
@example(a=7 << 29, b=-1)  # -3.5 to -4
@example(a=3 << 29, b=-1)  # -1.5 to -2
@example(a=-3 << 28, b=3)  # -2.25 to -2
def test_mul_raw_array_matches_rational_oracle(a, b):
    assert mul(a, b) == oracle_mul(a, b)


class TestVectorized:
    def test_round_trip_bound_bulk(self):
        rng = np.random.default_rng(42)
        xs = rng.uniform(-2.0, 2.0 - 2.0 ** -30, 1_000_000)
        raw, sat = fx.float_to_raw_array(xs)
        assert sat == 0
        back = raw / fx.SCALE
        assert np.max(np.abs(back - xs)) <= 2.0 ** -31

    def test_bulk_matches_scalar(self):
        rng = np.random.default_rng(7)
        xs = rng.uniform(-2.5, 2.5, 1000)
        raw, _ = fx.float_to_raw_array(xs)
        assert raw.tolist() == [oracle_raw(float(x)) for x in xs]

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
        want = [oracle_raw(x) for x in xs]
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
    xs = (-2.0, -1.0, 0.0, 1.0, 1.999, 2.0, -2.0001)
    raw, _ = fx.float_to_raw_array(np.array(xs))
    assert raw.tolist() == [oracle_raw(x) for x in xs]
    assert np.array_equal(raw.astype(np.int32), raw)


def test_resolution_is_2_pow_minus_30():
    assert to_raw(2.0 ** -30) == oracle_raw(2.0 ** -30) == 1
    assert to_raw(2.0 ** -31) == 0 and to_raw(3 * 2.0 ** -31) == 2  # ties to even
    assert math.ulp(1.0) < 2.0 ** -30  # float64 can hold every raw exactly


@pytest.mark.parametrize("lam", [1e-12, 0.01, 0.3, 1.0, 7.0, 1e300])
@pytest.mark.parametrize("count", [2, 3, 8, 24, 512])
def test_pool_steps_match_rational_oracle(lam, count):
    one = DatasetSchema((AttributeSpec("x", "numeric", declared_min=-1.0, declared_max=1.0),), 2)
    pool = StatsPool(one, TreeConfig(quantile_count=count, lam=lam, numeric_backend="fixed"), 1)
    lam_raw = oracle_raw(lam)
    targets = default_targets(count)
    assert pool.step_up[:, 0].tolist() == [oracle_mul(lam_raw, oracle_raw(a)) for a in targets]
    assert pool.step_down[:, 0].tolist() == [oracle_mul(lam_raw, oracle_raw(1.0 - a))
                                       for a in targets]
