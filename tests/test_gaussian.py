"""The Welford kernel on a one-element pool against two-pass oracles, and
`normal_cdf` against high-precision ones."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from reference_kernels import welford
from streamtree.gaussian import normal_cdf
from streamtree.leaf_stats import StatsPool
from streamtree.schema import AttributeSpec, DatasetSchema
from streamtree.tree import TreeConfig

ONE = DatasetSchema((AttributeSpec("x", "numeric", declared_min=-1.0, declared_max=1.0),), 2)


def fit(xs):
    """A one-element gaussian pool fed xs in order under class 0."""
    pool = StatsPool(ONE, TreeConfig(method="gaussian"), 1)
    assert pool.alloc() == 0
    for x in xs:
        pool.observe(0, [float(x)], 0)
    return pool


def mean(pool):
    return float(pool.g_mean[0, 0, 0])


def variance(pool):
    return float(pool.g_vsum[0, 0, 0]) / (int(pool.n_fj[0, 0]) - 1)


def cdf(pool, pts):
    """P(X < pt) under the fit, read from the split-trial table."""
    pts = np.atleast_1d(np.asarray(pts, dtype=np.float64))
    table = pool.numeric_partition_table(0, np.array([True]), pts[None, :])
    return (table[0, :, 0] / pool.n_fj[0, 0]).tolist()


class TestUpdate:
    def test_hand_trace_1_2_3(self):
        pool = fit([1, 2, 3])
        assert mean(pool) == pytest.approx(2.0, abs=1e-12)
        assert variance(pool) == pytest.approx(1.0, abs=1e-12)

    def test_seeding(self):
        pool = fit([5.0])
        assert mean(pool) == 5.0
        assert pool.n_fj[0, 0] == 1
        assert pool.g_vsum[0, 0, 0] == 0.0
        # no variance from one sample: the fit is a step at the mean
        assert cdf(pool, [4.9, 5.0]) == [0.0, 1.0]

    def test_constant_stream(self):
        pool = fit([3.7] * 50)
        assert mean(pool) == 3.7
        assert variance(pool) == 0.0

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        for n in (2, 10, 1000, 10_000):
            xs = rng.normal(3.0, 2.0, n)
            pool = fit(xs)
            m = float(np.mean(xs))
            v = float(np.var(xs, ddof=1))
            assert mean(pool) == pytest.approx(m, rel=1e-9)
            assert variance(pool) == pytest.approx(v, rel=1e-9)
            assert (mean(pool), float(pool.g_vsum[0, 0, 0])) == welford(xs.tolist())

    def test_permutation_stability(self):
        rng = np.random.default_rng(9)
        xs = rng.uniform(-1, 1, 5000)
        a = fit(xs)
        b = fit(xs[::-1])
        assert mean(b) == pytest.approx(mean(a), abs=1e-12)
        assert variance(b) == pytest.approx(variance(a), rel=1e-9)


class TestCdf:
    def test_at_mean(self):
        pool = fit([0.0, 2.0])  # mean 1, var 2
        assert cdf(pool, 1.0) == [pytest.approx(0.5, abs=1e-12)]

    def test_standard_normal_at_one(self):
        assert normal_cdf(1.0, 0.0, 1.0) == pytest.approx(0.841345, abs=1e-6)

    def test_against_mpmath(self):
        # |error| <= 1e-7 against the exact normal CDF
        for z in np.linspace(-6, 6, 121):
            exact = float(mpmath.ncdf(z))
            assert abs(normal_cdf(float(z), 0.0, 1.0) - exact) <= 1e-7

    def test_degenerate_step(self):
        assert cdf(fit([2.0]), [1.9, 2.0]) == [0.0, 1.0]
        assert cdf(fit([2.0, 2.0, 2.0]), [1.9, 2.1]) == [0.0, 1.0]

    def test_monotone_and_open_range(self):
        pool = fit([0.0, 1.0, 2.0, 3.0])
        vals = cdf(pool, np.linspace(-50, 50, 401))
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        lo, hi = cdf(pool, [-8.0, 11.0])
        assert 0.0 < lo < hi < 1.0


def test_mean_shift_scales_z():
    assert normal_cdf(3.0, 1.0, 4.0) == pytest.approx(normal_cdf(1.0, 0.0, 1.0), abs=1e-12)


def test_array_call_keeps_the_bits_of_math_erf():
    rng = np.random.default_rng(3)
    pts = rng.normal(0, 2, (6, 1))
    means = rng.normal(0, 1, (1, 5))
    variances = np.array([[0.0, 1e-300, 0.5, 2.0, -1.0]])  # steps at 0.0 and -1.0
    table = normal_cdf(pts, means, variances)
    assert table.shape == (6, 5)
    for i in range(6):
        for j in (1, 2, 3):
            z = (float(pts[i, 0]) - float(means[0, j])) / math.sqrt(float(variances[0, j]))
            assert table[i, j] == 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
            assert table[i, j] == normal_cdf(float(pts[i, 0]), float(means[0, j]),
                                             float(variances[0, j]))
    assert np.all(table[:, [0, 4]] == (pts >= means[:, [0, 4]]))


def oracle_cdf(pt: float, mean: float, variance: float) -> float:
    """The CDF one entry at a time, in the float order of the formula."""
    if variance <= 0.0:
        return 0.0 if pt < mean else 1.0
    return 0.5 * (1.0 + math.erf(((pt - mean) / math.sqrt(variance)) / math.sqrt(2.0)))


# bounded so pt - mean cannot overflow; subnormal variances are in range
REAL = st.floats(-1e6, 1e6)
FITTED = st.floats(0.0, 1e6, exclude_min=True)
STEP = st.one_of(st.just(0.0), st.just(-0.0), st.floats(-1e6, 0.0))


@st.composite
def cdf_args(draw):
    """pt, mean and variance of mutually broadcastable shapes, a shape ()
    given as a Python float; the variances are all fitted, all steps or
    mixed."""
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=3, max_dims=3, max_side=6))
    share = draw(st.sampled_from([0.0, 0.5, 1.0]))  # of fitted variances
    if draw(st.booleans()):
        pt, mean, variance = (draw(hnp.arrays(np.float64, shape, elements=elements))
                              for shape, elements in zip(shapes.input_shapes, (
                                  REAL, REAL, {0.0: STEP, 0.5: st.one_of(FITTED, STEP),
                                               1.0: FITTED}[share])))
    else:
        # full-mantissa reals where z is O(1), which most often carry a
        # one-ulp change in the argument to erf into the CDF's bits
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        pt_shape, mean_shape, var_shape = shapes.input_shapes
        pt = rng.normal(0.0, 2.0, pt_shape)
        mean = rng.normal(0.0, 1.0, mean_shape)
        variance = np.where(rng.random(var_shape) < share, rng.uniform(0.1, 4.0, var_shape), 0.0)
    return tuple(a.item() if a.ndim == 0 else a for a in (pt, mean, variance))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cdf_args())
def test_normal_cdf_matches_the_scalar_oracle(args):
    got = normal_cdf(*args)
    cols = np.broadcast_arrays(*args)
    want = [oracle_cdf(*entry) for entry in zip(*(c.ravel().tolist() for c in cols))]
    if cols[0].ndim == 0:
        assert type(got) is float
        assert got == want[0]
    else:
        assert got.dtype == np.float64 and got.shape == cols[0].shape
        assert got.ravel().tolist() == want

