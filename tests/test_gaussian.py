"""Incremental Gaussian stats against two-pass and high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest

from streamtree.gaussian import GaussianStats, normal_cdf


def fit(xs):
    gs = GaussianStats()
    for x in xs:
        gs.update(float(x))
    return gs


class TestUpdate:
    def test_hand_trace_1_2_3(self):
        gs = fit([1, 2, 3])
        assert gs.mean == pytest.approx(2.0, abs=1e-12)
        assert gs.variance == pytest.approx(1.0, abs=1e-12)

    def test_seeding(self):
        gs = fit([5.0])
        assert gs.mean == 5.0
        assert gs.weight_sum == 1.0
        assert gs.variance_sum == 0.0
        with pytest.raises(ValueError):
            gs.variance

    def test_constant_stream(self):
        gs = fit([3.7] * 50)
        assert gs.mean == 3.7
        assert gs.variance == 0.0

    def test_nonpositive_weight_rejected(self):
        gs = GaussianStats()
        with pytest.raises(ValueError):
            gs.update(1.0, 0.0)

    def test_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        for n in (2, 10, 1000, 10_000):
            xs = rng.normal(3.0, 2.0, n)
            gs = fit(xs)
            m = float(np.mean(xs))
            v = float(np.var(xs, ddof=1))
            assert gs.mean == pytest.approx(m, rel=1e-9)
            assert gs.variance == pytest.approx(v, rel=1e-9)

    def test_permutation_stability(self):
        rng = np.random.default_rng(9)
        xs = rng.uniform(-1, 1, 5000)
        a = fit(xs)
        b = fit(xs[::-1])
        assert b.mean == pytest.approx(a.mean, abs=1e-12)
        assert b.variance == pytest.approx(a.variance, rel=1e-9)


class TestCdf:
    def test_at_mean(self):
        gs = fit([0.0, 2.0])  # mean 1, var 2
        assert gs.cdf(1.0) == pytest.approx(0.5, abs=1e-12)

    def test_standard_normal_at_one(self):
        assert normal_cdf(1.0, 0.0, 1.0) == pytest.approx(0.841345, abs=1e-6)

    def test_against_mpmath(self):
        # |error| <= 1e-7 against the exact normal CDF
        for z in np.linspace(-6, 6, 121):
            exact = float(mpmath.ncdf(z))
            assert abs(normal_cdf(float(z), 0.0, 1.0) - exact) <= 1e-7

    def test_degenerate_step(self):
        gs = fit([2.0])
        assert gs.cdf(1.9) == 0.0
        assert gs.cdf(2.0) == 1.0
        gs2 = fit([2.0, 2.0, 2.0])
        assert gs2.cdf(1.9) == 0.0
        assert gs2.cdf(2.1) == 1.0

    def test_monotone_and_open_range(self):
        gs = fit([0.0, 1.0, 2.0, 3.0])
        pts = np.linspace(-50, 50, 401)
        vals = [gs.cdf(float(p)) for p in pts]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert 0.0 < gs.cdf(-8.0) < gs.cdf(11.0) < 1.0


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
