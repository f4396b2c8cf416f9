"""The quantile-tracker kernel on a one-element pool, and CDF reconstruction."""

import time

import numpy as np
import pytest

from reference_kernels import track_quantiles
from streamtree import fixed_point as fx
from streamtree.harness import _cdf_curve, export_cdf_comparison
from streamtree.leaf_stats import StatsPool, default_targets
from streamtree.schema import AttributeSpec, DatasetSchema, Sample
from streamtree.tree import TreeConfig

ONE = DatasetSchema((AttributeSpec("x", "numeric", declared_min=-1.0, declared_max=1.0),), 2)


def bank_pool(count=8, lam=0.01, attrs=1, backend="float"):
    """A one-element quantile pool over `attrs` numeric attributes."""
    schema = DatasetSchema(ONE.attributes * attrs, 2)
    pool = StatsPool(schema, TreeConfig(quantile_count=count, lam=lam,
                                        numeric_backend=backend), 1)
    assert pool.alloc() == 0
    return pool


def pool_at(values, lam=0.01):
    """A one-element pool whose class-0 bank holds `values`, one tracker per
    default target of len(values)."""
    pool = bank_pool(len(values), lam)
    pool.observe(0, [values[0]], 0)
    pool.trackers[0, 0, :, 0] = values
    return pool


def feed(pool, xs):
    """Observe the rows of xs, shape (n, attrs), in order under class 0."""
    for row in np.asarray(xs, dtype=np.float64).reshape(len(xs), -1).tolist():
        pool.observe(0, row, 0)


def bank(pool, attr=0):
    return pool.trackers[0, 0, :, attr].tolist()


def mass_below(pool, pts):
    """The kernel's CDF estimate at pts, read from the split-trial table:
    the fraction of class-0 trackers strictly below each point."""
    pts = np.atleast_1d(np.asarray(pts, dtype=np.float64))
    table = pool.numeric_partition_table(0, np.array([True]), pts[None, :])
    return (table[0, :, 0] / pool.n_fj[0, 0]).tolist()


class TestAsymSignum:
    """One tracker step: up by lam * alpha while below the sample, down by
    lam * (1 - alpha) otherwise."""

    def test_negative_branch(self):
        pool = pool_at([0.2, 0.2, 0.2])  # targets 1/4, 1/2, 3/4
        pool.observe(0, [0.4], 0)
        assert bank(pool)[0] == 0.2 + 0.01 * 0.25

    def test_zero_takes_upper_branch(self):
        # a tracker equal to its sample is not below it, so it steps down
        pool = pool_at([0.4, 0.4, 0.4])
        pool.observe(0, [0.4], 0)
        assert bank(pool)[0] == 0.4 - 0.01 * 0.75
        assert bank(pool) == [0.4 - 0.01 * (1 - a) for a in pool.targets]

    def test_zero_takes_upper_branch_in_raw_words(self):
        # the fixed backend: a tracker whose Q2.30 word equals the sample's
        # steps down by its step_down word; one word below steps up
        pool = bank_pool(3, backend="fixed")
        pool.observe(0, [0.4], 0)
        word = int(fx.quantize_array(np.array([0.4]))[0])
        start = [word, word - 1, word + 1]
        pool.trackers[0, 0, :, 0] = start
        pool.observe(0, [0.4], 0)
        up, down = pool.step_up[:, 0].tolist(), pool.step_down[:, 0].tolist()
        assert min(down) > 0
        assert bank(pool) == [word - down[0], word - 1 + up[1], word + 1 - down[2]]

    def test_median_case(self):
        pool = pool_at([0.5, 0.5, 0.5])
        pool.observe(0, [0.8], 0)
        assert bank(pool)[1] == 0.5 + 0.01 * 0.5
        pool.observe(0, [0.1], 0)
        assert bank(pool)[1] == 0.5 + 0.01 * 0.5 - 0.01 * 0.5


class TestTargets:
    def test_default_spacing(self):
        t = default_targets(8)
        assert t == tuple(k / 9 for k in range(1, 9))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            default_targets(1)
        with pytest.raises(ValueError):
            bank_pool(count=1)

    def test_strictly_increasing_required(self):
        # targets are built, not given, so every bank's are strictly
        # increasing and interior
        for count in (2, 3, 8, 64, 512):
            t = bank_pool(count=count).targets
            assert len(t) == count
            assert np.all(np.diff(t) > 0)
            assert 0.0 < t[0] and t[-1] < 1.0


class TestUpdate:
    def test_step_up_when_sample_above(self):
        pool = pool_at([0.5, 0.5, 0.5])
        pool.observe(0, [0.7], 0)
        # Q < x: Q' = Q + lam*alpha
        assert bank(pool)[0] == pytest.approx(0.5025, abs=1e-12)

    def test_step_down_when_sample_below(self):
        pool = pool_at([0.5, 0.5, 0.5])
        pool.observe(0, [0.3], 0)
        # Q >= x: Q' = Q - lam*(1-alpha)
        assert bank(pool)[0] == pytest.approx(0.4925, abs=1e-12)

    def test_negative_lam_rejected(self):
        # a pool takes its gain from a TreeConfig, which rejects lam <= 0
        for lam in (-0.01, 0.0):
            with pytest.raises(ValueError, match="lam"):
                TreeConfig(lam=lam)
            with pytest.raises(ValueError, match="lam"):
                export_cdf_comparison(lambda: iter([Sample([0.5], 0)]), ONE, 0, 10,
                                      lam=lam)

    def test_first_sample_seeds_all(self):
        pool = bank_pool(8)
        assert pool.n_fj[0, 0] == 0
        pool.observe(0, [0.37], 0)
        assert bank(pool) == [0.37] * 8
        assert pool.n_fj[0, 0] == 1

    def test_seen_count_tracks(self):
        pool = bank_pool(4)
        feed(pool, [0.1, 0.2, 0.3])
        assert pool.n_f[0] == pool.n_fj[0, 0] == 3

    def test_all_samples_above_push_every_tracker_up(self):
        pool = pool_at([0.0, 0.0, 0.0])
        prev = bank(pool)
        for _ in range(5):
            pool.observe(0, [10.0], 0)
            for k, a in enumerate(pool.targets):
                assert bank(pool)[k] == pytest.approx(prev[k] + 0.01 * a, abs=1e-12)
            prev = bank(pool)

    def test_update_many_matches_update(self):
        # the pool, one sample per call, against the quantile-major reference
        rng = np.random.default_rng(3)
        xs = rng.normal(0.0, 1.0, 2000)
        pool = bank_pool(8)
        feed(pool, xs)
        assert bank(pool) == track_quantiles(xs, default_targets(8), 0.01)
        assert pool.n_fj[0, 0] == 2000


class TestCdfBelow:
    def test_hand_count(self):
        pool = pool_at([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        assert mass_below(pool, 0.45) == [0.5]

    def test_extremes(self):
        pool = pool_at([0.2, 0.4, 0.6])
        assert mass_below(pool, [0.1, 0.9]) == [0.0, 1.0]

    def test_tie_not_counted(self):
        # strict <: a quantile equal to pt does not count as below
        pool = pool_at([0.2, 0.4, 0.6, 0.8])
        assert mass_below(pool, 0.4) == [0.25]

    def test_permutation_invariance(self):
        vals = [0.7, 0.1, 0.5, 0.3]
        pts = np.linspace(-0.5, 1.5, 33)
        assert mass_below(pool_at(vals), pts) == mass_below(pool_at(sorted(vals)), pts)

    def test_monotone_in_pt(self):
        rng = np.random.default_rng(11)
        pool = bank_pool(8)
        feed(pool, rng.normal(0, 0.3, 5000))
        vals = mass_below(pool, np.linspace(-1.2, 1.2, 200))
        assert all(x <= y for x, y in zip(vals, vals[1:]))


@pytest.fixture(scope="module")
def converged():
    """One pool fed three 200k streams as three attributes: uniform and
    truncated normal (seed 0), and uniform (seed 12)."""
    rng = np.random.default_rng(0)
    uniform = rng.uniform(0.0, 1.0, 200_000)
    rng = np.random.default_rng(0)
    ys = rng.normal(0.0, 0.25, 300_000)
    ys = ys[(ys >= -1.0) & (ys <= 1.0)][:200_000]
    assert len(ys) == 200_000
    uniform12 = np.random.default_rng(12).uniform(0.0, 1.0, 200_000)
    pool = bank_pool(8, attrs=3)
    feed(pool, np.column_stack([uniform, ys, uniform12]))
    return pool, uniform, ys


@pytest.fixture(scope="module")
def equilibrium():
    """Time averages of each tracker over samples 200k..250k of a uniform
    stream, for seeds 0-4 as five attributes of one pool."""
    xs = np.column_stack([np.random.default_rng(seed).uniform(0.0, 1.0, 250_000)
                          for seed in range(5)])
    pool = bank_pool(8, attrs=5)
    feed(pool, xs[:200_000])
    acc = np.zeros((5, 8))
    v = pool.trackers[0, 0].T
    for row in xs[200_000:].tolist():
        pool.observe(0, row, 0)
        acc += v
    return acc / 50_000, pool.targets


class TestConvergence:
    # With a constant step size the tracker value fluctuates around the
    # true quantile forever (stationary noise ~ sqrt(lam*a*(1-a)/2f)), so
    # the final-snapshot checks below fix the stream; the time-averaged
    # test afterwards shows the equilibrium itself is correct on any seed.

    def test_uniform_stream(self, converged):
        pool, xs, _ = converged
        # Uniform(0,1): F(Q) = Q, so tracker error reads off directly.
        err = np.max(np.abs(pool.trackers[0, 0, :, 0] - pool.targets))
        assert err <= 0.05
        # a 200k pool pass takes seconds, so the time bound is held by the
        # scalar reference, which ends on the pool's bits
        t0 = time.perf_counter()
        ref = track_quantiles(xs, default_targets(8), 0.01)
        elapsed = time.perf_counter() - t0
        assert bank(pool) == ref
        assert elapsed < 1.0

    def test_truncated_normal_stream(self, converged):
        pool, _, ys = converged
        srt = np.sort(ys)
        for v, a in zip(bank(pool, 1), pool.targets):
            emp = np.searchsorted(srt, v, side="left") / len(srt)
            assert abs(emp - a) <= 0.05

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_equilibrium_time_average(self, seed, equilibrium):
        avg, targets = equilibrium
        assert np.max(np.abs(avg[seed] - targets)) <= 0.02


class TestCdfCurve:
    def test_exact_knots_and_anchors(self):
        vals = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        ys = _cdf_curve(vals, np.array(default_targets(8)),
                        np.array([0.0, 0.1, 0.45, 0.8, 1.0]), 0.0, 1.0)
        assert ys[0] == 0.0
        assert ys[1] == pytest.approx(1 / 9)
        assert ys[2] == pytest.approx((4 / 9 + 5 / 9) / 2)
        assert ys[3] == pytest.approx(8 / 9)
        assert ys[4] == 1.0

    def test_monotone_even_with_crossed_trackers(self):
        xs = np.linspace(0.0, 1.0, 101)
        ys = _cdf_curve(np.array([0.5, 0.3, 0.6, 0.2]), np.array(default_targets(4)),
                        xs, 0.0, 1.0)
        assert np.all(np.diff(ys) >= 0)
        assert ys[0] == 0.0 and ys[-1] == 1.0

    def test_uniform_reconstruction_error(self, converged):
        pool, _, _ = converged
        grid = np.linspace(0.0, 1.0, 1001)
        ys = _cdf_curve(pool.trackers[0, 0, :, 2], pool.targets, grid, 0.0, 1.0)
        assert np.max(np.abs(ys - grid)) <= 0.05  # true CDF of U(0,1) is x
