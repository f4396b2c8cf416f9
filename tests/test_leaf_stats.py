"""Pooled per-leaf statistics against scalar-model and exact-count oracles."""

import numpy as np
import pytest

from streamtree.gaussian import GaussianStats
from streamtree.leaf_stats import LeafElement, StaleElementError, StatsPool
from streamtree.quantiles import QuantileSet, default_targets
from streamtree.schema import AttributeSpec, DatasetSchema, Sample

TWO_NUM = DatasetSchema(
    (
        AttributeSpec("a0", "numeric", declared_min=-1.0, declared_max=1.0),
        AttributeSpec("a1", "numeric", declared_min=-1.0, declared_max=1.0),
    ),
    2,
)

MIXED = DatasetSchema(
    (
        AttributeSpec("a0", "numeric", declared_min=-1.0, declared_max=1.0),
        AttributeSpec("c0", "categorical", cardinality=3),
    ),
    2,
)


def make_pool(schema=TWO_NUM, **kw):
    kw.setdefault("capacity", 4)
    return StatsPool(schema, **kw)


class TestObserve:
    def test_seeding_path(self):
        pool = make_pool()
        el = LeafElement(pool, 0)
        el.observe(Sample([0.4, -0.2], 1))
        assert el.n_f == 1
        assert el.n_fj.tolist() == [0, 1]
        assert pool.min_a[0].tolist() == [0.4, -0.2]
        assert pool.max_a[0].tolist() == [0.4, -0.2]
        assert np.all(pool.trackers[0, 0, 1] == 0.4)
        assert np.all(pool.trackers[0, 1, 1] == -0.2)
        assert np.all(pool.trackers[0, :, 0] == 0.0)  # other class untouched

    def test_two_samples_update_in_order(self):
        pool = make_pool(lam=0.01)
        el = LeafElement(pool, 0)
        el.observe(Sample([0.5, 0.0], 0))
        el.observe(Sample([0.7, 0.0], 0))
        ref = QuantileSet(default_targets(8))
        ref.update(0.5, 0.01)
        ref.update(0.7, 0.01)
        assert pool.trackers[0, 0, 0].tolist() == pytest.approx(ref.values, abs=0.0)

    def test_counting(self):
        rng = np.random.default_rng(2)
        labels = np.concatenate([np.zeros(400, int), np.ones(600, int)])
        rng.shuffle(labels)
        pool = make_pool()
        el = LeafElement(pool, 0)
        for y in labels:
            el.observe(Sample([float(rng.uniform(-1, 1)), 0.0], int(y)))
        assert el.n_f == 1000
        assert el.n_fj.tolist() == [400, 600]

    def test_min_max_track_extremes(self):
        pool = make_pool()
        el = LeafElement(pool, 0)
        for x in (0.3, -0.8, 0.9, 0.1):
            el.observe(Sample([x, -x], 0))
        assert pool.min_a[0].tolist() == [-0.8, -0.9]
        assert pool.max_a[0].tolist() == [0.9, 0.8]

    def test_categorical_histogram(self):
        pool = make_pool(MIXED)
        el = LeafElement(pool, 0)
        el.observe(Sample([0.1, 2], 0))
        el.observe(Sample([0.1, 2], 1))
        el.observe(Sample([0.1, 0], 1))
        h = pool.hists[0]
        assert h[0, 2].tolist() == [1, 1]
        assert h[0, 0].tolist() == [0, 1]
        assert h[0, 1].tolist() == [0, 0]

    def test_pool_matches_scalar_trackers(self):
        # dual-surface check: flat pool vs the scalar QuantileSet contract
        rng = np.random.default_rng(8)
        pool = make_pool(lam=0.02)
        el = LeafElement(pool, 1)
        refs = {(a, c): QuantileSet(default_targets(8)) for a in range(2) for c in range(2)}
        for _ in range(3000):
            s = Sample([float(rng.uniform(-1, 1)), float(rng.normal(0, 0.3))],
                       int(rng.integers(0, 2)))
            el.observe(s)
            for a in range(2):
                refs[(a, s.label)].update(s.values[a], 0.02)
        for (a, c), ref in refs.items():
            assert pool.trackers[1, a, c].tolist() == pytest.approx(ref.values, abs=1e-12)

    def test_gaussian_pool_matches_scalar(self):
        rng = np.random.default_rng(8)
        pool = make_pool(method="gaussian")
        el = LeafElement(pool, 0)
        refs = {(a, c): GaussianStats() for a in range(2) for c in range(2)}
        for _ in range(2000):
            s = Sample([float(rng.uniform(-1, 1)), float(rng.normal(0, 0.3))],
                       int(rng.integers(0, 2)))
            el.observe(s)
            for a in range(2):
                refs[(a, s.label)].update(s.values[a])
        for (a, c), ref in refs.items():
            assert pool.g_mean[0, a, c] == pytest.approx(ref.mean, rel=1e-12)
            assert pool.g_vsum[0, a, c] == pytest.approx(ref.variance_sum, rel=1e-9)


class TestSplitPoints:
    def seeded(self, lo, hi):
        pool = make_pool()
        el = LeafElement(pool, 0)
        el.observe(Sample([lo, 0.0], 0))
        el.observe(Sample([hi, 0.0], 0))
        return el

    def test_ten_points_unit_range(self):
        el = self.seeded(0.0, 1.0)
        valid, pts = el.split_points(10)
        assert valid.tolist() == [True, False]  # a1 stayed at 0.0
        assert pts.shape == (1, 10)
        assert pts[0].tolist() == pytest.approx([p / 11 for p in range(1, 11)], abs=1e-12)

    def test_constant_attribute_empty(self):
        el = self.seeded(0.3, 0.3)
        valid, pts = el.split_points(10)
        assert not valid.any()
        assert pts.shape == (0, 10)

    def test_single_midpoint(self):
        el = self.seeded(-1.0, 1.0)
        _, pts = el.split_points(1)
        assert pts[0].tolist() == pytest.approx([0.0], abs=1e-12)

    def test_points_strictly_interior(self):
        el = self.seeded(-0.4, 0.9)
        pts = el.split_points(7)[1][0].tolist()
        assert all(-0.4 < p < 0.9 for p in pts)
        assert pts == sorted(pts)


def split_at(el, attr, pt):
    """(left, right) class counts of a numeric split at pt, from a one-point table."""
    valid = np.zeros(len(el.pool.numeric_idx), dtype=bool)
    valid[el.pool.num_sub[attr]] = True
    left = el.numeric_partition_table(valid, np.array([[pt]]))[0, 0]
    return left, el.n_fj - left


class TestDeducePartitions:
    def test_hand_count(self):
        pool = make_pool()
        el = LeafElement(pool, 0)
        pool.trackers[0, 0, 1] = np.arange(0.1, 0.9, 0.1)
        pool.n_fj[0, 1] = 80
        pool.n_f[0] = 80
        left, right = split_at(el, 0, 0.45)
        assert left[1] == pytest.approx(40.0)
        assert right[1] == pytest.approx(40.0)

    def test_pt_below_everything(self):
        pool = make_pool()
        el = LeafElement(pool, 0)
        rng = np.random.default_rng(1)
        for _ in range(50):
            el.observe(Sample([float(rng.uniform(0.2, 0.8)), 0.0], int(rng.integers(0, 2))))
        left, right = split_at(el, 0, -0.99)
        assert left.tolist() == [0.0, 0.0]
        assert right.tolist() == pytest.approx(el.n_fj.astype(float).tolist())

    def test_empty_class_contributes_zero(self):
        pool = make_pool()
        el = LeafElement(pool, 0)
        for x in (0.1, 0.5, 0.9):
            el.observe(Sample([x, 0.0], 0))
        left, right = split_at(el, 0, 0.6)
        assert left[1] == 0.0 and right[1] == 0.0

    def test_conservation(self):
        rng = np.random.default_rng(4)
        pool = make_pool()
        el = LeafElement(pool, 0)
        for _ in range(400):
            el.observe(Sample([float(rng.normal(0, 0.4)), 0.0], int(rng.integers(0, 2))))
        counts = el.n_fj.astype(float)
        for pt in np.linspace(-1, 1, 21):
            left, right = split_at(el, 0, float(pt))
            assert (left + right).tolist() == pytest.approx(counts.tolist())
            assert np.all(left >= 0) and np.all(right >= 0)

    def test_monotone_in_pt(self):
        rng = np.random.default_rng(4)
        pool = make_pool()
        el = LeafElement(pool, 0)
        for _ in range(400):
            el.observe(Sample([float(rng.uniform(-1, 1)), 0.0], int(rng.integers(0, 2))))
        prev = None
        for pt in np.linspace(-1.1, 1.1, 45):
            left, _ = split_at(el, 0, float(pt))
            if prev is not None:
                assert np.all(left >= prev - 1e-12)
            prev = left

    def test_bulk_table_matches_single_pt(self):
        rng = np.random.default_rng(6)
        for method in ("quantile", "gaussian"):
            pool = make_pool(method=method)
            el = LeafElement(pool, 0)
            for _ in range(300):
                el.observe(Sample([float(rng.normal(0, 0.4)), float(rng.uniform(-1, 1))],
                                  int(rng.integers(0, 2))))
            valid, pts = el.split_points(10)
            table = el.numeric_partition_table(valid, pts)
            assert valid.all()
            for attr in range(2):
                for p, pt in enumerate(pts[attr]):
                    single, _ = split_at(el, attr, pt)
                    assert table[attr, p].tolist() == pytest.approx(single.tolist(), abs=0.0)

    def test_exact_count_oracle(self):
        # round-down reconstruction quantizes mass to 1/|Q| steps; allow
        # that plus tracking slack after a short stream
        rng = np.random.default_rng(3)
        pool = make_pool(lam=0.01)
        el = LeafElement(pool, 0)
        per_class = {0: [], 1: []}
        for _ in range(500):
            x = float(rng.uniform(0, 1))
            y = int(rng.integers(0, 2))
            el.observe(Sample([x, 0.0], y))
            per_class[y].append(x)
        for pt in (0.25, 0.5, 0.75):
            left, _ = split_at(el, 0, pt)
            for j in (0, 1):
                exact = sum(1 for v in per_class[j] if v <= pt)
                n_j = len(per_class[j])
                assert abs(left[j] - exact) <= n_j / 8 + 0.1 * n_j


class TestCategoricalPartitions:
    def fill(self):
        pool = make_pool(MIXED)
        el = LeafElement(pool, 0)
        # value 1 counts (10, 5); remaining mass on value 0
        for _ in range(10):
            el.observe(Sample([0.0, 1], 0))
        for _ in range(5):
            el.observe(Sample([0.0, 1], 1))
        for _ in range(20):
            el.observe(Sample([0.0, 0], 0))
        for _ in range(15):
            el.observe(Sample([0.0, 0], 1))
        return el

    def test_hand_counts(self):
        el = self.fill()
        left = el.categorical_partition_table(1)[1]
        assert left.tolist() == [10.0, 5.0]
        assert (el.n_fj - left).tolist() == [20.0, 15.0]

    def test_unseen_value(self):
        el = self.fill()
        left = el.categorical_partition_table(1)[2]
        assert left.tolist() == [0.0, 0.0]
        assert (el.n_fj - left).tolist() == [30.0, 20.0]

    def test_all_mass_on_one_value(self):
        pool = make_pool(MIXED)
        el = LeafElement(pool, 0)
        for y in (0, 1, 1):
            el.observe(Sample([0.0, 2], y))
        left = el.categorical_partition_table(1)[2]
        assert left.tolist() == [1.0, 2.0]
        assert (el.n_fj - left).tolist() == [0.0, 0.0]


class TestRecycling:
    def test_reset_clears_everything(self):
        pool = make_pool(MIXED)
        el = LeafElement(pool, 2)
        for _ in range(10):
            el.observe(Sample([0.5, 1], 1))
        pool.reset_element(2)
        assert pool.n_f[2] == 0
        assert np.all(pool.n_fj[2] == 0)
        assert np.isinf(pool.min_a[2]).all() and np.isinf(pool.max_a[2]).all()
        assert np.all(pool.hists[0][2] == 0)
        assert np.all(pool.trackers[2] == 0)

    @pytest.mark.parametrize("kw", [{}, {"backend": "fixed"}, {"method": "gaussian"}])
    def test_reset_matches_a_fresh_element(self, kw):
        pool = make_pool(MIXED, **kw)
        el = LeafElement(pool, 2)
        for x, c, y in ((0.5, 1, 1), (-0.3, 2, 0), (0.9, 1, 1)):
            el.observe(Sample([x, c], y))
        pool.reset_element(2)
        assert pool.element_doc(2) == make_pool(MIXED, **kw).element_doc(2)

    def test_stale_handle_raises(self):
        pool = make_pool()
        el = LeafElement(pool, 1)
        el.observe(Sample([0.1, 0.2], 0))
        pool.reset_element(1)
        with pytest.raises(StaleElementError):
            el.observe(Sample([0.1, 0.2], 0))
        with pytest.raises(StaleElementError):
            el.n_f
        fresh = LeafElement(pool, 1)
        fresh.observe(Sample([0.1, 0.2], 0))  # new handle is fine


class TestFixedBackend:
    def test_rejects_gaussian(self):
        with pytest.raises(ValueError):
            make_pool(method="gaussian", backend="fixed")

    def test_tracks_float_backend(self):
        rng = np.random.default_rng(5)
        fl = make_pool(lam=0.01)
        fi = make_pool(lam=0.01, backend="fixed")
        a = LeafElement(fl, 0)
        b = LeafElement(fi, 0)
        n = 10_000
        for _ in range(n):
            s = Sample([float(rng.uniform(-1, 1)), float(rng.normal(0, 0.3))],
                       int(rng.integers(0, 2)))
            a.observe(s)
            b.observe(s)
        import streamtree.fixed_point as fx
        back = fx.raw_to_float_array(fi.trackers[0])
        # quantization drift bounded by 10 ulp-equivalents per step
        assert np.max(np.abs(back - fl.trackers[0])) <= 10 * 2.0 ** -30 * n

    def test_partition_tables_agree(self):
        rng = np.random.default_rng(5)
        fl = make_pool(lam=0.01)
        fi = make_pool(lam=0.01, backend="fixed")
        a = LeafElement(fl, 0)
        b = LeafElement(fi, 0)
        for _ in range(2000):
            s = Sample([float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))],
                       int(rng.integers(0, 2)))
            a.observe(s)
            b.observe(s)
        valid, pts = a.split_points(10)
        ta = a.numeric_partition_table(valid, pts)[0]
        tb = b.numeric_partition_table(valid, pts)[0]
        # round-down counts can differ only where a tracker sits within
        # quantization distance of a split point; bound total movement
        assert np.max(np.abs(ta - tb)) <= np.max(fl.n_fj[0]) / 8 + 1e-9

    def test_saturation_counted(self):
        pool = make_pool(backend="fixed")
        el = LeafElement(pool, 0)
        el.observe(Sample([3.5, -7.0], 0))  # out of Q2.30 range entirely
        assert pool.saturation_count == 2
