"""Pooled per-leaf statistics against scalar-model and exact-count oracles."""

import numpy as np
import pytest

from reference_kernels import track_quantiles, welford
from streamtree.leaf_stats import StatsPool, default_targets
from streamtree.schema import AttributeSpec, DatasetSchema, Sample
from streamtree.split_eval import evaluate_split_trial
from streamtree.tree import TreeConfig

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


def make_pool(schema=TWO_NUM, capacity=4, backend="float", **kw):
    return StatsPool(schema, TreeConfig(numeric_backend=backend, **kw), capacity)


def observe(pool, e, s):
    """Fold sample s into element e of pool."""
    return pool.observe(e, s.values, s.label)


class TestObserve:
    def test_seeding_path(self):
        pool = make_pool()
        e = 0
        observe(pool, e, Sample([0.4, -0.2], 1))
        assert pool.n_f[e] == 1
        assert pool.n_fj[e].tolist() == [0, 1]
        assert pool.min_a[0].tolist() == [0.4, -0.2]
        assert pool.max_a[0].tolist() == [0.4, -0.2]
        assert np.all(pool.trackers[0, 1, :, 0] == 0.4)
        assert np.all(pool.trackers[0, 1, :, 1] == -0.2)
        assert np.all(pool.trackers[0, 0] == 0.0)  # other class untouched

    def test_two_samples_update_in_order(self):
        pool = make_pool(lam=0.01)
        e = 0
        observe(pool, e, Sample([0.5, 0.0], 0))
        observe(pool, e, Sample([0.7, 0.0], 0))
        ref = track_quantiles([0.5, 0.7], default_targets(8), 0.01)
        assert pool.trackers[0, 0, :, 0].tolist() == ref

    def test_counting(self):
        rng = np.random.default_rng(2)
        labels = np.concatenate([np.zeros(400, int), np.ones(600, int)])
        rng.shuffle(labels)
        pool = make_pool()
        e = 0
        for y in labels:
            observe(pool, e, Sample([float(rng.uniform(-1, 1)), 0.0], int(y)))
        assert pool.n_f[e] == 1000
        assert pool.n_fj[e].tolist() == [400, 600]

    def test_min_max_track_extremes(self):
        pool = make_pool()
        e = 0
        for x in (0.3, -0.8, 0.9, 0.1):
            observe(pool, e, Sample([x, -x], 0))
        assert pool.min_a[0].tolist() == [-0.8, -0.9]
        assert pool.max_a[0].tolist() == [0.9, 0.8]

    def test_categorical_histogram(self):
        pool = make_pool(MIXED)
        e = 0
        observe(pool, e, Sample([0.1, 2], 0))
        observe(pool, e, Sample([0.1, 2], 1))
        observe(pool, e, Sample([0.1, 0], 1))
        assert pool.hist[0].tolist() == [[0, 1], [0, 0], [1, 1]]
        assert pool.element_doc(0)["hists"] == [[[0, 1], [0, 0], [1, 1]]]

    def test_pool_matches_scalar_trackers(self):
        # dual-surface check: flat pool vs the scalar tracker reference
        rng = np.random.default_rng(8)
        pool = make_pool(lam=0.02)
        e = 1
        seen = {(a, c): [] for a in range(2) for c in range(2)}
        for _ in range(3000):
            s = Sample([float(rng.uniform(-1, 1)), float(rng.normal(0, 0.3))],
                       int(rng.integers(0, 2)))
            observe(pool, e, s)
            for a in range(2):
                seen[(a, s.label)].append(s.values[a])
        for (a, c), xs in seen.items():
            assert pool.trackers[1, c, :, a].tolist() == track_quantiles(
                xs, default_targets(8), 0.02)

    def test_gaussian_pool_matches_scalar(self):
        rng = np.random.default_rng(8)
        pool = make_pool(method="gaussian")
        e = 0
        seen = {(a, c): [] for a in range(2) for c in range(2)}
        for _ in range(2000):
            s = Sample([float(rng.uniform(-1, 1)), float(rng.normal(0, 0.3))],
                       int(rng.integers(0, 2)))
            observe(pool, e, s)
            for a in range(2):
                seen[(a, s.label)].append(s.values[a])
        for (a, c), xs in seen.items():
            assert (pool.g_mean[0, c, a], pool.g_vsum[0, c, a]) == welford(xs)


class TestSplitPoints:
    def seeded(self, lo, hi):
        pool = make_pool()
        observe(pool, 0, Sample([lo, 0.0], 0))
        observe(pool, 0, Sample([hi, 0.0], 0))
        return pool

    def test_ten_points_unit_range(self):
        pool = self.seeded(0.0, 1.0)
        valid, pts = pool.split_points(0, 10)
        assert valid.tolist() == [True, False]  # a1 stayed at 0.0
        assert pts.shape == (1, 10)
        assert pts[0].tolist() == pytest.approx([p / 11 for p in range(1, 11)], abs=1e-12)

    def test_constant_attribute_empty(self):
        pool = self.seeded(0.3, 0.3)
        valid, pts = pool.split_points(0, 10)
        assert not valid.any()
        assert pts.shape == (0, 10)

    def test_single_midpoint(self):
        pool = self.seeded(-1.0, 1.0)
        _, pts = pool.split_points(0, 1)
        assert pts[0].tolist() == pytest.approx([0.0], abs=1e-12)

    def test_points_strictly_interior(self):
        pool = self.seeded(-0.4, 0.9)
        pts = pool.split_points(0, 7)[1][0].tolist()
        assert all(-0.4 < p < 0.9 for p in pts)
        assert pts == sorted(pts)


def split_at(pool, e, attr, pt):
    """(left, right) class counts of element e's numeric split at pt, from
    a one-point table."""
    valid = np.zeros(len(pool.numeric_idx), dtype=bool)
    valid[pool.numeric_idx.index(attr)] = True
    left = pool.numeric_partition_table(e, valid, np.array([[pt]]))[0, 0]
    return left, pool.n_fj[e] - left


class TestDeducePartitions:
    def test_hand_count(self):
        pool = make_pool()
        e = 0
        pool.trackers[0, 1, :, 0] = np.arange(0.1, 0.9, 0.1)
        pool.n_fj[0, 1] = 80
        pool.n_f[0] = 80
        left, right = split_at(pool, e, 0, 0.45)
        assert left[1] == pytest.approx(40.0)
        assert right[1] == pytest.approx(40.0)

    def test_pt_below_everything(self):
        pool = make_pool()
        e = 0
        rng = np.random.default_rng(1)
        for _ in range(50):
            observe(pool, e, Sample([float(rng.uniform(0.2, 0.8)), 0.0],
                                    int(rng.integers(0, 2))))
        left, right = split_at(pool, e, 0, -0.99)
        assert left.tolist() == [0.0, 0.0]
        assert right.tolist() == pytest.approx(pool.n_fj[e].astype(float).tolist())

    def test_empty_class_contributes_zero(self):
        pool = make_pool()
        e = 0
        for x in (0.1, 0.5, 0.9):
            observe(pool, e, Sample([x, 0.0], 0))
        left, right = split_at(pool, e, 0, 0.6)
        assert left[1] == 0.0 and right[1] == 0.0

    def test_conservation(self):
        rng = np.random.default_rng(4)
        pool = make_pool()
        e = 0
        for _ in range(400):
            observe(pool, e, Sample([float(rng.normal(0, 0.4)), 0.0], int(rng.integers(0, 2))))
        counts = pool.n_fj[e].astype(float)
        for pt in np.linspace(-1, 1, 21):
            left, right = split_at(pool, e, 0, float(pt))
            assert (left + right).tolist() == pytest.approx(counts.tolist())
            assert np.all(left >= 0) and np.all(right >= 0)

    def test_monotone_in_pt(self):
        rng = np.random.default_rng(4)
        pool = make_pool()
        e = 0
        for _ in range(400):
            observe(pool, e, Sample([float(rng.uniform(-1, 1)), 0.0], int(rng.integers(0, 2))))
        prev = None
        for pt in np.linspace(-1.1, 1.1, 45):
            left, _ = split_at(pool, e, 0, float(pt))
            if prev is not None:
                assert np.all(left >= prev - 1e-12)
            prev = left

    def test_bulk_table_matches_single_pt(self):
        rng = np.random.default_rng(6)
        for method in ("quantile", "gaussian"):
            pool = make_pool(method=method)
            e = 0
            for _ in range(300):
                observe(pool, e, Sample([float(rng.normal(0, 0.4)),
                                         float(rng.uniform(-1, 1))], int(rng.integers(0, 2))))
            valid, pts = pool.split_points(e, 10)
            table = pool.numeric_partition_table(e, valid, pts)
            assert valid.all()
            for attr in range(2):
                for p, pt in enumerate(pts[attr]):
                    single, _ = split_at(pool, e, attr, pt)
                    assert table[attr, p].tolist() == pytest.approx(single.tolist(), abs=0.0)

    def test_exact_count_oracle(self):
        # round-down reconstruction quantizes mass to 1/|Q| steps; allow
        # that plus tracking slack after a short stream
        rng = np.random.default_rng(3)
        pool = make_pool(lam=0.01)
        e = 0
        per_class = {0: [], 1: []}
        for _ in range(500):
            x = float(rng.uniform(0, 1))
            y = int(rng.integers(0, 2))
            observe(pool, e, Sample([x, 0.0], y))
            per_class[y].append(x)
        for pt in (0.25, 0.5, 0.75):
            left, _ = split_at(pool, e, 0, pt)
            for j in (0, 1):
                exact = sum(1 for v in per_class[j] if v <= pt)
                n_j = len(per_class[j])
                assert abs(left[j] - exact) <= n_j / 8 + 0.1 * n_j


class TestCategoricalPartitions:
    def fill(self):
        pool = make_pool(MIXED)
        # value 1 counts (10, 5); remaining mass on value 0
        for _ in range(10):
            observe(pool, 0, Sample([0.0, 1], 0))
        for _ in range(5):
            observe(pool, 0, Sample([0.0, 1], 1))
        for _ in range(20):
            observe(pool, 0, Sample([0.0, 0], 0))
        for _ in range(15):
            observe(pool, 0, Sample([0.0, 0], 1))
        return pool

    def trial(self, pool, e=0):
        """The categorical attribute's best candidate; the numeric one is
        constant, so it offers no split."""
        decision = evaluate_split_trial(pool, e, TreeConfig())
        assert decision.second_best is None
        assert decision.best.attribute == 1
        return decision.best

    def test_hand_counts(self):
        pool = self.fill()
        assert pool.hist[0].tolist() == [[20, 15], [10, 5], [0, 0]]
        # codes 0 and 1 split the leaf into the same two halves; the tie
        # goes to the lower code
        best = self.trial(pool)
        assert best.split_point == 0
        assert best.quality == pytest.approx(625 / 35 + 125 / 15)

    def test_unseen_value(self):
        pool = self.fill()
        # code 2 puts every sample on the right: the leaf's own quality
        assert pool.hist[0, 2].tolist() == [0, 0]
        assert self.trial(pool).quality > (30 ** 2 + 20 ** 2) / 50

    def test_all_mass_on_one_value(self):
        pool = make_pool(MIXED)
        e = 0
        for y in (0, 1, 1):
            observe(pool, e, Sample([0.0, 2], y))
        assert pool.hist[e].tolist() == [[0, 0], [0, 0], [1, 2]]
        # every code leaves one side empty, so all tie at the leaf's quality
        best = self.trial(pool, e)
        assert best.split_point == 0
        assert best.quality == pytest.approx(5 / 3)

    def test_attributes_scored_apart(self):
        # two categorical attributes side by side in `hist`: each is scored
        # over its own rows only
        schema = DatasetSchema((
            AttributeSpec("c0", "categorical", cardinality=2),
            AttributeSpec("c1", "categorical", cardinality=3),
        ), 2)
        pool = make_pool(schema)
        for codes, y in (([0, 2], 0), ([0, 2], 0), ([1, 1], 1), ([1, 0], 1)):
            observe(pool, 0, Sample(codes, y))
        assert pool.cat_start == (0, 2)
        assert pool.element_doc(0)["hists"] == [[[2, 0], [0, 2]],
                                                [[0, 1], [0, 1], [2, 0]]]
        decision = evaluate_split_trial(pool, 0, TreeConfig())
        assert (decision.best.attribute, decision.best.split_point) == (0, 0)
        assert (decision.second_best.attribute, decision.second_best.split_point) == (1, 2)
        assert decision.best.quality == decision.second_best.quality == 4.0


def third_id(pool):
    """Allocate ids 0, 1 and 2 (the free list hands them out in order); 2."""
    assert [pool.alloc() for _ in range(3)] == [0, 1, 2]
    return 2


class TestRecycling:
    def test_ids_come_out_in_order_and_run_out(self):
        pool = make_pool(MIXED, capacity=3)
        third_id(pool)
        assert pool.allocated_count == 3 and pool.live_elements() == [0, 1, 2]
        with pytest.raises(RuntimeError, match="element pool exhausted"):
            pool.alloc()

    def test_release_frees_the_id_and_counts_a_generation(self):
        pool = make_pool(MIXED)
        e = third_id(pool)
        pool.release(1)
        assert pool.free_list[-1] == 1 and pool.live_elements() == [0, e]
        assert pool.generation.tolist() == [0, 1, 0, 0]
        assert pool.alloc() == 1  # last in, first out

    def test_reset_clears_everything(self):
        pool = make_pool(MIXED)
        e = third_id(pool)
        for _ in range(10):
            observe(pool, e, Sample([0.5, 1], 1))
        pool.release(e)
        assert pool.n_f[2] == 0
        assert np.all(pool.n_fj[2] == 0)
        assert np.isinf(pool.min_a[2]).all() and np.isinf(pool.max_a[2]).all()
        assert np.all(pool.hist[2] == 0)
        assert np.all(pool.trackers[2] == 0)

    @pytest.mark.parametrize("kw", [{}, {"backend": "fixed"}, {"method": "gaussian"}])
    def test_reset_matches_a_fresh_element(self, kw):
        pool = make_pool(MIXED, **kw)
        e = third_id(pool)
        for x, c, y in ((0.5, 1, 1), (-0.3, 2, 0), (0.9, 1, 1)):
            observe(pool, e, Sample([x, c], y))
        pool.release(e)
        assert pool.element_doc(2) == make_pool(MIXED, **kw).element_doc(2)


POOL_KINDS = [{}, {"backend": "fixed"}, {"method": "gaussian"}]


def stream(seed, n=40):
    """n MIXED samples of both classes, some near the Q2.30 edge."""
    rng = np.random.default_rng(seed)
    return [Sample([float(rng.choice([rng.uniform(-1, 1), rng.uniform(-2.5, 2.5)])),
                    int(rng.integers(3))], int(rng.integers(2))) for _ in range(n)]


def element_bytes(pool, e):
    return {key: arr[e].tobytes() for key, (arr, _) in pool.element_arrays.items()}


class TestElementViews:
    """observe reaches an element's rows through views made on its first
    sample; recycling and loading must write through them, not around."""

    @pytest.mark.parametrize("kw", POOL_KINDS)
    def test_observe_after_reset_matches_a_fresh_pool(self, kw):
        pool, fresh = make_pool(MIXED, **kw), make_pool(MIXED, **kw)
        third_id(pool)
        for s in stream(1):
            observe(pool, 2, s)
        pool.release(2)
        for s in stream(2):
            observe(pool, 2, s)
            observe(fresh, 2, s)
        assert element_bytes(pool, 2) == element_bytes(fresh, 2)

    @pytest.mark.parametrize("kw", POOL_KINDS)
    def test_observe_after_load_matches_a_fresh_pool(self, kw):
        source, pool, fresh = (make_pool(MIXED, **kw) for _ in range(3))
        for s in stream(3):
            observe(source, 0, s)
            observe(fresh, 1, s)
        for s in stream(1):
            observe(pool, 1, s)
        pool.load_element(1, source.element_doc(0))
        for s in stream(2):
            observe(pool, 1, s)
            observe(fresh, 1, s)
        assert element_bytes(pool, 1) == element_bytes(fresh, 1)


class TestFixedBackend:
    def test_rejects_gaussian(self):
        with pytest.raises(ValueError):
            make_pool(method="gaussian", backend="fixed")

    def test_tracks_float_backend(self):
        rng = np.random.default_rng(5)
        fl = make_pool(lam=0.01)
        fi = make_pool(lam=0.01, backend="fixed")
        n = 10_000
        for _ in range(n):
            s = Sample([float(rng.uniform(-1, 1)), float(rng.normal(0, 0.3))],
                       int(rng.integers(0, 2)))
            observe(fl, 0, s)
            observe(fi, 0, s)
        import streamtree.fixed_point as fx
        back = fi.trackers[0] / fx.SCALE
        # quantization drift bounded by 10 ulp-equivalents per step
        assert np.max(np.abs(back - fl.trackers[0])) <= 10 * 2.0 ** -30 * n

    def test_partition_tables_agree(self):
        rng = np.random.default_rng(5)
        fl = make_pool(lam=0.01)
        fi = make_pool(lam=0.01, backend="fixed")
        for _ in range(2000):
            s = Sample([float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))],
                       int(rng.integers(0, 2)))
            observe(fl, 0, s)
            observe(fi, 0, s)
        valid, pts = fl.split_points(0, 10)
        ta = fl.numeric_partition_table(0, valid, pts)[0]
        tb = fi.numeric_partition_table(0, valid, pts)[0]
        # round-down counts can differ only where a tracker sits within
        # quantization distance of a split point; bound total movement
        assert np.max(np.abs(ta - tb)) <= np.max(fl.n_fj[0]) / 8 + 1e-9

    def test_saturation_counted(self):
        pool = make_pool(backend="fixed")
        e = 0
        observe(pool, e, Sample([3.5, -7.0], 0))  # out of Q2.30 range entirely
        assert pool.saturation_count == 2
