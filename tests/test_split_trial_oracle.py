"""The whole-leaf split trial against the per-attribute trial it replaced.

`oracle_trial` is the earlier implementation: one partition table per
numeric attribute, built point by point with the scalar normal CDF on
the gaussian path. The vectorized trial must reproduce its decision bit
for bit, so every comparison below is `==`, never approximate.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamtree import synth
from streamtree.leaf_stats import StatsPool
from streamtree.schema import NUMERIC, AttributeSpec, DatasetSchema, Sample
from streamtree.split_eval import (
    REASON_GAIN,
    REASON_NONE,
    REASON_TIE,
    SplitCandidate,
    SplitDecision,
    evaluate_split_trial,
    gini,
    hoeffding_bound,
)
from streamtree.tree import LeafNode, TreeConfig, new_tree

# ------------------------------------------------------------------ oracle


def oracle_normal_cdf(pt, mean, variance):
    if variance <= 0.0:
        return 0.0 if pt < mean else 1.0
    z = (pt - mean) / math.sqrt(variance)
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def oracle_split_points(pool, e, attr, count):
    k = pool.numeric_idx.index(attr)
    lo = float(pool.min_a[e, k])
    hi = float(pool.max_a[e, k])
    if not lo < hi:
        return []
    span = (hi - lo) / (count + 1)
    return [lo + span * p for p in range(1, count + 1)]


def oracle_partition_table(pool, e, attr, pts):
    k = pool.numeric_idx.index(attr)
    counts = pool.n_fj[e].astype(np.float64)
    pts_arr = np.asarray(pts, dtype=np.float64)
    if pool.method == "quantile":
        pt, _ = pool._to_tracker_units(pts_arr)
        q = pool.trackers[e, :, :, k]
        below = (q[None, :, :] < pt[:, None, None]).sum(axis=2)
        dist_l = below / pool.quantile_count * counts[None, :]
    else:
        dist_l = np.empty((len(pts_arr), pool.class_count))
        for j in range(pool.class_count):
            n = counts[j]
            m = pool.g_mean[e, j, k]
            vs = pool.g_vsum[e, j, k]
            if n <= 1 or vs <= 0.0:
                dist_l[:, j] = np.where(pts_arr < m, 0.0, n)
            else:
                var = vs / (n - 1.0)
                for p, pt in enumerate(pts_arr):
                    dist_l[p, j] = n * oracle_normal_cdf(float(pt), m, var)
    dist_l[:, counts == 0] = 0.0
    return dist_l


def oracle_quality_rows(dist_l, counts):
    right = counts[None, :] - dist_l
    sl = dist_l.sum(axis=1)
    sr = right.sum(axis=1)
    out = np.zeros(len(dist_l))
    nz = sl > 0
    out[nz] += (dist_l[nz] ** 2).sum(axis=1) / sl[nz]
    nz = sr > 0
    out[nz] += (right[nz] ** 2).sum(axis=1) / sr[nz]
    return out


def oracle_trial(pool, e, config):
    counts = pool.n_fj[e].astype(np.float64)
    n = int(pool.n_f[e])
    epsilon = hoeffding_bound(config.r_range, config.delta, max(n, 1))
    best = second = None
    for attr, spec in enumerate(pool.schema.attributes):
        if spec.kind == NUMERIC:
            pts = oracle_split_points(pool, e, attr, config.split_points)
            if not pts:
                continue
            dist_l = oracle_partition_table(pool, e, attr, pts)
        else:
            table = pool.element_doc(e)["hists"][pool.cat_idx.index(attr)]
            dist_l = np.array(table, dtype=np.float64)
            if not dist_l.any():
                continue
            pts = list(range(spec.cardinality))
        qualities = oracle_quality_rows(dist_l, counts)
        k = int(np.argmax(qualities))
        cand = SplitCandidate(attr, pts[k], float(qualities[k]))
        if best is None or cand.quality > best.quality:
            best, second = cand, best
        elif second is None or cand.quality > second.quality:
            second = cand
    if best is None:
        return SplitDecision(False, None, None, epsilon, REASON_NONE)
    leaf_gini = gini(counts)
    total = counts.sum()
    best.full_gain = best.quality / total + leaf_gini - 1.0
    g2 = 0.0
    if second is not None:
        second.full_gain = second.quality / total + leaf_gini - 1.0
        g2 = second.full_gain
    if best.full_gain - g2 > epsilon:
        return SplitDecision(True, best, second, epsilon, REASON_GAIN)
    if epsilon < config.tau:
        return SplitDecision(True, best, second, epsilon, REASON_TIE)
    return SplitDecision(False, best, second, epsilon, REASON_NONE)


# -------------------------------------------------------------- comparison


def assert_same_candidate(new, old):
    if old is None:
        assert new is None
        return
    assert new.attribute == old.attribute
    assert type(new.split_point) is type(old.split_point)
    assert new.split_point == old.split_point
    assert new.quality == old.quality
    assert new.full_gain == old.full_gain


def assert_same_decision(new, old):
    assert new.taken == old.taken
    assert new.reason == old.reason
    assert new.epsilon == old.epsilon
    assert_same_candidate(new.best, old.best)
    assert_same_candidate(new.second_best, old.second_best)


# -------------------------------------------------------------- generators

METHODS = {
    "quantile-float": {"method": "quantile", "backend": "float"},
    "quantile-fixed": {"method": "quantile", "backend": "fixed"},
    "gaussian": {"method": "gaussian", "backend": "float"},
}

# a coarse grid makes equal values, tied qualities and zero spreads common
GRID = st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.1, 0.3, 0.75, 1.0])
VALUE = st.one_of(GRID, st.floats(-1.0, 1.0, allow_nan=False))


@st.composite
def leaves(draw, method):
    """A schema, a config and one element that has seen a random stream.

    Columns are random, constant, or copies of an earlier numeric column;
    labels come from a random subset of the classes, so some classes are
    empty and small streams leave classes with one sample.
    """
    class_count = draw(st.integers(2, 10))
    kinds = draw(st.lists(st.sampled_from(["numeric", "constant", "copy", "categorical"]),
                          min_size=1, max_size=6))
    attrs, columns = [], []  # column: ("draw"|"const"|"copy"|"cat", arg)
    for i, kind in enumerate(kinds):
        numeric_before = [j for j, c in enumerate(columns) if c[0] != "cat"]
        if kind == "categorical":
            card = draw(st.integers(2, 4))
            attrs.append(AttributeSpec(f"c{i}", "categorical", cardinality=card))
            columns.append(("cat", card))
            continue
        attrs.append(AttributeSpec(f"a{i}", "numeric", declared_min=-1.0, declared_max=1.0))
        if kind == "copy" and numeric_before:
            columns.append(("copy", draw(st.sampled_from(numeric_before))))
        elif kind == "constant":
            columns.append(("const", draw(GRID)))
        else:
            columns.append(("draw", None))
    schema = DatasetSchema(tuple(attrs), class_count)
    used = draw(st.lists(st.integers(0, class_count - 1), min_size=1, max_size=class_count,
                         unique=True))
    samples = []
    for _ in range(draw(st.integers(1, 40))):
        row = []
        for kind, arg in columns:
            if kind == "cat":
                row.append(draw(st.integers(0, arg - 1)))
            elif kind == "copy":
                row.append(row[arg])
            elif kind == "const":
                row.append(arg)
            else:
                row.append(draw(VALUE))
        samples.append(Sample(row, draw(st.sampled_from(used))))
    config = TreeConfig(
        method=method["method"],
        numeric_backend=method["backend"],
        split_points=draw(st.integers(1, 12)),
        quantile_count=draw(st.integers(2, 9)),
        lam=draw(st.sampled_from([0.01, 0.1, 0.3])),
        delta=draw(st.sampled_from([1e-3, 0.1, 0.5])),
        tau=draw(st.sampled_from([0.05, 0.3, 1.0])),
        r_range=draw(st.sampled_from([0.05, 1.0])),
    )
    pool = StatsPool(schema, config, 1)
    assert pool.alloc() == 0
    for s in samples:
        pool.observe(0, s.values, s.label)
    return pool, config


def check(pool, config):
    assert_same_decision(evaluate_split_trial(pool, 0, config), oracle_trial(pool, 0, config))


SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(leaves(METHODS["quantile-float"]))
def test_quantile_float_trial_matches_oracle(leaf):
    check(*leaf)


@SETTINGS
@given(leaves(METHODS["quantile-fixed"]))
def test_quantile_fixed_trial_matches_oracle(leaf):
    check(*leaf)


@SETTINGS
@given(leaves(METHODS["gaussian"]))
def test_gaussian_trial_matches_oracle(leaf):
    check(*leaf)


def test_duplicated_columns_tie_like_the_oracle():
    """Identical columns give equal best qualities; both trials keep the
    lower attribute as best and the copy as second."""
    rng = np.random.default_rng(11)
    for name, method in METHODS.items():
        schema = DatasetSchema(tuple(
            AttributeSpec(f"a{i}", "numeric", declared_min=-1.0, declared_max=1.0)
            for i in range(3)), 3)
        config = TreeConfig(method=method["method"], numeric_backend=method["backend"])
        pool = StatsPool(schema, config, 1)
        assert pool.alloc() == 0
        for _ in range(300):
            y = int(rng.integers(0, 3))
            x = float(rng.normal(0.6 * y - 0.6, 0.1))
            pool.observe(0, [float(rng.uniform(-1, 1)), x, x], y)
        new = evaluate_split_trial(pool, 0, config)
        assert_same_decision(new, oracle_trial(pool, 0, config))
        assert (new.best.attribute, new.second_best.attribute) == (1, 2), name
        assert new.best.quality == new.second_best.quality, name


def test_many_attributes_and_classes_match_oracle():
    """A covertype-wide leaf (54 numeric attributes, 9 classes, so the
    class sums run past numpy's 8-lane unrolled block) on every method."""
    rng = np.random.default_rng(12)
    schema = DatasetSchema(tuple(
        AttributeSpec(f"a{i}", "numeric", declared_min=-1.0, declared_max=1.0)
        for i in range(54)), 9)
    for method in METHODS.values():
        config = TreeConfig(method=method["method"], numeric_backend=method["backend"])
        pool = StatsPool(schema, config, 2)
        assert (pool.alloc(), pool.alloc()) == (0, 1)
        for _ in range(2000):
            y = int(rng.integers(0, 9))
            row = rng.normal(0.05 * y, 0.3, 54)
            row[10:] = rng.random(44) < 0.05 * (y + 1)  # one-hot-like columns
            pool.observe(1, np.clip(row, -1, 1).tolist(), y)
        assert_same_decision(evaluate_split_trial(pool, 1, config), oracle_trial(pool, 1, config))


def live_leaves(node):
    if isinstance(node, LeafNode):
        if node.eid is not None:
            yield node
    else:
        yield from live_leaves(node.left)
        yield from live_leaves(node.right)


@pytest.mark.parametrize("preset", sorted(synth.PRESETS))
def test_gaussian_partition_table_matches_oracle_on_every_preset(preset):
    """Every live leaf's table, checked after each of the first samples
    (the root then has classes with 0 and 1 samples), on the first
    samples after each split (fresh children) and every 100 samples."""
    config = TreeConfig(method="gaussian")
    tree = new_tree(synth.preset_schema(preset), config)
    pool, due, small = tree.stats, 0, set()
    for t, s in enumerate(synth.generate(preset, 4000, seed=3), 1):
        if tree.train_one(s) is not None:
            due = 5
        if not (t <= 20 or t % 100 == 0 or due):
            continue
        due = max(due - 1, 0)
        for leaf in live_leaves(tree.root):
            e = leaf.eid
            valid, pts = pool.split_points(e, config.split_points)
            table = pool.numeric_partition_table(e, valid, pts)
            for row, attr in enumerate(np.flatnonzero(valid).tolist()):
                want = oracle_partition_table(pool, e, pool.numeric_idx[attr], pts[row])
                assert np.array_equal(table[row], want), (t, e, attr)
            if valid.any():
                small |= set(pool.n_fj[e][pool.n_fj[e] <= 1].tolist())
    assert tree.split_count > 0
    assert small == {0, 1}
