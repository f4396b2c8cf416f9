"""The per-sample step against the paths it replaced.

`HoeffdingTree.step` routes a sample once to predict and train; it must
match `predict` followed by `train_one` exactly. On the fixed backend
`StatsPool.observe` clips a tracker step only toward a sample within one
step of the Q2.30 edge; `OracleElement` keeps the earlier step, which
clipped every conversion after an int64 cast and every tracker step, and
the pool must keep its trackers and `saturation_count` equal to it. A
snapshot taken mid-stream and restored must finish the stream exactly as
the uninterrupted tree. Every comparison is `==`.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamtree import fixed_point as fx
from streamtree import synth
from streamtree.leaf_stats import StatsPool, default_targets
from streamtree.schema import AttributeSpec, DatasetSchema, Sample
from streamtree.tree import SnapshotError, TreeConfig, new_tree, restore

CONFIGS = {
    "quantile-float": TreeConfig(),
    "quantile-fixed": TreeConfig(numeric_backend="fixed"),
    "gaussian": TreeConfig(method="gaussian"),
}

TWO_NUM = DatasetSchema(
    (
        AttributeSpec("a0", "numeric", declared_min=-1.0, declared_max=1.0),
        AttributeSpec("a1", "numeric", declared_min=-1.0, declared_max=1.0),
    ),
    2,
)


# ------------------------------------------------------- step vs two calls


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("preset", sorted(synth.PRESETS))
def test_step_matches_predict_then_train_one(preset, config):
    schema = synth.preset_schema(preset)
    stepped, paired = new_tree(schema, config), new_tree(schema, config)
    got, want = [], []
    for s in synth.generate(preset, 6000, seed=11):
        got.append(stepped.step(s))
        want.append(paired.predict(s))
        paired.train_one(s)
    assert got == want
    assert stepped.split_log == paired.split_log
    assert stepped.snapshot() == paired.snapshot()
    assert stepped.split_count > 0
    stepped.validate()


# ---------------------------------------------------- fixed observe oracle


def oracle_float_to_raw_array(x):
    scaled = np.rint(np.asarray(x, dtype=np.float64) * fx.SCALE)
    saturated = int(np.count_nonzero((scaled > fx.RAW_MAX) | (scaled < fx.RAW_MIN)))
    raw = scaled.astype(np.int64)
    np.clip(raw, fx.RAW_MIN, fx.RAW_MAX, out=raw)
    return raw, saturated


def oracle_saturate(raw):
    saturated = int(np.count_nonzero((raw > fx.RAW_MAX) | (raw < fx.RAW_MIN)))
    np.clip(raw, fx.RAW_MIN, fx.RAW_MAX, out=raw)
    return saturated


def oracle_raw(fr):
    """The Q2.30 word of the rational fr: round half to even, saturate."""
    return max(fx.RAW_MIN, min(fx.RAW_MAX, round(fr * fx.SCALE)))


class OracleElement:
    """One element's fixed trackers, stepped the earlier way; the steps are
    lam * alpha and lam * (1 - alpha) in Q2.30, computed exactly."""

    def __init__(self, attrs, classes, quantile_count, lam):
        targets = default_targets(quantile_count)
        lam_raw = oracle_raw(Fraction(lam))
        self.up, self.down = (
            np.array([oracle_raw(Fraction(lam_raw * oracle_raw(Fraction(g)), fx.SCALE ** 2))
                      for g in gains])
            for gains in (targets, [1.0 - a for a in targets]))
        self.trackers = np.zeros((attrs, classes, len(targets)), dtype=np.int64)
        self.counts = [0] * classes
        self.saturations = 0

    def observe(self, xs, label):
        self.counts[label] += 1
        xt, sat = oracle_float_to_raw_array(np.array(xs))
        self.saturations += sat
        v = self.trackers[:, label, :]
        if self.counts[label] == 1:
            v[...] = xt[:, None]
        else:
            v += np.where(v < xt[:, None], self.up, -self.down)
            self.saturations += oracle_saturate(v)


EDGE = 2.0 - 2.0 ** -30
# reals within 2**-8 of either Q2.30 edge, on and off the raw grid
near_edge = st.builds(lambda side, k, off: side * (EDGE - k * 2.0 ** -30 + off),
                      st.sampled_from([1.0, -1.0]), st.integers(-4, 1 << 22),
                      st.sampled_from([0.0, 2.0 ** -31, 2.0 ** -33]))
values = st.one_of(st.floats(-3.0, 3.0), near_edge)
samples = st.lists(st.tuples(values, values, st.integers(0, 2)), min_size=1, max_size=80)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(stream=samples,
       lam=st.one_of(st.floats(0.0, 2.0, exclude_min=True), st.sampled_from([1.0, 2.0])),
       quantile_count=st.sampled_from([2, 3, 8]))
@example(stream=[(1.999, -1.999, 0)] * 6, lam=0.01, quantile_count=8)
@example(stream=[(0.5, -0.5, 1), (0.6, 0.2, 1), (0.1, -0.9, 1)], lam=2.0, quantile_count=8)
def test_fixed_observe_matches_always_saturating_oracle(stream, lam, quantile_count):
    schema = DatasetSchema(TWO_NUM.attributes, 3)
    pool = StatsPool(schema, TreeConfig(quantile_count=quantile_count, lam=lam,
                                        numeric_backend="fixed"), 1)
    oracle = OracleElement(2, 3, quantile_count, lam)
    for x0, x1, y in stream:
        pool.observe(0, [x0, x1], y)
        oracle.observe([x0, x1], y)
        assert np.array_equal(pool.trackers[0].transpose(2, 0, 1), oracle.trackers)
        assert pool.saturation_count == oracle.saturations


def test_oracle_examples_saturate_tracker_steps():
    # the explicit examples above reach the step clip, not only conversion
    for stream, lam in (([(1.999, -1.999, 0)] * 6, 0.01),
                        ([(0.5, -0.5, 1), (0.6, 0.2, 1), (0.1, -0.9, 1)], 2.0)):
        oracle = OracleElement(2, 3, 8, lam)
        for x0, x1, y in stream:
            oracle.observe([x0, x1], y)
        assert oracle.saturations > 0


def test_only_edge_samples_clip_the_step(monkeypatch):
    calls = []
    saturate = fx.saturate_raw_array

    def counting(raw):
        calls.append(1)
        return saturate(raw)

    monkeypatch.setattr(fx, "saturate_raw_array", counting)
    # (values, label, near the edge); each class is seeded in the window,
    # which this gain narrows to about [-1.11, 1.11]
    stream = [([0.3, -0.4], 0, False), ([0.5, 0.1], 1, False),
              ([1.5, 0.2], 0, True), ([1.9, 0.1], 0, True),
              ([0.5, -0.5], 0, False), ([2.5, -3.0], 1, True),
              ([0.1, 0.2], 1, False), ([-0.9, 0.9], 0, False),
              ([0.0, -1.9], 0, True), ([0.0, -1.95], 0, True),
              ([1.0, -1.0], 0, False), ([0.25, -0.75], 1, False)]
    pool = StatsPool(TWO_NUM, TreeConfig(lam=1.0, numeric_backend="fixed"), 1)
    oracle = OracleElement(2, 2, 8, 1.0)
    for xs, y, edge in stream:
        before = len(calls)
        pool.observe(0, xs, y)
        oracle.observe(xs, y)
        assert len(calls) == before + edge
        assert np.array_equal(pool.trackers[0].transpose(2, 0, 1), oracle.trackers)
        assert pool.saturation_count == oracle.saturations
    assert oracle.saturations == 5  # 2 on conversion, 3 in tracker steps


def test_observe_returns_the_counts():
    pool = StatsPool(TWO_NUM, TreeConfig(), 2)
    assert pool.observe(1, [0.1, 0.2], 1) == (1, 1)
    assert pool.observe(1, [0.1, 0.2], 0) == (2, 1)
    n, c = pool.observe(1, [0.1, 0.2], 1)
    assert (n, c) == (3, 2)
    assert type(n) is int and type(c) is int


# --------------------------------------------------------------- restore


def labelled(rows):
    return [Sample([x0, x1], int(x0 > 0.25) ^ flip) for x0, x1, flip in rows]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(CONFIGS)),
       wide=st.booleans(),
       rows=st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                               st.sampled_from([0, 0, 0, 1])),
                     min_size=2, max_size=400),
       # drawn rows stay short (a few dozen at most): an xor tail grows the tree
       tail=st.sampled_from([0, 400, 1500]),
       cut=st.floats(0.0, 1.0),
       # a small pool runs out: freezes, and released ids reused, across the cut
       max_leaves=st.one_of(st.integers(2, 5), st.just(1024)))
def test_restore_mid_stream_finishes_like_an_uninterrupted_run(name, wide, rows, tail, cut,
                                                               max_leaves):
    config = TreeConfig(n_min=25, method=CONFIGS[name].method, max_leaves=max_leaves,
                        numeric_backend=CONFIGS[name].numeric_backend)
    if wide and name == "quantile-fixed":
        # library inputs are not normalized: these saturate on conversion
        # and put trackers on the Q2.30 edge
        rows = [(3.0 * x0, 2.0 + x1, flip) for x0, x1, flip in rows]
    stream = labelled(rows) + list(synth.generate("xor", tail, seed=tail))
    k = int(cut * len(stream))
    whole = new_tree(TWO_NUM, config)
    want = [whole.step(s) for s in stream]
    head = new_tree(TWO_NUM, config)
    got = [head.step(s) for s in stream[:k]]
    resumed = restore(head.snapshot())
    got += [resumed.step(s) for s in stream[k:]]
    assert got == want
    assert head.split_log + resumed.split_log == whole.split_log
    assert resumed.stats.saturation_count == whole.stats.saturation_count
    assert resumed.snapshot() == whole.snapshot()
    whole.validate()


def test_restored_tracker_outside_q2_30_is_rejected():
    # observe clips no step toward an in-window sample, so a tracker
    # outside Q2.30 would stay there
    tree = new_tree(TWO_NUM, TreeConfig(numeric_backend="fixed"))
    tree.train_one(Sample([0.3, -0.4], 0))
    blob = tree.snapshot()
    seeded = b'"qraw":[[[%d,' % oracle_raw(Fraction(0.3))
    assert seeded in blob
    for raw in (fx.RAW_MAX, fx.RAW_MIN):
        restore(blob.replace(seeded, b'"qraw":[[[%d,' % raw))
    for raw in (1 << 40, fx.RAW_MAX + 1, fx.RAW_MIN - 1):
        with pytest.raises(SnapshotError, match="raw tracker lies outside Q2.30"):
            restore(blob.replace(seeded, b'"qraw":[[[%d,' % raw))
