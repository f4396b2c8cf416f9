"""The parser's numeric rows, carried on each parsed sample into `observe`.

`SampleStream` attaches to each sample's `values` list the chunk's
normalized float64 block it computed the values in, and the row's index
in it; the learner's pool rounds the block to Q2.30 words itself. The
learner must decide exactly as it does on a plain `Sample(list, int)`
that a library caller builds: same predictions, same split log, same
snapshot bytes, same saturation count, in any order and from any number
of streams.
"""

import math
import os
import random
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamtree import fixed_point as fx
from streamtree import harness, synth
from streamtree.schema import AttributeSpec, DatasetSchema, Sample, open_stream
from streamtree.tree import TreeConfig, new_tree

CONFIGS = {
    "quantile-float": TreeConfig(n_min=25),
    "quantile-fixed": TreeConfig(n_min=25, numeric_backend="fixed"),
    "gaussian": TreeConfig(n_min=25, method="gaussian"),
    # steps long enough to leave Q2.30: every step is clipped, and steps
    # toward the domain's edges saturate
    "quantile-fixed-lam1.5": TreeConfig(n_min=25, numeric_backend="fixed", lam=1.5),
}

MIXED = DatasetSchema(
    (
        AttributeSpec("x0", "numeric", declared_min=-5.0, declared_max=5.0),
        AttributeSpec("c1", "categorical", cardinality=3),
        AttributeSpec("x2", "numeric", declared_min=0.0, declared_max=1.0),
        AttributeSpec("x3", "numeric", declared_min=-1.0, declared_max=100.0),
    ),
    3,
)


def numeric_idx(schema):
    return [i for i, a in enumerate(schema.attributes) if a.kind == "numeric"]


def forwarded_row(s):
    """The parsed sample's row of the block it forwards, or None once its
    list changed."""
    if s.values._fwd is None:
        return None
    block, at, _ = s.values._fwd
    return block[at]


@pytest.mark.parametrize("preset", sorted(synth.PRESETS))
def test_row_is_the_numeric_values_bit_for_bit(preset, tmp_path):
    path = str(tmp_path / "s.csv")
    schema = synth.write_csv(path, preset, 500, seed=4)
    idx = numeric_idx(schema)
    count = 0
    for s in open_stream(path, schema):
        row = forwarded_row(s)
        assert row.dtype == np.float64 and not row.flags.writeable
        assert row.tobytes() == np.array([s.values[i] for i in idx], dtype=np.float64).tobytes()
        count += 1
    assert count == 500


def test_a_changed_list_drops_its_row(tmp_path):
    path = str(tmp_path / "s.csv")
    schema = synth.write_csv(path, "threshold", 40, seed=1)
    samples = list(open_stream(path, schema))
    changes = [lambda v: v.__setitem__(0, 0.75), lambda v: v.append(0.5),
               lambda v: v.sort(), lambda v: v.__iadd__([0.1])]
    for s, change in zip(samples, changes):
        change(s.values)
        assert forwarded_row(s) is None
    # a changed sample trains as the plain list it now is
    parsed, plain = new_tree(schema), new_tree(schema)
    s = samples[0]
    parsed.train_one(s)
    plain.train_one(Sample(list(s.values), s.label))
    assert parsed.snapshot() == plain.snapshot()


def test_a_numeric_row_cannot_be_reassigned(tmp_path):
    """The tree checks only a row without the parser's block, so neither
    a public attribute nor a write into the block may swap the row for
    unchecked values."""
    path = str(tmp_path / "s.csv")
    schema = synth.write_csv(path, "bimodal", 300, seed=2)
    tree = new_tree(schema, TreeConfig(n_min=50, numeric_backend="fixed"))
    samples = list(open_stream(path, schema))
    tree.train(samples[:200])
    before = tree.snapshot()
    for s in samples[200:]:
        fwd = s.values._fwd
        row = forwarded_row(s)
        for name, value in (("numeric", np.array([np.nan, np.nan])), ("numeric", -row),
                            ("raw", fx.quantize_array(row)), ("forwarded", fwd)):
            with pytest.raises(AttributeError):
                setattr(s.values, name, value)
        with pytest.raises(ValueError, match="read-only"):
            row[0] = np.nan
        assert s.values._fwd is fwd
    assert tree.snapshot() == before
    tree.train(samples[200:])
    tree.validate()


class Forwarding(list):
    """A library caller's list that carries arrays where a parsed row's are."""

    forwarded = None


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_only_the_parsers_own_row_is_trusted(config, tmp_path):
    """The tree checks every row but an intact parsed one, and `observe`
    reads forwarded arrays from a parsed row only, so neither a look-alike
    list nor an assignment can carry unchecked values into the pool."""
    path = str(tmp_path / "s.csv")
    schema = synth.write_csv(path, "threshold", 300, seed=2)
    samples = list(open_stream(path, schema))
    with pytest.raises(AttributeError):
        samples[0].values.forwarded = (np.array([[np.nan, np.nan]]), 0)
    tree, plain = new_tree(schema, config), new_tree(schema, config)
    tree.train(samples[:200])
    plain.train(samples[:200])
    before = tree.snapshot()
    # out-of-domain values behind in-domain arrays: refused
    bad = Forwarding([np.nan, 1])
    bad.forwarded = (np.array([[0.1, 1.0]]), 0)
    with pytest.raises(ValueError, match="not in \\[-1, 1\\]: nan"):
        tree.step(Sample(bad, 0))
    assert tree.snapshot() == before
    # in-domain values in front of NaN arrays: learnt as the plain list
    for s in samples[200:]:
        row = Forwarding(s.values)
        row.forwarded = (np.full((1, len(row)), np.nan), 0)
        tree.step(Sample(row, s.label))
        plain.step(Sample(list(s.values), s.label))
    assert tree.snapshot() == plain.snapshot()
    tree.validate()


def counting_quantize(monkeypatch):
    """The arrays `fx.quantize_array` is called on, from now on."""
    calls, quantize = [], fx.quantize_array

    def counted(x):
        calls.append(x)
        return quantize(x)

    monkeypatch.setattr(fx, "quantize_array", counted)
    return calls


def chunks_rounded(calls, samples):
    """How often each parsed chunk of `samples`, in stream order, was
    rounded; other arrays (split points, gains) are not counted."""
    chunks = list({id(s.values._fwd[0]): s.values._fwd[0] for s in samples}.values())
    return [sum(x is c for x in calls) for c in chunks]


@pytest.mark.parametrize("backend, rounded", [("float", False), ("fixed", True)])
def test_a_chunk_is_rounded_only_for_a_learner_that_asks(backend, rounded, tmp_path,
                                                        monkeypatch):
    """The parser rounds nothing; a fixed pool rounds each chunk of a
    stream read in order once, a float pool never calls the rounding."""
    path = str(tmp_path / "s.csv")
    schema = synth.write_csv(path, "bimodal", 100, seed=3)
    calls = counting_quantize(monkeypatch)
    samples = list(open_stream(path, schema))
    assert calls == []
    new_tree(schema, TreeConfig(numeric_backend=backend)).train(samples)
    assert chunks_rounded(calls, samples) == [int(rounded)] * 4  # 100 rows, 32 a chunk
    if not rounded:
        assert calls == []


def test_two_fixed_trees_in_one_pass_round_each_chunk_once_each(tmp_path, monkeypatch):
    path = str(tmp_path / "s.csv")
    schema = synth.write_csv(path, "bimodal", 100, seed=3)
    samples = list(open_stream(path, schema))
    calls = counting_quantize(monkeypatch)
    configs = [TreeConfig(numeric_backend="fixed"), TreeConfig(),
               TreeConfig(numeric_backend="fixed", n_min=50)]
    harness.run_many(lambda: iter(samples), schema, configs)
    assert chunks_rounded(calls, samples) == [2] * 4


@pytest.mark.parametrize("lam, clips", [(0.01, False), (1.0, False), (1.2, True)])
def test_pool_decides_once_whether_steps_clip(lam, clips):
    """At Q=8 the longest step is 0.889 at lam 1.0 and 1.067 at lam 1.2."""
    schema = synth.preset_schema("bimodal")
    tree = new_tree(schema, TreeConfig(quantile_count=8, numeric_backend="fixed", lam=lam))
    assert tree.stats.clip_steps is clips
    longest = max(tree.stats.step_up.max(), tree.stats.step_down.max()).item() / fx.SCALE
    assert (longest >= 1.0) is clips
    for config in (TreeConfig(lam=lam), TreeConfig(method="gaussian", lam=lam)):
        assert new_tree(schema, config).stats.clip_steps is False


@pytest.mark.parametrize("config", [pytest.param(CONFIGS[k], id=k)
                                    for k in ("quantile-float", "quantile-fixed", "gaussian")])
def test_a_hand_built_negative_zero_learns_as_zero(config):
    """The parser never yields -0.0, and `observe` makes a hand-built -0.0
    the 0.0 the parser yields for "-0": rows holding -0.0 give the
    predictions, split log and snapshot bytes of the same rows with 0.0.
    x2 is never below zero, so a zero is its minimum in every leaf."""
    schema = DatasetSchema(MIXED.attributes[:3], 3)
    rng = np.random.default_rng(5)
    signed, zeros = [], []
    for _ in range(3000):
        x0 = (-0.0, 0.0, -0.5, 0.5, float(rng.uniform(-1, 1)))[rng.integers(5)]
        x2 = (-0.0, 0.0, float(rng.uniform(0, 1)))[rng.integers(3)]
        y = int(x0 > 0.25) + int(x2 > 0.5) if rng.random() < 0.9 else int(rng.integers(3))
        c1 = int(rng.integers(3))
        signed.append(Sample([x0, c1, x2], y))
        zeros.append(Sample([x0 + 0.0, c1, x2 + 0.0], y))
    assert any(v == 0.0 and math.copysign(1.0, v) < 0 for s in signed for v in s.values)
    a, b = new_tree(schema, config), new_tree(schema, config)
    assert [a.step(s) for s in signed] == [b.step(s) for s in zeros]
    assert a.split_log and a.split_log == b.split_log
    assert a.snapshot() == b.snapshot()


rows = st.lists(
    st.tuples(st.floats(-6.0, 6.0), st.integers(0, 2), st.floats(-0.2, 1.2),
              st.floats(-1.0, 100.0), st.integers(0, 2)),
    min_size=1, max_size=300)


def learns_as_plain(config, parsed):
    """The tree fed `parsed` decides as one fed the same rows as plain lists."""
    plain = [Sample(list(s.values), s.label) for s in parsed]
    assert all(type(s.values) is not list for s in parsed)
    a, b = new_tree(MIXED, config), new_tree(MIXED, config)
    assert [a.step(s) for s in parsed] == [b.step(s) for s in plain]
    assert a.split_log == b.split_log
    assert a.stats.saturation_count == b.stats.saturation_count
    assert a.snapshot() == b.snapshot()


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=rows)
def test_parsed_samples_learn_as_plain_samples(config, rows):
    """In stream order; shuffled, so a fixed pool meets chunks out of
    order; and two streams interleaved into one tree, so it switches
    chunks at every sample: each rounding the pool repeats gives the same
    words."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "w", encoding="utf-8") as fh:
            for x0, c1, x2, x3, y in rows:
                fh.write(f"{x0!r},{c1},{x2!r},{x3!r},{y}\n")
        parsed = list(open_stream(path, MIXED))
        other = list(open_stream(path, MIXED))[::-1]
    learns_as_plain(config, parsed)
    shuffled = parsed[:]
    random.Random(len(rows)).shuffle(shuffled)
    learns_as_plain(config, shuffled)
    learns_as_plain(config, [s for pair in zip(parsed, other) for s in pair])


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
def test_int_values_learn_as_floats(config):
    """A hand-built sample may hold ints where floats are meant; the fixed
    backend used to raise numpy's UFuncTypeError on them mid-update."""
    schema = synth.preset_schema("threshold")
    ints, floats = new_tree(schema, config), new_tree(schema, config)
    for k in range(60):
        x = [k % 3 - 1, (k // 3) % 2]
        ints.train_one(Sample(x, k % 2))
        floats.train_one(Sample([float(v) for v in x], k % 2))
    assert ints.snapshot() == floats.snapshot()
