"""The parser's numeric row, carried on each parsed sample into `observe`.

`SampleStream` attaches each row's normalized numeric values, as the
float64 array it computed them in, to the sample's `values` list. The
learner must decide exactly as it does on a plain `Sample(list, int)`
that a library caller builds: same predictions, same split log, same
snapshot bytes.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamtree import synth
from streamtree.schema import AttributeSpec, DatasetSchema, Sample, open_stream
from streamtree.tree import TreeConfig, new_tree

CONFIGS = {
    "quantile-float": TreeConfig(n_min=25),
    "quantile-fixed": TreeConfig(n_min=25, numeric_backend="fixed"),
    "gaussian": TreeConfig(n_min=25, method="gaussian"),
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


@pytest.mark.parametrize("preset", sorted(synth.PRESETS))
def test_row_is_the_numeric_values_bit_for_bit(preset, tmp_path):
    path = str(tmp_path / "s.csv")
    schema = synth.write_csv(path, preset, 500, seed=4)
    idx = numeric_idx(schema)
    count = 0
    for s in open_stream(path, schema):
        row = s.values.numeric
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
        assert s.values.numeric is None
    # a changed sample trains as the plain list it now is
    parsed, plain = new_tree(schema), new_tree(schema)
    s = samples[0]
    parsed.train_one(s)
    plain.train_one(Sample(list(s.values), s.label))
    assert parsed.snapshot() == plain.snapshot()


rows = st.lists(
    st.tuples(st.floats(-6.0, 6.0), st.integers(0, 2), st.floats(-0.2, 1.2),
              st.floats(-1.0, 100.0), st.integers(0, 2)),
    min_size=1, max_size=300)


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@settings(max_examples=40, deadline=None, derandomize=True)
@given(rows=rows)
def test_parsed_samples_learn_as_plain_samples(config, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "w", encoding="utf-8") as fh:
            for x0, c1, x2, x3, y in rows:
                fh.write(f"{x0!r},{c1},{x2!r},{x3!r},{y}\n")
        parsed = list(open_stream(path, MIXED))
    plain = [Sample(list(s.values), s.label) for s in parsed]
    assert all(type(s.values) is not list for s in parsed)
    a, b = new_tree(MIXED, config), new_tree(MIXED, config)
    assert [a.step(s) for s in parsed] == [b.step(s) for s in plain]
    assert a.split_log == b.split_log
    assert a.snapshot() == b.snapshot()


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
