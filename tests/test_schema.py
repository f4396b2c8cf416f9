"""Schema parsing, normalization, and the streaming CSV reader."""

import ast
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from streamtree import schema as schema_module
from streamtree import synth
from streamtree.schema import (
    AttributeSpec,
    DatasetSchema,
    Sample,
    SchemaError,
    StreamFormatError,
    denormalize,
    load_schema,
    normalize,
    open_stream,
    parse_schema,
    schema_doc,
    schema_from_doc,
    schema_to_json,
)

TWO_NUM_ONE_CAT = """
{
  "attributes": [
    {"name": "x", "kind": "numeric", "min": 0, "max": 10},
    {"name": "y", "kind": "numeric", "min": -5, "max": 5},
    {"name": "color", "kind": "categorical", "cardinality": 3}
  ],
  "classes": 2
}
"""


class TestParseSchema:
    def test_mixed_attributes(self):
        schema = parse_schema(TWO_NUM_ONE_CAT)
        assert schema.attr_count == 3
        assert schema.class_count == 2
        assert schema.attributes[0].declared_max == 10
        assert schema.attributes[2].cardinality == 3

    def test_no_attributes_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema('{"attributes": [], "classes": 2}')

    def test_bad_cardinality_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema(
                '{"attributes": [{"kind": "categorical", "cardinality": 1}], "classes": 2}'
            )

    def test_min_ge_max_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema(
                '{"attributes": [{"kind": "numeric", "min": 3, "max": 3}], "classes": 2}'
            )

    def test_single_class_rejected(self):
        with pytest.raises(SchemaError):
            parse_schema(
                '{"attributes": [{"kind": "numeric", "min": 0, "max": 1}], "classes": 1}'
            )

    @pytest.mark.parametrize("field, bad", [
        ("label_column", 4), ("label_column", 7), ("label_column", -2),
        ("label_column", -4), ("label_column", True), ("label_column", 1.5),
        ("label_column", 1.0), ("label_column", "first"), ("label_column", None),
        ("min", float("-inf")), ("max", float("inf")), ("min", float("nan")),
        ("min", -1e308),
        # fields of the wrong JSON type are rejected, not coerced
        ("min", None), ("min", "abc"), ("min", True), ("max", [1]),
        ("cardinality", [2]), ("cardinality", 2.9), ("cardinality", True),
        ("cardinality", "3"), ("classes", "x"), ("classes", 2.7), ("classes", 2.0),
        ("classes", True), ("has_header", "false"), ("has_header", 0),
        ("name", 5), ("name", None),
    ])
    def test_bad_label_column_or_bound_rejected(self, field, bad):
        doc = json.loads(TWO_NUM_ONE_CAT)
        if field in ("label_column", "classes", "has_header"):
            doc[field] = bad
        elif field == "cardinality":
            doc["attributes"][2][field] = bad
        else:
            doc["attributes"][0].update({"min": 0, "max": 1e308, field: bad})
        with pytest.raises(SchemaError):
            parse_schema(json.dumps(doc))

    @pytest.mark.parametrize("label_column, index", [("last", 3), (-1, 3), (0, 0), (3, 3)])
    def test_label_column_resolves(self, label_column, index):
        doc = json.loads(TWO_NUM_ONE_CAT)
        doc["label_column"] = label_column
        schema = parse_schema(json.dumps(doc))
        assert schema.label_index() == index
        assert schema.label_column == label_column
        assert parse_schema(schema_to_json(schema)) == schema

    def test_bound_past_float_range_rejected(self):
        doc = json.loads(TWO_NUM_ONE_CAT)
        doc["attributes"][0]["max"] = 10 ** 400
        with pytest.raises(SchemaError, match="must be finite"):
            parse_schema(json.dumps(doc))

    def test_json_types_are_kept(self):
        doc = json.loads(TWO_NUM_ONE_CAT)
        doc["has_header"] = True
        schema = parse_schema(json.dumps(doc))
        assert schema.has_header is True and type(schema.class_count) is int
        assert [type(a.declared_min) for a in schema.attributes[:2]] == [float, float]
        assert parse_schema(schema_to_json(schema)) == schema

    def test_not_json(self):
        with pytest.raises(SchemaError):
            parse_schema("attributes: nope")

    def test_round_trip_through_json(self):
        schema = parse_schema(TWO_NUM_ONE_CAT)
        again = parse_schema(schema_to_json(schema))
        assert again == schema
        # the snapshot embeds the decoded form, with the same checks
        assert schema_from_doc(schema_doc(schema)) == schema
        assert json.loads(schema_to_json(schema)) == schema_doc(schema)
        with pytest.raises(SchemaError, match="schema root must be an object"):
            schema_from_doc([schema_doc(schema)])


class TestNormalize:
    SPEC = AttributeSpec("x", "numeric", declared_min=0.0, declared_max=10.0)

    def test_lower_bound(self):
        assert normalize(0.0, self.SPEC) == -1.0

    def test_midpoint(self):
        assert normalize(5.0, self.SPEC) == 0.0

    def test_hand_value(self):
        assert normalize(7.5, self.SPEC) == 0.5

    def test_clamps(self):
        assert normalize(-3.0, self.SPEC) == -1.0
        assert normalize(42.0, self.SPEC) == 1.0

    def test_monotone(self):
        xs = np.linspace(-5, 15, 101)
        ys = [normalize(float(x), self.SPEC) for x in xs]
        assert all(a <= b for a, b in zip(ys, ys[1:]))
        assert all(-1.0 <= y <= 1.0 for y in ys)

    def test_round_trip_in_range(self):
        for raw in (0.0, 0.001, 3.7, 9.999, 10.0):
            norm = normalize(raw, self.SPEC)
            assert denormalize(norm, self.SPEC) == pytest.approx(raw, abs=1e-12)


class TestOpenStream:
    def write(self, tmp_path, text, name="d.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    def schema(self):
        return parse_schema(TWO_NUM_ONE_CAT)

    def test_three_rows_in_order(self, tmp_path):
        path = self.write(tmp_path, "0,0,0,0\n5,-5,1,1\n10,5,2,0\n")
        got = list(open_stream(path, self.schema()))
        assert len(got) == 3
        assert got[0] == Sample([-1.0, 0.0, 0], 0)
        assert got[1] == Sample([0.0, -1.0, 1], 1)
        assert got[2] == Sample([1.0, 1.0, 2], 0)

    def test_wrong_arity_identifies_row(self, tmp_path):
        path = self.write(tmp_path, "0,0,0,0\n5,-5,1\n")
        stream = open_stream(path, self.schema())
        next(stream)
        with pytest.raises(StreamFormatError, match="row 2"):
            next(stream)

    def test_bad_numeric_field(self, tmp_path):
        path = self.write(tmp_path, "zero,0,0,0\n")
        with pytest.raises(StreamFormatError, match="row 1.*'x'"):
            next(open_stream(path, self.schema()))

    def test_unknown_categorical_code(self, tmp_path):
        path = self.write(tmp_path, "0,0,7,0\n")
        with pytest.raises(StreamFormatError, match="code 7"):
            next(open_stream(path, self.schema()))

    def test_label_out_of_range(self, tmp_path):
        path = self.write(tmp_path, "0,0,0,5\n")
        with pytest.raises(StreamFormatError, match="label 5"):
            next(open_stream(path, self.schema()))

    def test_clamp_counting(self, tmp_path):
        path = self.write(tmp_path, "-99,0,0,0\n5,0,0,1\n99,99,0,0\ninf,-inf,0,0\n")
        stream = open_stream(path, self.schema())
        rows = list(stream)
        assert stream.clamp_count == 5
        assert rows[0].values[0] == -1.0
        assert rows[2].values[:2] == [1.0, 1.0]
        assert rows[3].values[:2] == [1.0, -1.0]

    def test_nan_rejected_with_row_and_attribute(self, tmp_path):
        path = self.write(tmp_path, "0,0,0,0\n1,nan,0,1\n")
        stream = open_stream(path, self.schema())
        next(stream)
        with pytest.raises(StreamFormatError, match="row 2: attribute 'y' value 'nan' is NaN"):
            next(stream)

    def test_header_skipped(self, tmp_path):
        doc = json.loads(TWO_NUM_ONE_CAT)
        doc["has_header"] = True
        schema = parse_schema(json.dumps(doc))
        path = self.write(tmp_path, "x,y,color,label\n5,0,1,1\n")
        got = list(open_stream(path, schema))
        assert got == [Sample([0.0, 0.0, 1], 1)]

    def test_label_column_override(self, tmp_path):
        doc = json.loads(TWO_NUM_ONE_CAT)
        doc["label_column"] = 0
        schema = parse_schema(json.dumps(doc))
        path = self.write(tmp_path, "1,5,0,2\n")
        got = list(open_stream(path, schema))
        assert got == [Sample([0.0, 0.0, 2], 1)]

    def test_constant_memory_on_large_file(self, tmp_path):
        n = 1_000_000
        path = str(tmp_path / "big.csv")
        with open(path, "w", encoding="utf-8") as fh:
            for k in range(n):
                fh.write(f"{k % 11},{k % 7 - 5},{k % 3},{k % 2}\n")
        stream = open_stream(path, self.schema())
        tracemalloc.start()
        count = 0
        for _ in stream:
            count += 1
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert count == n
        assert peak < 4 * 1024 * 1024  # constant in row count

    def test_load_schema_from_file(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text(TWO_NUM_ONE_CAT, encoding="utf-8")
        assert load_schema(str(p)) == parse_schema(TWO_NUM_ONE_CAT)


class TestSynthPresets:
    def test_deterministic(self):
        a = list(synth.generate("bimodal", 100, seed=4))
        b = list(synth.generate("bimodal", 100, seed=4))
        assert a == b

    def test_values_in_range(self):
        for name in synth.PRESETS:
            schema = synth.preset_schema(name)
            for s in synth.generate(name, 500, seed=1):
                assert len(s.values) == schema.attr_count
                assert 0 <= s.label < schema.class_count
                for v, spec in zip(s.values, schema.attributes):
                    if spec.kind == "numeric":
                        assert -1.0 <= v <= 1.0
                    else:
                        assert 0 <= v < spec.cardinality

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            synth.preset_schema("nope")

    def test_csv_round_trip(self, tmp_path):
        path = str(tmp_path / "synth.csv")
        schema = synth.write_csv(path, "threshold", 200, seed=3)
        direct = list(synth.generate("threshold", 200, seed=3))
        streamed = list(open_stream(path, schema))
        assert len(streamed) == 200
        for a, b in zip(direct, streamed):
            assert a.label == b.label
            assert a.values == pytest.approx(b.values, abs=1e-12)

    def test_bimodal_moments_overlap(self):
        # the informative attribute must look identical to a mean/variance fit
        xs0, xs1 = [], []
        for s in synth.generate("bimodal", 20_000, seed=7):
            (xs0 if s.label == 0 else xs1).append(s.values[0])
        m0, m1 = np.mean(xs0), np.mean(xs1)
        v0, v1 = np.var(xs0), np.var(xs1)
        assert abs(m0 - m1) < 0.02
        assert abs(v0 - v1) < 0.06


# every numeric attribute's range, among them one declared from -0.0
ZERO_EDGES = ((-1.0, 1.0), (-0.0, 2.0), (-3.0, 0.0), (-1e-300, 1e-300), (0.0, 1e300))
ZERO_SCHEMA = parse_schema(json.dumps({
    "attributes": [{"kind": "numeric", "min": lo, "max": hi} for lo, hi in ZERO_EDGES],
    "classes": 2}))
assert math.copysign(1.0, ZERO_SCHEMA.attributes[1].declared_min) < 0


def zero_prone(lo, hi):
    """Fields for an attribute declared [lo, hi]: negative zeros (-1e-400
    parses to -0.0), zeros, the edges and the floats just past them, the
    midpoint, the infinities and any float."""
    fields = ["-0", "-0.0", "-0e3", "-1e-400", "0", "0.0", "1e-400", "-inf", "inf",
              repr(lo), repr(hi), repr(math.nextafter(lo, -math.inf)),
              repr(math.nextafter(hi, math.inf)), repr(lo / 2 + hi / 2)]
    return st.sampled_from(fields) | st.floats(allow_nan=False).map(repr)


zero_rows = st.lists(st.tuples(*(zero_prone(lo, hi) for lo, hi in ZERO_EDGES),
                               st.sampled_from("01")), min_size=1, max_size=40)


def is_negative_zero(v) -> bool:
    return v == 0 and math.copysign(1.0, v) < 0


@pytest.mark.parametrize("quoted", [False, True], ids=["block", "per-row"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=zero_rows)
def test_the_parser_never_yields_negative_zero(quoted, rows):
    """The range fold relies on it (`leaf_stats.StatsPool._fold`). A quote
    in a chunk sends it through the per-row parser, so both paths run."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "s.csv")
        with open(path, "w", encoding="utf-8") as fh:
            for first, *rest in rows:
                fh.write(",".join([f'"{first}"' if quoted else first, *rest]) + "\n")
        samples = list(open_stream(path, ZERO_SCHEMA))
    assert len(samples) == len(rows)
    for s in samples:
        assert not any(map(is_negative_zero, s.values))
        if quoted:
            assert type(s.values) is list
        else:
            block, _, _ = s.values._fwd
            assert not (np.signbit(block) & (block == 0.0)).any()


def test_the_parser_imports_no_learner_backend():
    """The parser forwards its float64 block as is; turning it into a
    backend's units (Q2.30 words) is the learner's statistics' job."""
    with open(schema_module.__file__, encoding="utf-8") as fh:
        module = ast.parse(fh.read())
    imported = []
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            imported += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{a.name}" for a in node.names]
    assert imported and not [name for name in imported if "fixed_point" in name]
