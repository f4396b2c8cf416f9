"""`SampleStream` (chunked, `np.loadtxt`) against the row-at-a-time oracle.

Both readers run over the same file and must agree on every step: the
sample (values and label, with their types), `clamp_count` and
`rows_read` after each yielded row and at the end, and the exception
type and message of the first bad row. The stream is read twice, by
`next()` and through its `__next__` bound once before the first row, as
the bench's `StampedStream` reads it. The hypothesis test puts odd rows
at the chunk edges (with 32-line chunks: lines 1, 31-33, 63-65 and 128).
"""

import itertools
import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from streamtree.schema import (
    CATEGORICAL,
    CHUNK_LINES,
    NUMERIC,
    AttributeSpec,
    DatasetSchema,
    open_stream,
)
from stream_oracle import OracleStream

EDGE_LINES = (1, CHUNK_LINES - 1, CHUNK_LINES, CHUNK_LINES + 1,
              2 * CHUNK_LINES - 1, 2 * CHUNK_LINES, 2 * CHUNK_LINES + 1, 4 * CHUNK_LINES)

# fields the block parser and the row parser must treat alike
ODD_NUMBERS = ["1_000", "nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "1e400",
               "-1e400", "1e-400", "", " ", "abc", "0x10", "1d3", "1.5.2", ".5", "5.",
               "+.5e-1", " 0.25", "0.25 ", "\t0.25", '"0.5"', '" 0.5 "', '"1,5"',
               '"0.5\n"', '""', '"0."5', '0"5"', "\u0663", "\xa00.5", "0.5\x0b", "1\x00"]
ODD_INTS = ["1.0", "1e0", " 1", "1 ", '"1"', "1_0", "+1", "-0", "-1", "01",
            "99999999999999999999", "", "x", "True", '"1\n"', "\u0661", "\xa01"]
ODD_LINES = ["\n", "\r\n", "   \n", ",\n", "#\n", '"\n']


def clean_field(rng, spec):
    if spec.kind == CATEGORICAL:
        return str(rng.randrange(spec.cardinality))
    lo, hi = spec.declared_min, spec.declared_max
    x = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo))  # some clamp
    return rng.choice([repr(x), f"{x:.3f}", str(round(x))])


def label_pos(schema):
    return schema.label_index() % (schema.attr_count + 1)  # -1 is the last column


def row_fields(rng, schema, label):
    fields = [clean_field(rng, spec) for spec in schema.attributes]
    fields.insert(label_pos(schema), label)
    return fields


def write_csv(path, schema, rows, eol):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if schema.has_header:
            names = [a.name for a in schema.attributes]
            names.insert(label_pos(schema), "label")
            fh.write(",".join(names) + eol)
        for row in rows:
            fh.write(row if isinstance(row, str) else ",".join(row) + eol)


def step(stream):
    """("sample", sample, value types) or ("raised", type, message) or ("end",)."""
    try:
        s = next(stream)
    except StopIteration:
        return ("end",)
    except Exception as e:  # the oracle's csv.Error counts too
        return ("raised", type(e), str(e))
    return described(s)


def described(s):
    return ("sample", s, type(s), [type(v) for v in s.values], type(s.label))


class BoundConsumer:
    """Takes rows as the bench's `StampedStream` does: through the stream's
    `__next__`, bound once before the first row."""

    def __init__(self, stream):
        self._next = stream.__next__

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def assert_same_stream(path, schema, pause_at=0):
    """The stream against the oracle, taken by `next()` and by a
    `BoundConsumer`; returns the rows yielded before the end or the error.
    With `pause_at`, `itertools.islice` over the stream itself takes the
    first rows, and may stop mid-chunk, before the consumer reads on."""
    rows = {same_rows(path, schema, consume, pause_at) for consume in (iter, BoundConsumer)}
    assert len(rows) == 1
    return rows.pop()


def same_rows(path, schema, consume, pause_at):
    got, want = open_stream(path, schema), OracleStream(path, schema)
    take = consume(got)
    for a, b in zip(itertools.islice(got, pause_at), itertools.islice(want, pause_at),
                    strict=True):
        assert described(a) == described(b)
    assert (got.clamp_count, got.rows_read) == (want.clamp_count, want.rows_read)
    for row in itertools.count(pause_at + 1):
        a, b = step(take), step(want)
        assert a == b, f"after {row - 1} rows"
        if a[0] == "raised":
            # the oracle has counted the clamps of the rejected row's
            # earlier fields; the stream counts rows it yields only
            return row - 1
        assert (got.clamp_count, got.rows_read) == (want.clamp_count, want.rows_read)
        if a[0] == "end":
            return row - 1


@st.composite
def schemas(draw):
    kinds = draw(st.lists(st.sampled_from([NUMERIC, CATEGORICAL]), min_size=1, max_size=5))
    attrs = []
    for i, kind in enumerate(kinds):
        if kind == NUMERIC:
            lo = draw(st.sampled_from([-1.0, 0.0, -5.5, 1859.0]))
            attrs.append(AttributeSpec(f"a{i}", NUMERIC, declared_min=lo,
                                       declared_max=lo + draw(st.sampled_from([1.0, 2.5, 2000.0]))))
        else:
            attrs.append(AttributeSpec(f"c{i}", CATEGORICAL,
                                       cardinality=draw(st.integers(2, 4))))
    # -1 reads like "last" in the row path; the block parser refuses it
    label = draw(st.sampled_from(["last", 0, len(attrs) // 2, len(attrs), -1]))
    return DatasetSchema(tuple(attrs), draw(st.integers(2, 4)), label,
                         draw(st.booleans()))


@st.composite
def odd_rows(draw, schema):
    """A row that may break one rule, as its fields or as a whole line."""
    kind = draw(st.sampled_from(["field", "label", "short", "long", "line"]))
    rng = random.Random(draw(st.integers(0, 2**16)))
    fields = row_fields(rng, schema, str(rng.randrange(schema.class_count)))
    if kind == "field":
        at = draw(st.integers(0, schema.attr_count - 1))
        pool = ODD_NUMBERS if schema.attributes[at].kind == NUMERIC else ODD_INTS
        value = draw(st.sampled_from(pool + ["7", "-2", "3"]))
        fields[at + (at >= label_pos(schema))] = value
    elif kind == "label":
        fields[label_pos(schema)] = draw(st.sampled_from(ODD_INTS + ["5", "2"]))
    elif kind == "short":
        fields.pop(draw(st.integers(0, len(fields) - 1)))
    elif kind == "long":
        fields.append(draw(st.sampled_from(["0", ""])))
    else:
        return draw(st.sampled_from(ODD_LINES))
    return fields


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_chunked_stream_matches_row_oracle(tmp_path, data):
    schema = data.draw(schemas())
    n = data.draw(st.sampled_from([0, 1, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129]))
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    rows = [row_fields(rng, schema, str(rng.randrange(schema.class_count)))
            for _ in range(n)]
    for line in data.draw(st.lists(st.sampled_from(EDGE_LINES), max_size=4, unique=True)):
        if line <= n:
            rows[line - 1] = data.draw(odd_rows(schema))
    eol = data.draw(st.sampled_from(["\n", "\r\n"]))
    path = tmp_path / "d.csv"
    write_csv(path, schema, rows, eol)
    assert_same_stream(str(path), schema)


def test_odd_characters_match_row_oracle(tmp_path):
    """Every ASCII character and some Unicode spaces and digits, around and
    inside a numeric field, a code and a label, in both chunk halves."""
    schema = DatasetSchema((AttributeSpec("x", NUMERIC, declared_min=0.0, declared_max=10.0),
                            AttributeSpec("c", CATEGORICAL, cardinality=3)), 2)
    chars = [chr(c) for c in range(128)] + [
        "\x85", "\xa0", "\u1680", "\u2000", "\u2028", "\u2029", "\u3000", "\ufeff",
        "\u0663", "\uff11", "\U0001d7d9"]
    clean = ["2.5", "1", "0"]
    for ch, col, where in itertools.product(chars, range(3), range(3)):
        field = [ch + clean[col], clean[col] + ch, clean[col][:1] + ch + clean[col][1:]][where]
        rows = [clean] * (CHUNK_LINES + 2)
        rows[CHUNK_LINES - 1] = clean[:col] + [field] + clean[col + 1:]
        path = tmp_path / "d.csv"
        write_csv(path, schema, rows, "\n")
        assert_same_stream(str(path), schema)


def test_quoted_line_break_across_chunk_edge(tmp_path):
    """A refused chunk whose last record runs on into the next chunk: the
    row path reads the record's rest from the file, and the next chunk
    starts after it."""
    schema = DatasetSchema((AttributeSpec("x", NUMERIC, declared_min=0.0, declared_max=1.0),
                            AttributeSpec("c", CATEGORICAL, cardinality=2)), 2)
    rows = [["0.5", "1", "0"]] * (3 * CHUNK_LINES)
    rows[0] = ["1_000", "1", "0"]  # float() takes it, loadtxt does not
    rows[CHUNK_LINES - 1] = ["0.25", '"1\n"', "1"]  # int("1\n") == 1
    path = tmp_path / "d.csv"
    write_csv(path, schema, rows, "\n")
    assert assert_same_stream(str(path), schema) == 3 * CHUNK_LINES
    # the same record in an accepted chunk, and at the very end of the file
    rows[0] = ["0.5", "1", "0"]
    rows[-1] = rows[CHUNK_LINES - 1]
    write_csv(path, schema, rows, "\n")
    assert assert_same_stream(str(path), schema) == 3 * CHUNK_LINES


def test_islice_counts_only_rows_taken(tmp_path):
    """islice (the bench warm-up) or a loop that breaks (cdf-export
    --limit) stops mid-chunk; the counters must not count the rest of it."""
    schema = DatasetSchema((AttributeSpec("x", NUMERIC, declared_min=0.0, declared_max=1.0),), 2)
    path = tmp_path / "d.csv"
    write_csv(path, schema, [["5", "0"]] * (3 * CHUNK_LINES), "\n")  # every value clamps
    for taken in (10, CHUNK_LINES + 7):
        stream = open_stream(str(path), schema)
        assert len(list(itertools.islice(stream, taken))) == taken
        assert (stream.rows_read, stream.clamp_count) == (taken, taken)
    assert len(list(stream)) == 3 * CHUNK_LINES - taken
    assert (stream.rows_read, stream.clamp_count) == (3 * CHUNK_LINES, 3 * CHUNK_LINES)


def test_bound_next_across_a_row_chunk_and_an_islice_stop(tmp_path):
    """Both consumers through a block chunk, a chunk the block parser
    refuses (read row by row, clamping), a block chunk and a bad row, with
    an islice stop before and inside each chunk ahead of the bad row."""
    schema = DatasetSchema((AttributeSpec("x", NUMERIC, declared_min=0.0, declared_max=1.0),
                            AttributeSpec("c", CATEGORICAL, cardinality=2)), 2)
    rows = [[("5" if i % 3 else "0.5"), "1", "0"] for i in range(4 * CHUNK_LINES)]
    rows[CHUNK_LINES + 4] = ["1_000", "1", "1"]  # float() takes it, loadtxt does not
    bad = 3 * CHUNK_LINES + 9
    rows[bad] = ["0.5", "1", "x"]
    path = tmp_path / "d.csv"
    write_csv(path, schema, rows, "\n")
    for pause_at in (0, 7, CHUNK_LINES, CHUNK_LINES + 4, CHUNK_LINES + 5,
                     2 * CHUNK_LINES + 20, bad):
        assert assert_same_stream(str(path), schema, pause_at) == bad
