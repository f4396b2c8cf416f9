"""Dataset schemas, CSV sample streams, and range normalization.

Normalization bounds are declared per attribute in the schema rather than
measured from the data: the learner is online and never gets a second
pass. Raw values outside the declared range (infinities included) clamp
to the boundary, and the stream counts every clamp so a badly declared
range is visible in reports. A NaN has no place in any range and is
rejected like any other malformed field.

Categorical attributes must arrive pre-encoded as integer codes
0..cardinality-1; the `encode` CLI subcommand produces coded CSVs and a
matching schema from string-valued originals.

`SampleStream` reads a coded CSV in chunks of CHUNK_LINES (32) lines.
One `np.loadtxt` call parses a chunk, and array ops check, clamp-count
and normalize it, bit for bit as `normalize` would. Memory stays
constant in file size: one chunk of lines and a few chunk-sized arrays
(a million-row read peaks under 4 MiB in the tests). A chunk the block
parser refuses, for whatever reason, goes through the one per-row
function instead; that function defines what the stream accepts, yields
the rows before a bad one and names the bad row in its
StreamFormatError. A block-parsed sample's values list also carries its
numeric values as the parser's read-only float64 row, `values.numeric`,
and that row's Q2.30 words, `values.raw`: the chunk's block is rounded
once, on the first request. The learner's statistics take both as is.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

import numpy as np

from . import fixed_point as fx


class SchemaError(ValueError):
    """Schema text is malformed or violates a structural constraint."""


class StreamFormatError(ValueError):
    """A CSV row does not match the schema; message carries the row number."""


# Lines per np.loadtxt call. A refill stalls one sample's step, and one
# step in CHUNK_LINES is a refill, so its cost must stay under the
# learner's own p99.9 step (~90-110 us on a 3-column schema, ~300 us on a
# 55-column one, 2-vCPU Xeon guest, numpy 2.4.6). A 32-line refill step
# takes ~57 us and ~140 us there; a 64-line one ~85 us and ~250 us, which
# raised the narrow p99.9 by about a quarter.
CHUNK_LINES = 32


NUMERIC = "numeric"
CATEGORICAL = "categorical"


@dataclass(frozen=True)
class AttributeSpec:
    name: str
    kind: str
    declared_min: float = 0.0
    declared_max: float = 0.0
    cardinality: int = 0

    def __post_init__(self):
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == NUMERIC and not math.isfinite(self.declared_max - self.declared_min):
            # an infinite span normalizes every value to NaN
            raise SchemaError(
                f"attribute {self.name!r}: declared_min and declared_max must be finite, "
                "and so must their difference"
            )
        if self.kind == NUMERIC and not self.declared_min < self.declared_max:
            raise SchemaError(
                f"attribute {self.name!r}: declared_min must be < declared_max"
            )
        if self.kind == CATEGORICAL and self.cardinality < 2:
            raise SchemaError(f"attribute {self.name!r}: cardinality must be >= 2")


@dataclass(frozen=True)
class DatasetSchema:
    attributes: tuple[AttributeSpec, ...]
    class_count: int
    label_column: Union[int, str] = "last"
    has_header: bool = False

    def __post_init__(self):
        if not self.attributes:
            raise SchemaError("schema needs at least one attribute")
        if self.class_count < 2:
            raise SchemaError("class_count must be >= 2")
        # a bool or a float is not a column number
        at = self.label_column
        if not (at == "last" or (type(at) is int and -1 <= at <= self.attr_count)):
            raise SchemaError(f'label_column must be "last", -1 or an integer in '
                              f"0..{self.attr_count}, not {at!r}")

    @property
    def attr_count(self) -> int:
        return len(self.attributes)

    def label_index(self) -> int:
        """The label's column, 0..attr_count, in a row of attr_count+1 fields."""
        if self.label_column in ("last", -1):
            return self.attr_count
        return self.label_column


class Sample(NamedTuple):
    values: list  # normalized floats for numeric, int codes for categorical
    label: int


class _Words:
    """A chunk's normalized numeric block, and its read-only Q2.30 words
    once a row of them is first asked for: the block is rounded at most
    once, and never for a learner that does not ask (the float backend)."""

    __slots__ = ("norm", "raw")

    def __init__(self, norm: np.ndarray):
        self.norm, self.raw = norm, None

    def row(self, at: int) -> np.ndarray:
        if self.raw is None:
            self.raw = fx.quantize_array(self.norm)  # |norm| <= 1: nothing saturates
            self.raw.flags.writeable = False
        return self.raw[at]


class _Row(list):
    """A parsed sample's values that also carry its numeric values, in
    attribute order, as the parser's read-only rows: float64 `numeric`
    and their Q2.30 words `raw`, so the learner need not build either
    again. Both travel in one slot, `forwarded` = (numeric, the chunk's
    `_Words`, row index), which is None once the list changes; a new
    `numeric` replaces it and has no words, so no stale `raw` outlives
    the row it came with."""

    __slots__ = ("forwarded",)

    @property
    def numeric(self):
        return None if self.forwarded is None else self.forwarded[0]

    @numeric.setter
    def numeric(self, value):
        self.forwarded = None if value is None else (value, None, 0)

    @property
    def raw(self):
        fwd = self.forwarded
        return None if fwd is None or fwd[1] is None else fwd[1].row(fwd[2])


def _drops_forwarded(name: str):
    method = getattr(list, name)

    def mutate(self, *args, **kwargs):
        self.forwarded = None
        return method(self, *args, **kwargs)

    mutate.__name__ = name
    return mutate


for _name in ("__setitem__", "__delitem__", "__iadd__", "__imul__", "append", "extend",
              "insert", "pop", "remove", "clear", "sort", "reverse"):
    setattr(_Row, _name, _drops_forwarded(_name))
del _name


def _numeric_row(values: list, forwarded: tuple) -> _Row:
    row = _Row(values)
    row.forwarded = forwarded
    return row


def _typed(value, types: tuple, what: str):
    """value if its JSON type is one of `types`, else SchemaError saying
    what it must be; a bool is neither an int nor a number here."""
    if type(value) not in types:
        raise SchemaError(f"{what}, not {value!r}")
    return value


def parse_schema(text: str) -> DatasetSchema:
    """Build a DatasetSchema from its JSON description. A field of the
    wrong JSON type raises SchemaError; none is coerced."""
    try:
        doc = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an int past the digit limit
        raise SchemaError(f"schema is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise SchemaError("schema root must be an object")
    try:
        raw_attrs = doc["attributes"]
        classes = doc["classes"]
    except KeyError as e:
        raise SchemaError(f"schema missing field {e.args[0]!r}") from None
    if not isinstance(raw_attrs, list):
        raise SchemaError('"attributes" must be a list')
    attrs = []
    for idx, a in enumerate(raw_attrs):
        if not isinstance(a, dict) or "kind" not in a:
            raise SchemaError(f"attribute #{idx}: need an object with a kind")
        kind = a["kind"]
        name = _typed(a.get("name", f"attr{idx}"), (str,),
                      f"attribute #{idx}: name must be a string")
        if kind == NUMERIC:
            if "min" not in a or "max" not in a:
                raise SchemaError(f"attribute {name!r}: numeric needs min and max")
            lo, hi = (_typed(a[k], (int, float), f"attribute {name!r}: {k} must be a number")
                      for k in ("min", "max"))
            try:
                lo, hi = float(lo), float(hi)
            except OverflowError:  # an int beyond float64
                raise SchemaError(f"attribute {name!r}: min and max must be finite") from None
            attrs.append(AttributeSpec(name, NUMERIC, declared_min=lo, declared_max=hi))
        else:
            cardinality = _typed(a.get("cardinality", 0), (int,),
                                 f"attribute {name!r}: cardinality must be an integer")
            attrs.append(AttributeSpec(name, kind, cardinality=cardinality))
    return DatasetSchema(
        attributes=tuple(attrs),
        class_count=_typed(classes, (int,), '"classes" must be an integer'),
        label_column=doc.get("label_column", "last"),
        has_header=_typed(doc.get("has_header", False), (bool,),
                          '"has_header" must be true or false'),
    )


def load_schema(path: str) -> DatasetSchema:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schema(fh.read())


def schema_to_json(schema: DatasetSchema) -> str:
    attrs = []
    for a in schema.attributes:
        if a.kind == NUMERIC:
            attrs.append({"name": a.name, "kind": a.kind,
                          "min": a.declared_min, "max": a.declared_max})
        else:
            attrs.append({"name": a.name, "kind": a.kind,
                          "cardinality": a.cardinality})
    doc = {
        "attributes": attrs,
        "classes": schema.class_count,
        "label_column": schema.label_column,
        "has_header": schema.has_header,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def normalize(raw: float, spec: AttributeSpec) -> float:
    """Affine map of the declared range onto [-1, 1], clamped outside it."""
    span = spec.declared_max - spec.declared_min
    v = 2.0 * (raw - spec.declared_min) / span - 1.0
    if v < -1.0:
        return -1.0
    if v > 1.0:
        return 1.0
    return v


def denormalize(norm: float, spec: AttributeSpec) -> float:
    span = spec.declared_max - spec.declared_min
    return spec.declared_min + (norm + 1.0) * span / 2.0


class SampleStream:
    """Single-pass iterator of Samples from a coded CSV file.

    Reads the file CHUNK_LINES lines at a time, so memory stays constant
    in file size. Each chunk is parsed with one ``np.loadtxt`` call and
    validated, clamp-counted and normalized as array ops. A chunk the
    block parser refuses, for any reason, is re-read record by record
    through ``_row``, which decides as ``float``, ``int`` and ``normalize``
    per field: it yields the good rows before a bad one and raises
    StreamFormatError naming that row. Either way the stream accepts the
    same files and yields the same samples.

    Exposes ``clamp_count`` (numeric values outside their declared range)
    and ``rows_read`` for reporting; both count the rows yielded so far.
    """

    def __init__(self, path: str, schema: DatasetSchema):
        self.schema = schema
        self.clamp_count = 0
        self.rows_read = 0
        self._fh = open(path, "r", encoding="utf-8", newline="")
        self._row_no = 0
        if schema.has_header:
            try:
                next(csv.reader(self._fh))
                self._row_no = 1
            except StopIteration:
                pass
        self._label_at = schema.label_index()
        self._expected = schema.attr_count + 1
        self._block = _Block(schema, self._label_at)
        self._samples = self._read()

    def __iter__(self) -> Iterator[Sample]:
        return self

    def __next__(self) -> Sample:
        return next(self._samples)

    def _read(self) -> Iterator[Sample]:
        fh = self._fh
        try:
            while lines := list(itertools.islice(fh, CHUNK_LINES)):
                parsed = self._block.parse(lines)
                if parsed is None:
                    # record by record; a quoted line break may carry the
                    # last record on into lines past the chunk
                    reader = csv.reader(itertools.chain(lines, fh))
                    while reader.line_num < len(lines):
                        yield self._row(next(reader))
                    continue
                self._row_no += len(lines)
                for sample, clamps in parsed:
                    self.rows_read += 1
                    self.clamp_count += clamps
                    yield sample
        finally:
            fh.close()

    def _row(self, row: list) -> Sample:
        self._row_no += 1
        if len(row) != self._expected:
            raise StreamFormatError(
                f"row {self._row_no}: expected {self._expected} fields, got {len(row)}"
            )
        label_at = self._label_at
        try:
            label = int(row[label_at])
        except ValueError:
            raise StreamFormatError(
                f"row {self._row_no}: label {row[label_at]!r} is not an integer"
            ) from None
        if not 0 <= label < self.schema.class_count:
            raise StreamFormatError(
                f"row {self._row_no}: label {label} outside 0..{self.schema.class_count - 1}"
            )
        values = []
        clamps = 0
        col = 0
        for spec in self.schema.attributes:
            if col == label_at:
                col += 1
            field = row[col]
            col += 1
            if spec.kind == NUMERIC:
                try:
                    raw = float(field)
                except ValueError:
                    raise StreamFormatError(
                        f"row {self._row_no}: attribute {spec.name!r} value "
                        f"{field!r} is not numeric"
                    ) from None
                v = normalize(raw, spec)
                if not (spec.declared_min <= raw <= spec.declared_max):
                    if raw != raw:
                        raise StreamFormatError(
                            f"row {self._row_no}: attribute {spec.name!r} value "
                            f"{field!r} is NaN"
                        )
                    clamps += 1
                values.append(v)
            else:
                try:
                    code = int(field)
                except ValueError:
                    raise StreamFormatError(
                        f"row {self._row_no}: attribute {spec.name!r} code "
                        f"{field!r} is not an integer"
                    ) from None
                if not 0 <= code < spec.cardinality:
                    raise StreamFormatError(
                        f"row {self._row_no}: attribute {spec.name!r} code {code} "
                        f"outside 0..{spec.cardinality - 1}"
                    )
                values.append(code)
        self.clamp_count += clamps
        self.rows_read += 1
        return Sample(values, label)

    def close(self) -> None:
        self._fh.close()


# Python's float() and int() strip only " \t\n\v\f\r" of the ASCII
# characters; numpy's parsers also strip these four separators, so
# "\x1c1" would parse where int() rejects it.
_NUMPY_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


class _Block:
    """The chunk parser: one ``np.loadtxt`` call, then array checks.

    The row dtype is structured: each run of adjacent numeric columns is
    one float64 subarray field, each run of categorical columns one int64
    subarray field, and the label an int64 field, so ``np.loadtxt``
    refuses a code or label such as ``1.0`` as ``int()`` does.

    It refuses, untried, every chunk whose text numpy and Python could
    read apart: one with a non-ASCII character (Python reads Unicode
    digits and spaces its own way, and numpy 2.4.6's int64 parser
    segfaults now and then on a field such as "\U0002c6ca1"), with one of
    the four ASCII separators above, or with a line longer than csv's
    field limit. Quoting is off, so a chunk with a quote character never
    parses (a quote cannot be part of a number) and a quoted line break
    never reaches numpy, which would close an open quote at the end of
    the chunk where csv reads on into the next line.
    """

    def __init__(self, schema: DatasetSchema, label_at: int):
        attrs = schema.attributes
        self.class_count = schema.class_count
        kinds = [a.kind for a in attrs]
        kinds.insert(label_at, "label")
        fields = []
        self.numeric, self.categorical = [], []  # field names, in column order
        for kind, run in itertools.groupby(kinds):
            if kind == "label":
                fields.append(("label", np.int64))
                continue
            name = f"f{len(fields)}"
            fields.append((name, np.float64 if kind == NUMERIC else np.int64,
                           (len(list(run)),)))
            (self.numeric if kind == NUMERIC else self.categorical).append(name)
        self.dtype = np.dtype(fields)
        num = [a for a in attrs if a.kind == NUMERIC]
        self.lo = np.array([a.declared_min for a in num])
        self.hi = np.array([a.declared_max for a in num])
        self.span = np.array([a.declared_max - a.declared_min for a in num])
        self.cardinality = np.array([a.cardinality for a in attrs
                                     if a.kind == CATEGORICAL], dtype=np.int64)
        self.num_at = [i for i, a in enumerate(attrs) if a.kind == NUMERIC]
        self.cat_at = [i for i, a in enumerate(attrs) if a.kind == CATEGORICAL]

    def parse(self, lines: list):
        """(sample, clamps) pairs for the chunk's rows, or None to refuse it."""
        text = "".join(lines)
        limit = csv.field_size_limit()  # csv.reader raises on a longer field
        if (not text.isascii()
                or any(c in text for c in _NUMPY_ONLY_SPACES)
                or (len(text) > limit and max(map(len, lines)) > limit)):
            return None
        try:
            with warnings.catch_warnings():
                # older numpy (1.23 among them) parses 1.0 into an int64
                # field with only a DeprecationWarning, and a chunk of blank
                # lines gives a UserWarning ("input contained no data")
                warnings.simplefilter("error", DeprecationWarning)
                warnings.simplefilter("error", UserWarning)
                a = np.loadtxt(lines, delimiter=",", comments=None, dtype=self.dtype,
                               ndmin=1)
        except (ValueError, DeprecationWarning, UserWarning):
            return None
        if len(a) != len(lines):  # loadtxt skips blank lines, which _row rejects
            return None
        labels = a["label"].tolist()
        if min(labels) < 0 or max(labels) >= self.class_count:
            return None
        clamps = itertools.repeat(0, len(a))
        parts = []  # (attribute positions, values in those positions)
        if self.categorical:
            codes = _columns(a, self.categorical)
            if ((codes < 0) | (codes >= self.cardinality)).any():
                return None
            parts.append((self.cat_at, codes))
        if self.numeric:
            x = _columns(a, self.numeric)
            inside = (x >= self.lo) & (x <= self.hi)  # False for NaN
            if not inside.all():
                if np.isnan(x).any():
                    return None
                clamps = (~inside).sum(axis=1).tolist()
            with np.errstate(over="ignore", invalid="ignore"):
                # normalize() on every value: the same float ops, in order
                norm = x - self.lo
                norm *= 2.0
                norm /= self.span
                norm -= 1.0
            np.minimum(norm, 1.0, out=norm)
            np.maximum(norm, -1.0, out=norm)
            norm.flags.writeable = False
            parts.append((self.num_at, norm))
        if len(parts) == 1:
            rows = parts[0][1].tolist()
        else:
            mixed = np.empty((len(a), len(self.num_at) + len(self.cat_at)), dtype=object)
            for at, part in parts:
                mixed[:, at] = part  # float64 -> float, int64 -> int
            rows = mixed.tolist()
        if self.numeric:
            words = zip(norm, itertools.repeat(_Words(norm)), itertools.count())
            rows = map(_numeric_row, rows, words)
        # tuple.__new__ builds each Sample without a Python-level __new__ call
        samples = map(tuple.__new__, itertools.repeat(Sample), zip(rows, labels))
        return zip(samples, clamps)


def _columns(a: np.ndarray, fields: list) -> np.ndarray:
    """The (rows, columns) array of the named subarray fields, in order."""
    if len(fields) == 1:
        return a[fields[0]]
    return np.concatenate([a[f] for f in fields], axis=1)


def open_stream(path: str, schema: DatasetSchema) -> SampleStream:
    return SampleStream(path, schema)
