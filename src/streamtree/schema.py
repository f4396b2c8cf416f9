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
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union


class SchemaError(ValueError):
    """Schema text is malformed or violates a structural constraint."""


class StreamFormatError(ValueError):
    """A CSV row does not match the schema; message carries the row number."""


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
        if isinstance(self.label_column, str) and self.label_column != "last":
            raise SchemaError('label_column must be an integer or "last"')

    @property
    def attr_count(self) -> int:
        return len(self.attributes)

    def label_index(self) -> int:
        """Resolve the label column for a row of attr_count+1 fields."""
        if self.label_column == "last":
            return self.attr_count
        return int(self.label_column)


class Sample(NamedTuple):
    values: list  # normalized floats for numeric, int codes for categorical
    label: int


def parse_schema(text: str) -> DatasetSchema:
    """Build a DatasetSchema from its JSON description."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
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
        name = a.get("name", f"attr{idx}")
        if kind == NUMERIC:
            if "min" not in a or "max" not in a:
                raise SchemaError(f"attribute {name!r}: numeric needs min and max")
            attrs.append(AttributeSpec(name, NUMERIC,
                                       declared_min=float(a["min"]),
                                       declared_max=float(a["max"])))
        else:
            attrs.append(AttributeSpec(name, kind,
                                       cardinality=int(a.get("cardinality", 0))))
    return DatasetSchema(
        attributes=tuple(attrs),
        class_count=int(classes),
        label_column=doc.get("label_column", "last"),
        has_header=bool(doc.get("has_header", False)),
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

    Reads one row at a time (constant memory in file size). Exposes
    ``clamp_count`` (numeric values outside their declared range) and
    ``rows_read`` for reporting.
    """

    def __init__(self, path: str, schema: DatasetSchema):
        self.schema = schema
        self.clamp_count = 0
        self.rows_read = 0
        self._fh = open(path, "r", encoding="utf-8", newline="")
        self._reader = csv.reader(self._fh)
        self._row_no = 0
        if schema.has_header:
            try:
                next(self._reader)
                self._row_no = 1
            except StopIteration:
                pass
        self._label_at = schema.label_index()
        self._expected = schema.attr_count + 1

    def __iter__(self) -> Iterator[Sample]:
        return self

    def __next__(self) -> Sample:
        try:
            row = next(self._reader)
        except StopIteration:
            self._fh.close()
            raise
        self._row_no += 1
        if len(row) != self._expected:
            self._fh.close()
            raise StreamFormatError(
                f"row {self._row_no}: expected {self._expected} fields, got {len(row)}"
            )
        label_at = self._label_at
        try:
            label = int(row[label_at])
        except ValueError:
            self._fh.close()
            raise StreamFormatError(
                f"row {self._row_no}: label {row[label_at]!r} is not an integer"
            ) from None
        if not 0 <= label < self.schema.class_count:
            self._fh.close()
            raise StreamFormatError(
                f"row {self._row_no}: label {label} outside 0..{self.schema.class_count - 1}"
            )
        values = []
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
                    self._fh.close()
                    raise StreamFormatError(
                        f"row {self._row_no}: attribute {spec.name!r} value "
                        f"{field!r} is not numeric"
                    ) from None
                v = normalize(raw, spec)
                if not (spec.declared_min <= raw <= spec.declared_max):
                    if raw != raw:
                        self._fh.close()
                        raise StreamFormatError(
                            f"row {self._row_no}: attribute {spec.name!r} value "
                            f"{field!r} is NaN"
                        )
                    self.clamp_count += 1
                values.append(v)
            else:
                try:
                    code = int(field)
                except ValueError:
                    self._fh.close()
                    raise StreamFormatError(
                        f"row {self._row_no}: attribute {spec.name!r} code "
                        f"{field!r} is not an integer"
                    ) from None
                if not 0 <= code < spec.cardinality:
                    self._fh.close()
                    raise StreamFormatError(
                        f"row {self._row_no}: attribute {spec.name!r} code {code} "
                        f"outside 0..{spec.cardinality - 1}"
                    )
                values.append(code)
        self.rows_read += 1
        return Sample(values, label)

    def close(self) -> None:
        self._fh.close()


def open_stream(path: str, schema: DatasetSchema) -> SampleStream:
    return SampleStream(path, schema)
