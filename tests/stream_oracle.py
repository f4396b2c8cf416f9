"""The earlier row-at-a-time CSV reader, kept as the oracle for `SampleStream`.

`streamtree.schema.SampleStream` parses fixed line chunks with
`np.loadtxt` and validates them as array ops. This is the reader it
replaced: `csv.reader`, then `float()`/`int()` and `normalize()` per
field. The differential tests require both to yield equal samples (value
types included), equal counters after every row, and the same
`StreamFormatError` message at the same row.
"""

import csv

from streamtree.schema import NUMERIC, Sample, StreamFormatError, normalize


class OracleStream:
    def __init__(self, path, schema):
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

    def __iter__(self):
        return self

    def __next__(self):
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
