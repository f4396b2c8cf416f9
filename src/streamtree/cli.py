"""Command-line front end: evaluation runs, sweeps, exports, encoding.

Subcommands:
  eval        interleaved test-then-train on a coded CSV, metrics report
  sweep       one tree per quantile count, all fed from one pass, tabulated
  compare     quantile method vs Gaussian baseline, both fed from one pass
  cdf-export  exact/quantile/Gaussian CDF series for one attribute
  encode      turn a string-valued CSV into codes + a generated schema
  synth       materialize a synthetic benchmark stream with known truth

Defaults reproduce the reference configuration (delta 1e-3, tau 0.05,
n_min 200, 10 split points, lambda 0.01, 8 quantiles, 1024 leaves,
depth 15), so `eval --data X --schema Y` needs nothing else.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys
from typing import Iterable, Iterator, Optional, Sequence

from . import synth
from .harness import (
    Metrics,
    compare_methods,
    export_cdf_comparison,
    run_once,
    sweep_quantiles,
)
from .schema import (
    CATEGORICAL,
    NUMERIC,
    AttributeSpec,
    DatasetSchema,
    SchemaError,
    StreamFormatError,
    load_schema,
    schema_to_json,
)
from .tree import TreeConfig

EXIT_GENERIC = 1
EXIT_MISSING_FILE = 3
EXIT_FORMAT = 4


class CommandError(Exception):
    def __init__(self, message: str, status: int = EXIT_GENERIC):
        super().__init__(message)
        self.status = status


# TreeConfig field -> the flag that sets it; each flag defaults to the field's default
CONFIG_FLAGS = {
    "method": ("--method", dict(choices=["quantile", "gaussian"])),
    "quantile_count": ("--quantiles", dict(type=int, metavar="Q")),
    "lam": ("--lambda", dict(type=float, metavar="L")),
    "n_min": ("--nmin", dict(type=int)),
    "split_points": ("--split-points", dict(type=int)),
    "tau": ("--tau", dict(type=float)),
    "delta": ("--delta", dict(type=float)),
    "max_leaves": ("--max-leaves", dict(type=int)),
    "max_depth": ("--max-depth", dict(type=int)),
    "numeric_backend": ("--numeric-backend", dict(choices=["float", "fixed"])),
}


def add_config_flags(p: argparse.ArgumentParser, fields: Iterable[str]) -> None:
    """Give p the flags of the TreeConfig fields its command reads, and no others."""
    for field in fields:
        flag, kwargs = CONFIG_FLAGS[field]
        p.add_argument(flag, dest=field, default=getattr(TreeConfig, field), **kwargs)


def config_from_args(args: argparse.Namespace, **overrides) -> TreeConfig:
    fields = {f: getattr(args, f) for f in CONFIG_FLAGS if hasattr(args, f)}
    fields.update(overrides)
    try:
        return TreeConfig(**fields)
    except ValueError as e:
        raise CommandError(f"bad configuration: {e}", EXIT_GENERIC) from None


def load_inputs(args: argparse.Namespace):
    try:
        schema = load_schema(args.schema)
    except FileNotFoundError:
        raise CommandError(f"schema file not found: {args.schema}", EXIT_MISSING_FILE) from None
    except SchemaError as e:
        raise CommandError(f"bad schema {args.schema}: {e}", EXIT_FORMAT) from None
    if not os.path.exists(args.data):
        raise CommandError(f"data file not found: {args.data}", EXIT_MISSING_FILE)
    return args.data, schema


def emit(doc: dict, text: str, args: argparse.Namespace, out: Optional[str] = None) -> None:
    """Print doc as one JSON line with --json, else text; also write doc to out."""
    print(json.dumps(doc, sort_keys=True) if args.json else text)
    if out:
        write_text(out, json.dumps(doc, sort_keys=True, indent=2))


def write_text(path: str, text: str) -> None:
    """Write text and a final newline to path."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def metrics_text(m: Metrics, title: str) -> str:
    lines = [title]
    rows = [
        ("samples", m.samples_seen),
        ("correct", m.correct),
        ("accuracy", f"{m.accuracy:.4f}"),
        ("splits", m.splits_taken),
        ("frozen leaves", m.frozen_leaves),
        ("leaves", m.leaf_count),
        ("depth", m.depth),
        ("clamped values", m.clamp_count),
        ("saturations", m.saturation_count),
        ("wall time", f"{m.wall_time:.2f}s"),
    ]
    width = max(len(k) for k, _ in rows)
    lines += [f"  {k:<{width}}  {v}" for k, v in rows]
    return "\n".join(lines)


def cmd_eval(args: argparse.Namespace) -> int:
    data, schema = load_inputs(args)
    config = config_from_args(args)
    tree, m = run_once(data, schema, config)
    doc = {"command": "eval", "data": args.data, "method": config.method,
           "quantiles": config.quantile_count,
           "backend": config.numeric_backend,
           "metrics": m.to_dict()}
    if args.snapshot:
        with open(args.snapshot, "wb") as fh:
            fh.write(tree.snapshot())
    emit(doc, metrics_text(m, f"eval {args.data} [{config.method}]"), args, args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    data, schema = load_inputs(args)
    try:
        q_list = [int(tok) for tok in args.quantiles.split(",") if tok]
    except ValueError:
        raise CommandError(f"bad quantile list: {args.quantiles!r}") from None
    if not q_list:
        raise CommandError("quantile list is empty")
    configs = [config_from_args(args, quantile_count=q) for q in q_list]  # every Q, before any run
    rows = sweep_quantiles(data, schema, q_list, configs[0])
    doc = {"command": "sweep", "data": args.data,
           "rows": [{"quantiles": q, "metrics": m.to_dict()} for q, m in rows]}
    lines = [f"sweep {args.data}", "  |Q|  accuracy  leaves  depth"]
    for q, m in rows:
        lines.append(f"  {q:>3}  {m.accuracy:>8.4f}  {m.leaf_count:>6}  {m.depth:>5}")
    emit(doc, "\n".join(lines), args, args.out)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    data, schema = load_inputs(args)
    config = config_from_args(args)
    out = compare_methods(data, schema, config)
    gap = out["quantile"].accuracy - out["gaussian"].accuracy
    doc = {"command": "compare", "data": args.data,
           "quantile": out["quantile"].to_dict(),
           "gaussian": out["gaussian"].to_dict(),
           "accuracy_gap": gap}
    text = "\n\n".join([
        metrics_text(out["quantile"], f"compare {args.data} [quantile]"),
        metrics_text(out["gaussian"], f"compare {args.data} [gaussian]"),
        f"accuracy gap (quantile - gaussian): {gap:+.4f}",
    ])
    emit(doc, text, args, args.out)
    return 0


def cmd_cdf_export(args: argparse.Namespace) -> int:
    data, schema = load_inputs(args)
    if not 0 <= args.attr < schema.attr_count:
        raise CommandError(f"attribute index {args.attr} outside schema")
    if args.limit < 1:
        raise CommandError(f"sample limit must be >= 1, got {args.limit}")
    config = config_from_args(args)
    try:
        comp = export_cdf_comparison(
            data, schema, args.attr, args.limit,
            quantile_count=config.quantile_count, lam=config.lam,
            out_path=args.out,
        )
    except StreamFormatError:
        raise  # a ValueError too; run() names the file
    except ValueError as e:
        raise CommandError(str(e), EXIT_FORMAT) from None
    errs = comp.sup_errors()
    doc = {"command": "cdf-export", "data": args.data, "attr": args.attr,
           "samples": len(comp.xs), "sup_errors": errs, "series": args.out}
    text = (f"cdf-export {args.data} attr {args.attr} ({len(comp.xs)} samples)\n"
            f"  sup|est - exact|: quantile {errs['quantile']:.4f}  "
            f"step {errs['quantile_step']:.4f}  gaussian {errs['gaussian']:.4f}")
    if args.out:
        text += f"\n  series written to {args.out}"
    emit(doc, text, args)  # --out is the series, not the report
    return 0


def _parse_column_set(text: Optional[str]) -> set[int]:
    cols: set[int] = set()
    if not text:
        return cols
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if "-" in tok:
            lo, _, hi = tok.partition("-")
            try:
                cols.update(range(int(lo), int(hi) + 1))
            except ValueError:
                raise CommandError(f"bad column range {tok!r}") from None
        else:
            try:
                cols.add(int(tok))
            except ValueError:
                raise CommandError(f"bad column index {tok!r}") from None
    return cols


def label_column(text: str):
    """The --label-column value: "last" or a column index; argparse names
    this function in the usage error for any other text."""
    return text if text == "last" else int(text)


def _csv_rows(args: argparse.Namespace) -> Iterator:
    """Yield the column names of args.data, its header or col0, col1, ...,
    then (row_no, fields) for each data row. Rows are numbered as CSV
    records, the header being row 1, so a quoted line break counts once.
    The header and every row must have as many fields as the first row."""
    with open(args.data, "r", encoding="utf-8", newline="") as fh:
        records = enumerate(csv.reader(fh, delimiter=args.delimiter), 1)
        header = next(records, (1, None))[1] if args.has_header else None
        row_no, first = next(records, (0, None))
        if first is None:
            raise CommandError("no data rows", EXIT_FORMAT)
        ncols = len(first)
        if args.has_header and len(header) != ncols:
            raise CommandError(f"the header has {len(header)} fields, row {row_no} has "
                               f"{ncols}", EXIT_FORMAT)
        yield header if args.has_header else [f"col{c}" for c in range(ncols)]
        for row_no, row in itertools.chain([(row_no, first)], records):
            if len(row) != ncols:
                raise CommandError(f"row {row_no}: expected {ncols} fields, got {len(row)}",
                                   EXIT_FORMAT)
            yield row_no, row


def cmd_encode(args: argparse.Namespace) -> int:
    if not os.path.exists(args.data):
        raise CommandError(f"data file not found: {args.data}", EXIT_MISSING_FILE)
    for path in (args.out, args.schema_out, args.mapping_out):  # before any is opened
        if path and os.path.exists(path) and os.path.samefile(path, args.data):
            raise CommandError(f"output {path} is the input file {args.data}")
    forced_cat = _parse_column_set(args.categorical)
    dropped = _parse_column_set(args.drop)
    rows = _csv_rows(args)
    names = next(rows)
    ncols = len(names)
    label_at = ncols - 1 if args.label_column == "last" else args.label_column
    if not 0 <= label_at < ncols:
        raise CommandError(f"label column {label_at} outside 0..{ncols - 1}")
    if label_at in dropped:
        raise CommandError("cannot drop the label column")
    cols = [c for c in range(ncols) if c not in dropped and c != label_at]

    # pass 1: labels, and the range of each column while every value is a number
    ranges = {c: (math.inf, -math.inf) for c in cols if c not in forced_cat}
    nonfinite = {}  # column -> its first (row_no, field) that float() reads as NaN or inf
    labels = set()
    for row_no, row in rows:
        labels.add(row[label_at])
        for c, (lo, hi) in list(ranges.items()):
            try:
                v = float(row[c])
            except ValueError:
                del ranges[c]  # a string: the column is categorical
                continue
            if not math.isfinite(v):
                nonfinite.setdefault(c, (row_no, row[c]))
            ranges[c] = (min(lo, v), max(hi, v))
    bad = min(((r, c, f) for c, (r, f) in nonfinite.items() if c in ranges), default=None)
    if bad:
        raise CommandError("row {}, column {}: {!r} is not a finite number".format(*bad),
                           EXIT_FORMAT)
    label_map = {v: k for k, v in enumerate(sorted(labels))}
    if len(label_map) < 2:
        raise CommandError("need at least 2 distinct labels", EXIT_FORMAT)

    # pass 2, if a column is categorical: its values, those read as numbers included
    cat_values = {c: set() for c in cols if c not in ranges}
    if cat_values:
        for _, row in itertools.islice(_csv_rows(args), 1, None):
            for c, values in cat_values.items():
                values.add(row[c])
    cat_maps = {}
    for c, values in cat_values.items():
        values = sorted(values)
        if len(values) < 2:
            values.append("__other__")
        cat_maps[c] = {v: k for k, v in enumerate(values)}
    for c, (lo, hi) in ranges.items():
        if not lo < hi:
            ranges[c] = (lo - 0.5, hi + 0.5)  # a constant column still needs a range
    try:
        schema = DatasetSchema(tuple(
            AttributeSpec(names[c], CATEGORICAL, cardinality=len(cat_maps[c])) if c in cat_maps
            else AttributeSpec(names[c], NUMERIC, *ranges[c]) for c in cols), len(label_map))
    except SchemaError as e:
        raise CommandError(f"cannot encode {args.data}: {e}", EXIT_FORMAT) from None

    # last pass: write coded rows, attributes in order, label last
    with open(args.out, "w", encoding="utf-8", newline="") as out_fh:
        writer = csv.writer(out_fh)
        for _, row in itertools.islice(_csv_rows(args), 1, None):
            writer.writerow([cat_maps[c][row[c]] if c in cat_maps else row[c] for c in cols]
                            + [label_map[row[label_at]]])
    write_text(args.schema_out, schema_to_json(schema))
    if args.mapping_out:
        mapping = {"labels": label_map, "columns": {str(c): m for c, m in cat_maps.items()}}
        write_text(args.mapping_out, json.dumps(mapping, indent=2, sort_keys=True))
    print(f"encoded {args.data} -> {args.out} "
          f"({schema.attr_count} attributes, {schema.class_count} classes)")
    print(f"schema written to {args.schema_out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        schema = synth.write_csv(args.out, args.preset, args.rows, seed=args.seed)
    except KeyError as e:
        raise CommandError(str(e.args[0])) from None
    print(f"wrote {args.rows} rows of {args.preset!r} to {args.out}")
    if args.schema_out:
        write_text(args.schema_out, schema_to_json(schema))
        print(f"schema written to {args.schema_out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamtree",
        description="Streaming decision-tree classifier with quantile-tracked "
                    "numeric attributes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="interleaved test-then-train run")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    add_config_flags(p, CONFIG_FLAGS)
    p.add_argument("--out", help="write JSON metrics to this path")
    p.add_argument("--json", action="store_true", help="JSON to stdout")
    p.add_argument("--snapshot", help="write the trained tree to this path")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("sweep", help="one run per quantile count")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--quantiles", default="8", metavar="Q,Q,...",
                   help="comma-separated quantile counts, e.g. 2,8,512")
    # every run uses the quantile method
    add_config_flags(p, [f for f in CONFIG_FLAGS if f not in ("method", "quantile_count")])
    p.add_argument("--out", help="write JSON table to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("compare", help="quantile vs gaussian on one stream")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    # both methods run, on the float backend
    add_config_flags(p, [f for f in CONFIG_FLAGS if f not in ("method", "numeric_backend")])
    p.add_argument("--out", help="write JSON report to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("cdf-export", help="CDF estimate series for one attribute")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--attr", type=int, required=True)
    p.add_argument("--limit", type=int, default=20_000)
    # the estimators are single trackers; no tree is grown
    add_config_flags(p, ["quantile_count", "lam"])
    p.add_argument("--out", help="write the series CSV to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_cdf_export)

    p = sub.add_parser("encode", help="string CSV -> coded CSV + schema")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--schema-out", required=True)
    p.add_argument("--mapping-out", help="write value->code maps here")
    p.add_argument("--categorical", help="force columns categorical: 2,10-53")
    p.add_argument("--drop", help="drop columns: 0,3")
    p.add_argument("--label-column", type=label_column, default="last")
    p.add_argument("--has-header", action="store_true")
    p.add_argument("--delimiter", default=",")
    p.set_defaults(handler=cmd_encode)

    p = sub.add_parser("synth", help="emit a synthetic benchmark stream")
    p.add_argument("--preset", required=True, choices=sorted(synth.PRESETS))
    p.add_argument("--rows", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--schema-out")
    p.set_defaults(handler=cmd_synth)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except StreamFormatError as e:  # a data row the schema refuses
        print(f"error: {args.data}: {e}", file=sys.stderr)
        return EXIT_FORMAT
    except CommandError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.status
    except BrokenPipeError:
        return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
