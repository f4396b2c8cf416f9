"""Command-line front end: evaluation runs, sweeps, exports, encoding.

Subcommands:
  eval        interleaved test-then-train on a coded CSV, metrics report
  sweep       one independent run per quantile count, tabulated
  compare     quantile method vs Gaussian baseline on the same stream
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
import json
import os
import sys
from typing import Optional, Sequence

from . import synth
from .harness import (
    Metrics,
    compare_methods,
    export_cdf_comparison,
    run_once,
    sweep_quantiles,
)
from .schema import (
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


def add_config_flags(p: argparse.ArgumentParser, quantile_list: bool = False) -> None:
    p.add_argument("--method", choices=["quantile", "gaussian"], default="quantile")
    if quantile_list:
        p.add_argument("--quantiles", type=str, default="8", metavar="Q,Q,...",
                       help="comma-separated quantile counts, e.g. 2,8,512")
    else:
        p.add_argument("--quantiles", type=int, default=8, metavar="Q")
    p.add_argument("--lambda", dest="lam", type=float, default=0.01, metavar="L")
    p.add_argument("--nmin", type=int, default=200)
    p.add_argument("--split-points", type=int, default=10)
    p.add_argument("--tau", type=float, default=0.05)
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--max-leaves", type=int, default=1024)
    p.add_argument("--max-depth", type=int, default=15)
    p.add_argument("--numeric-backend", choices=["float", "fixed"], default="float")


def config_from_args(args: argparse.Namespace, **overrides) -> TreeConfig:
    fields = dict(
        delta=args.delta,
        tau=args.tau,
        n_min=args.nmin,
        split_points=args.split_points,
        quantile_count=args.quantiles,
        lam=args.lam,
        max_leaves=args.max_leaves,
        max_depth=args.max_depth,
        method=args.method,
        numeric_backend=args.numeric_backend,
    )
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


def emit(doc: dict, text: str, args: argparse.Namespace) -> None:
    if getattr(args, "json", False):
        print(json.dumps(doc, sort_keys=True))
    else:
        print(text)
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True, indent=2)
            fh.write("\n")


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
    try:
        tree, m = run_once(data, schema, config)
    except StreamFormatError as e:
        raise CommandError(f"{args.data}: {e}", EXIT_FORMAT) from None
    doc = {"command": "eval", "data": args.data, "method": config.method,
           "quantiles": config.quantile_count,
           "backend": config.numeric_backend,
           "metrics": m.to_dict()}
    if args.snapshot:
        with open(args.snapshot, "wb") as fh:
            fh.write(tree.snapshot())
    emit(doc, metrics_text(m, f"eval {args.data} [{config.method}]"), args)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    data, schema = load_inputs(args)
    try:
        q_list = [int(tok) for tok in args.quantiles.split(",") if tok]
    except ValueError:
        raise CommandError(f"bad quantile list: {args.quantiles!r}") from None
    if not q_list:
        raise CommandError("quantile list is empty")
    config = config_from_args(args, quantile_count=q_list[0])
    try:
        rows = sweep_quantiles(data, schema, q_list, config)
    except StreamFormatError as e:
        raise CommandError(f"{args.data}: {e}", EXIT_FORMAT) from None
    doc = {"command": "sweep", "data": args.data,
           "rows": [{"quantiles": q, "metrics": m.to_dict()} for q, m in rows]}
    lines = [f"sweep {args.data}", "  |Q|  accuracy  leaves  depth"]
    for q, m in rows:
        lines.append(f"  {q:>3}  {m.accuracy:>8.4f}  {m.leaf_count:>6}  {m.depth:>5}")
    emit(doc, "\n".join(lines), args)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    data, schema = load_inputs(args)
    config = config_from_args(args)
    try:
        out = compare_methods(data, schema, config)
    except StreamFormatError as e:
        raise CommandError(f"{args.data}: {e}", EXIT_FORMAT) from None
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
    emit(doc, text, args)
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
    except StreamFormatError as e:
        raise CommandError(f"{args.data}: {e}", EXIT_FORMAT) from None
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
    if getattr(args, "json", False):
        print(json.dumps(doc, sort_keys=True))
    else:
        print(text)
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


def cmd_encode(args: argparse.Namespace) -> int:
    if not os.path.exists(args.data):
        raise CommandError(f"data file not found: {args.data}", EXIT_MISSING_FILE)
    forced_cat = _parse_column_set(args.categorical)
    dropped = _parse_column_set(args.drop)

    # pass 1: column typing, value maps, ranges
    with open(args.data, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=args.delimiter)
        header = None
        if args.has_header:
            header = next(reader, None)
            if header is None:
                raise CommandError("file is empty", EXIT_FORMAT)
        first = next(reader, None)
        if first is None:
            raise CommandError("no data rows", EXIT_FORMAT)
        ncols = len(first)
        label_at = ncols - 1 if args.label_column == "last" else int(args.label_column)
        if not 0 <= label_at < ncols:
            raise CommandError(f"label column {label_at} outside 0..{ncols - 1}")
        if label_at in dropped:
            raise CommandError("cannot drop the label column")
        is_numeric = [True] * ncols
        mins = [float("inf")] * ncols
        maxs = [float("-inf")] * ncols
        cat_values: list[set] = [set() for _ in range(ncols)]
        labels: set = set()

        def eat(row, row_no):
            if len(row) != ncols:
                raise CommandError(
                    f"row {row_no}: expected {ncols} fields, got {len(row)}",
                    EXIT_FORMAT,
                )
            for c, field in enumerate(row):
                if c in dropped:
                    continue
                if c == label_at:
                    labels.add(field)
                    continue
                if c in forced_cat:
                    is_numeric[c] = False
                if is_numeric[c]:
                    try:
                        v = float(field)
                        if v < mins[c]:
                            mins[c] = v
                        if v > maxs[c]:
                            maxs[c] = v
                    except ValueError:
                        is_numeric[c] = False
                if not is_numeric[c]:
                    cat_values[c].add(field)

        row_no = 1 if args.has_header else 0
        row_no += 1
        eat(first, row_no)
        for row in reader:
            row_no += 1
            eat(row, row_no)

    # a column that flipped to categorical mid-pass needs its early numeric
    # values too; simplest correct fix is a re-scan for those columns
    flipped = [c for c in range(ncols)
               if not is_numeric[c] and c not in dropped and c != label_at]
    if flipped:
        with open(args.data, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh, delimiter=args.delimiter)
            if args.has_header:
                next(reader, None)
            for row in reader:
                for c in flipped:
                    cat_values[c].add(row[c])

    label_map = {v: k for k, v in enumerate(sorted(labels))}
    if len(label_map) < 2:
        raise CommandError("need at least 2 distinct labels", EXIT_FORMAT)
    cat_maps = {}
    attrs = []
    names = header if header else [f"col{c}" for c in range(ncols)]
    for c in range(ncols):
        if c in dropped or c == label_at:
            continue
        name = names[c]
        if is_numeric[c]:
            lo, hi = mins[c], maxs[c]
            if not lo < hi:
                lo, hi = lo - 0.5, hi + 0.5  # constant column still needs a range
            attrs.append({"name": name, "kind": "numeric", "min": lo, "max": hi})
        else:
            values = sorted(cat_values[c])
            if len(values) < 2:
                values = values + ["__other__"]
            cat_maps[c] = {v: k for k, v in enumerate(values)}
            attrs.append({"name": name, "kind": "categorical",
                          "cardinality": len(values)})

    # pass 2: write coded rows, attributes in order, label last
    with open(args.data, "r", encoding="utf-8", newline="") as fh, \
         open(args.out, "w", encoding="utf-8", newline="") as out_fh:
        reader = csv.reader(fh, delimiter=args.delimiter)
        writer = csv.writer(out_fh)
        if args.has_header:
            next(reader, None)
        for row in reader:
            coded = []
            for c in range(ncols):
                if c in dropped or c == label_at:
                    continue
                coded.append(str(cat_maps[c][row[c]]) if c in cat_maps else row[c])
            coded.append(str(label_map[row[label_at]]))
            writer.writerow(coded)

    schema_doc = {"attributes": attrs, "classes": len(label_map),
                  "label_column": "last", "has_header": False}
    with open(args.schema_out, "w", encoding="utf-8") as fh:
        json.dump(schema_doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.mapping_out:
        mapping = {"labels": label_map,
                   "columns": {str(c): m for c, m in cat_maps.items()}}
        with open(args.mapping_out, "w", encoding="utf-8") as fh:
            json.dump(mapping, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"encoded {args.data} -> {args.out} "
          f"({len(attrs)} attributes, {len(label_map)} classes)")
    print(f"schema written to {args.schema_out}")
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    try:
        schema = synth.write_csv(args.out, args.preset, args.rows, seed=args.seed)
    except KeyError as e:
        raise CommandError(str(e.args[0])) from None
    if args.schema_out:
        with open(args.schema_out, "w", encoding="utf-8") as fh:
            fh.write(schema_to_json(schema))
            fh.write("\n")
    print(f"wrote {args.rows} rows of {args.preset!r} to {args.out}")
    if args.schema_out:
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
    add_config_flags(p)
    p.add_argument("--out", help="write JSON metrics to this path")
    p.add_argument("--json", action="store_true", help="JSON to stdout")
    p.add_argument("--snapshot", help="write the trained tree to this path")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("sweep", help="one run per quantile count")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    add_config_flags(p, quantile_list=True)
    p.add_argument("--out", help="write JSON table to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("compare", help="quantile vs gaussian on one stream")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    add_config_flags(p)
    p.add_argument("--out", help="write JSON report to this path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("cdf-export", help="CDF estimate series for one attribute")
    p.add_argument("--data", required=True)
    p.add_argument("--schema", required=True)
    p.add_argument("--attr", type=int, required=True)
    p.add_argument("--limit", type=int, default=20_000)
    add_config_flags(p)
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
    p.add_argument("--label-column", default="last")
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
    except CommandError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.status
    except BrokenPipeError:
        return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
