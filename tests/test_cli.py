"""End-to-end command tests driven through cli.run with argv lists."""

import json

import pytest

from streamtree import cli, restore
from streamtree.schema import CHUNK_LINES, load_schema


@pytest.fixture()
def stream(tmp_path):
    """A small synthetic stream on disk plus its schema path."""
    data = tmp_path / "s.csv"
    schema = tmp_path / "s.schema.json"
    rc = cli.run(["synth", "--preset", "threshold", "--rows", "3000",
                  "--seed", "7", "--out", str(data),
                  "--schema-out", str(schema)])
    assert rc == 0
    return str(data), str(schema)


def test_synth_writes_rows_and_schema(tmp_path):
    data = tmp_path / "x.csv"
    schema = tmp_path / "x.schema.json"
    rc = cli.run(["synth", "--preset", "xor", "--rows", "500", "--seed", "1",
                  "--out", str(data), "--schema-out", str(schema)])
    assert rc == 0
    assert len(data.read_text().splitlines()) == 500
    loaded = load_schema(str(schema))
    assert loaded.class_count == 2


def test_eval_reports_metrics(stream, capsys):
    data, schema = stream
    rc = cli.run(["eval", "--data", data, "--schema", schema])
    out = capsys.readouterr().out
    assert rc == 0
    assert "accuracy" in out
    assert "samples" in out


def test_eval_json_output(stream, capsys):
    data, schema = stream
    rc = cli.run(["eval", "--data", data, "--schema", schema, "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "eval"
    assert doc["metrics"]["samples_seen"] == 3000
    assert 0.0 <= doc["metrics"]["accuracy"] <= 1.0


def test_eval_out_file(stream, tmp_path, capsys):
    data, schema = stream
    report = tmp_path / "report.json"
    rc = cli.run(["eval", "--data", data, "--schema", schema,
                  "--out", str(report)])
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(report.read_text())
    assert doc["metrics"]["samples_seen"] == 3000


def test_eval_deterministic_json(stream, capsys):
    data, schema = stream
    cli.run(["eval", "--data", data, "--schema", schema, "--json"])
    a = json.loads(capsys.readouterr().out)
    cli.run(["eval", "--data", data, "--schema", schema, "--json"])
    b = json.loads(capsys.readouterr().out)
    a["metrics"].pop("wall_time")
    b["metrics"].pop("wall_time")
    assert a == b


def test_eval_snapshot_roundtrips(stream, tmp_path, capsys):
    data, schema = stream
    snap = tmp_path / "tree.snapshot"
    rc = cli.run(["eval", "--data", data, "--schema", schema,
                  "--snapshot", str(snap)])
    capsys.readouterr()
    assert rc == 0
    tree = restore(snap.read_bytes())
    assert tree.train_count == 3000


def test_missing_data_is_status_3(stream, tmp_path, capsys):
    _, schema = stream
    rc = cli.run(["eval", "--data", str(tmp_path / "nope.csv"),
                  "--schema", schema])
    err = capsys.readouterr().err
    assert rc == 3
    assert "not found" in err


def test_missing_schema_is_status_3(stream, tmp_path, capsys):
    data, _ = stream
    rc = cli.run(["eval", "--data", data,
                  "--schema", str(tmp_path / "nope.json")])
    capsys.readouterr()
    assert rc == 3


@pytest.mark.parametrize("edit", [
    lambda doc: {"attributes": []},
    lambda doc: {**doc, "label_column": 7},
    lambda doc: {**doc, "label_column": -2},
    lambda doc: {**doc, "label_column": True},
    lambda doc: {**doc, "label_column": 1.5},
    lambda doc: {**doc, "attributes": [{**doc["attributes"][0], "min": float("-inf")},
                                       *doc["attributes"][1:]]},
    lambda doc: {**doc, "attributes": [{**doc["attributes"][0], "min": None},
                                       *doc["attributes"][1:]]},
    lambda doc: {**doc, "attributes": [{**doc["attributes"][0], "min": "abc"},
                                       *doc["attributes"][1:]]},
    lambda doc: {**doc, "attributes": [{**doc["attributes"][0], "max": True},
                                       *doc["attributes"][1:]]},
    lambda doc: {**doc, "attributes": [*doc["attributes"],
                                       {"kind": "categorical", "cardinality": [2]}]},
    lambda doc: {**doc, "attributes": [{**doc["attributes"][0], "name": 5},
                                       *doc["attributes"][1:]]},
    lambda doc: {**doc, "classes": "x"},
    lambda doc: {**doc, "classes": 2.7},
    lambda doc: {**doc, "classes": 2.0},
    lambda doc: {**doc, "has_header": "false"},
], ids=["no-attributes", "label-past-row", "label-minus-2", "label-bool", "label-float",
        "infinite-min", "null-min", "string-min", "bool-max", "list-cardinality",
        "int-name", "string-classes", "float-classes", "integral-float-classes",
        "string-has-header"])
def test_bad_schema_is_status_4(stream, tmp_path, capsys, edit):
    data, schema = stream
    with open(schema) as fh:
        doc = json.load(fh)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(doc)))
    rc = cli.run(["eval", "--data", data, "--schema", str(bad)])
    capsys.readouterr()
    assert rc == 4


def test_malformed_row_is_status_4(stream, tmp_path, capsys):
    _, schema = stream
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,0.5,oops\n")
    rc = cli.run(["eval", "--data", str(bad), "--schema", schema])
    err = capsys.readouterr().err
    assert rc == 4
    assert "row 1" in err


def test_nan_field_is_status_4(stream, tmp_path, capsys):
    _, schema = stream
    bad = tmp_path / "nan.csv"
    bad.write_text("0.5,0.5,0\n0.5,NaN,1\n")
    rc = cli.run(["eval", "--data", str(bad), "--schema", schema])
    err = capsys.readouterr().err
    assert rc == 4
    assert "row 2" in err and "NaN" in err


def test_blank_chunk_is_status_4(stream, tmp_path, capsys):
    # a whole chunk of blank lines: loadtxt warns before the row path
    # rejects it, and the warning must not leak (pytest turns it into an error)
    _, schema = stream
    bad = tmp_path / "blank.csv"
    bad.write_text("0.5,0.5,0\n" * CHUNK_LINES + "\n" * CHUNK_LINES + "0.5,0.5,1\n")
    rc = cli.run(["eval", "--data", str(bad), "--schema", schema])
    err = capsys.readouterr().err
    assert rc == 4
    assert f"row {CHUNK_LINES + 1}" in err


def test_usage_error_is_status_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["eval"])  # --data/--schema are required
    capsys.readouterr()
    assert exc.value.code == 2


def test_sweep_runs_each_count(stream, capsys):
    data, schema = stream
    rc = cli.run(["sweep", "--data", data, "--schema", schema,
                  "--quantiles", "2,8", "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["quantiles"] for r in doc["rows"]] == [2, 8]
    for r in doc["rows"]:
        assert r["metrics"]["samples_seen"] == 3000


def test_sweep_rejects_bad_list(stream, capsys):
    data, schema = stream
    rc = cli.run(["sweep", "--data", data, "--schema", schema,
                  "--quantiles", "2,eight"])
    capsys.readouterr()
    assert rc == 1


def test_compare_reports_both_methods(stream, capsys):
    data, schema = stream
    rc = cli.run(["compare", "--data", data, "--schema", schema, "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    gap = doc["quantile"]["accuracy"] - doc["gaussian"]["accuracy"]
    assert doc["accuracy_gap"] == pytest.approx(gap)


def test_cdf_export_writes_series(stream, tmp_path, capsys):
    data, schema = stream
    series = tmp_path / "cdf.csv"
    rc = cli.run(["cdf-export", "--data", data, "--schema", schema,
                  "--attr", "0", "--limit", "1000", "--out", str(series),
                  "--json"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["samples"] == 1000
    assert set(doc["sup_errors"]) == {"quantile", "quantile_step", "gaussian"}
    lines = series.read_text().splitlines()
    assert lines[0] == "x,exact,quantile,quantile_step,gaussian"
    assert len(lines) == 1001


def test_cdf_export_attr_out_of_range(stream, capsys):
    data, schema = stream
    rc = cli.run(["cdf-export", "--data", data, "--schema", schema,
                  "--attr", "99"])
    capsys.readouterr()
    assert rc == 1


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_cdf_export_limit_below_one(stream, capsys, limit):
    data, schema = stream
    rc = cli.run(["cdf-export", "--data", data, "--schema", schema,
                  "--attr", "0", "--limit", limit])
    assert rc == 1
    assert "sample limit must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--lambda", "0"], ["--lambda", "-0.01"],
                                   ["--quantiles", "1"], ["--lambda", "nan"],
                                   ["--lambda", "inf"], ["--tau", "nan"], ["--tau", "inf"]])
def test_cdf_export_bad_tracker_config(stream, capsys, flags):
    # the same error eval gives for the same flags; cdf-export has no --tau
    data, schema = stream
    for command in (["cdf-export", "--attr", "0"], ["eval"]):
        argv = [*command, "--data", data, "--schema", schema, *flags]
        if command[0] == "cdf-export" and flags[0] == "--tau":
            with pytest.raises(SystemExit) as exc:
                cli.run(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
            continue
        assert cli.run(argv) == 1
        assert "bad configuration" in capsys.readouterr().err


CDF_EXPORT = ("cdf-export", "--attr", "0")


@pytest.mark.parametrize("command, flag", [
    *((CDF_EXPORT, flag) for flag in (
        "--method gaussian", "--nmin 7", "--split-points 3", "--tau 0.1", "--delta 0.1",
        "--max-leaves 8", "--max-depth 3", "--numeric-backend fixed")),
    (("compare",), "--method gaussian"),
    (("compare",), "--numeric-backend fixed"),
    (("sweep",), "--method gaussian"),
], ids=lambda v: v[0] if isinstance(v, tuple) else v.split()[0])
def test_flag_the_command_does_not_read_is_refused(stream, capsys, command, flag):
    # a command takes only the settings it uses, so none is silently ignored
    data, schema = stream
    with pytest.raises(SystemExit) as exc:
        cli.run([*command, "--data", data, "--schema", schema, *flag.split()])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_encode_builds_coded_csv_and_schema(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "temp,sky,play\n"
        "21.5,sunny,yes\n"
        "18.0,rain,no\n"
        "25.2,sunny,yes\n"
        "15.5,cloudy,no\n"
    )
    coded = tmp_path / "coded.csv"
    schema_path = tmp_path / "coded.schema.json"
    mapping = tmp_path / "map.json"
    rc = cli.run(["encode", "--data", str(raw), "--out", str(coded),
                  "--schema-out", str(schema_path),
                  "--mapping-out", str(mapping), "--has-header"])
    capsys.readouterr()
    assert rc == 0

    schema = load_schema(str(schema_path))
    assert schema.attr_count == 2
    assert schema.attributes[0].kind == "numeric"
    assert schema.attributes[0].declared_min == 15.5
    assert schema.attributes[0].declared_max == 25.2
    assert schema.attributes[1].kind == "categorical"
    assert schema.attributes[1].cardinality == 3

    maps = json.loads(mapping.read_text())
    assert maps["labels"] == {"no": 0, "yes": 1}
    assert maps["columns"]["1"] == {"cloudy": 0, "rain": 1, "sunny": 2}

    rows = coded.read_text().splitlines()
    assert rows[0] == "21.5,2,1"
    assert rows[3] == "15.5,0,0"


def test_encode_detects_late_string_values(tmp_path, capsys):
    # column 0 looks numeric until row 3; the value seen before the flip
    # must still land in the code map
    raw = tmp_path / "raw.csv"
    raw.write_text("1,yes\n2,no\nlow,yes\n2,no\n1,yes\n2,no\n")
    coded = tmp_path / "coded.csv"
    schema_path = tmp_path / "s.json"
    rc = cli.run(["encode", "--data", str(raw), "--out", str(coded),
                  "--schema-out", str(schema_path)])
    capsys.readouterr()
    assert rc == 0
    schema = load_schema(str(schema_path))
    assert schema.attributes[0].kind == "categorical"
    assert schema.attributes[0].cardinality == 3  # "1", "2", "low"


def test_encode_forced_categorical_and_drop(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text("0,1.5,3,a\n1,2.5,4,b\n2,3.5,3,a\n")
    coded = tmp_path / "coded.csv"
    schema_path = tmp_path / "s.json"
    rc = cli.run(["encode", "--data", str(raw), "--out", str(coded),
                  "--schema-out", str(schema_path),
                  "--categorical", "2", "--drop", "0"])
    capsys.readouterr()
    assert rc == 0
    schema = load_schema(str(schema_path))
    assert schema.attr_count == 2
    assert schema.attributes[0].kind == "numeric"
    assert schema.attributes[1].kind == "categorical"
    assert schema.attributes[1].cardinality == 2  # codes for "3", "4"


def test_encoded_output_trains(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    lines = []
    for k in range(1500):
        x = (k % 100) / 100.0
        lines.append(f"{x},{'hot' if x > 0.5 else 'cold'}")
    raw.write_text("\n".join(lines) + "\n")
    coded = tmp_path / "coded.csv"
    schema_path = tmp_path / "s.json"
    assert cli.run(["encode", "--data", str(raw), "--out", str(coded),
                    "--schema-out", str(schema_path)]) == 0
    rc = cli.run(["eval", "--data", str(coded), "--schema", str(schema_path),
                  "--nmin", "50", "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out.splitlines()[-1])
    assert doc["metrics"]["accuracy"] > 0.8


def run_encode(tmp_path, text, *flags):
    """encode text to tmp_path/coded.csv and s.json; its exit status."""
    raw = tmp_path / "raw.csv"
    raw.write_text(text)
    return cli.run(["encode", "--data", str(raw), "--out", str(tmp_path / "coded.csv"),
                    "--schema-out", str(tmp_path / "s.json"), *flags])


@pytest.mark.parametrize("field", ["nan", "NaN", "inf", "-inf", "1e400"])
def test_encode_refuses_a_non_finite_number(tmp_path, capsys, field):
    rc = run_encode(tmp_path, f"1.0,0.5,yes\n2.0,0.7,no\n3.0,{field},yes\n")
    err = capsys.readouterr().err
    assert rc == 4
    assert f"row 3, column 1: '{field}' is not a finite number" in err
    assert not (tmp_path / "s.json").exists()


def test_encode_nan_in_a_column_that_turns_categorical(tmp_path, capsys):
    # "nan" is one more category once a later value is a string
    rc = run_encode(tmp_path, "nan,yes\nlow,no\n2,yes\n")
    capsys.readouterr()
    assert rc == 0
    assert load_schema(str(tmp_path / "s.json")).attributes[0].cardinality == 3


@pytest.mark.parametrize("header", ["a", "a,b,c,d", ""])
def test_encode_header_length_differs_from_rows(tmp_path, capsys, header):
    rc = run_encode(tmp_path, f"{header}\n1,2,x\n3,4,y\n", "--has-header")
    err = capsys.readouterr().err
    assert rc == 4
    assert "row 2 has 3" in err


def test_encode_numbers_rows_as_records(tmp_path, capsys):
    # a quoted line break stays inside its record, so the short row is row 3
    rc = run_encode(tmp_path, 'h,note,y\n1,"two\nlines",yes\n2,no\n', "--has-header")
    err = capsys.readouterr().err
    assert rc == 4
    assert "row 3: expected 3 fields, got 2" in err


@pytest.mark.parametrize("text, flags, match", [
    ("-1e308,a\n1e308,b\n", [], "must be finite"),
    ("1,a\n2,b\n", ["--drop", "0"], "at least one attribute"),
], ids=["span-overflows", "no-attributes"])
def test_encode_refuses_what_its_schema_cannot_hold(tmp_path, capsys, text, flags, match):
    rc = run_encode(tmp_path, text, *flags)
    err = capsys.readouterr().err
    assert rc == 4
    assert match in err


@pytest.mark.parametrize("flag", ["--out", "--schema-out", "--mapping-out"])
def test_encode_refuses_to_write_over_its_input(tmp_path, capsys, flag):
    raw = tmp_path / "raw.csv"
    raw.write_bytes(b"1.0,yes\n2.0,no\n")
    link = tmp_path / "link.csv"  # the input under another name
    link.symlink_to(raw)
    paths = {"--out": tmp_path / "coded.csv", "--schema-out": tmp_path / "s.json",
             "--mapping-out": tmp_path / "map.json", flag: link}
    rc = cli.run(["encode", "--data", str(raw),
                  *(arg for f, path in paths.items() for arg in (f, str(path)))])
    assert rc == 1
    assert f"output {link} is the input file {raw}" in capsys.readouterr().err
    assert raw.read_bytes() == b"1.0,yes\n2.0,no\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "raw.csv"]


@pytest.mark.parametrize("label", ["foo", "1.5", ""])
def test_encode_bad_label_column_is_usage_error(tmp_path, capsys, label):
    with pytest.raises(SystemExit) as exc:
        run_encode(tmp_path, "1,a\n2,b\n", "--label-column", label)
    assert exc.value.code == 2
    assert "--label-column" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["eval"], ["sweep"], ["compare"],
                                     ["cdf-export", "--attr", "0"]])
def test_malformed_row_is_status_4_for_every_command(stream, tmp_path, capsys, command):
    _, schema = stream
    bad = tmp_path / "bad.csv"
    bad.write_text("0.5,0.5,0\n0.5,oops,1\n")
    rc = cli.run([*command, "--data", str(bad), "--schema", schema])
    err = capsys.readouterr().err
    assert rc == 4
    assert err.startswith(f"error: {bad}: row 2")


def test_unknown_preset_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["synth", "--preset", "nope", "--out", str(tmp_path / "x")])
    capsys.readouterr()
    assert exc.value.code == 2
