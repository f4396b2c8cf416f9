"""Golden `cdf-export` hashes: the exact series CSV and JSON report.

`cdf-export` fits the tracker bank and the Gaussian baseline on one
attribute and tabulates them against the exact empirical CDF. These
hashes pin its bytes on a seeded `synth bimodal` file, so a change to
how the export runs its estimators (the kernels, the CDF reconstruction
or the step series) that moves any printed digit fails here. Paths are
relative to a temporary working directory, so the JSON line is the same
on every machine.

A change that is meant to move the export must say why and re-record
these hashes with the same stream.
"""

import hashlib

import pytest

from streamtree import cli

ROWS = 5000
SEED = 1

GOLDEN = {
    "attr0": (
        ["--attr", "0"],
        "7d4721720510ae7a37b7fe429c22d202bea2b3f752d3fd9f19eb0efd3b474b67",
        "4bb73de1989578d419155df5f713515295b7d890f059afe38dedd032a7312858",
    ),
    "attr1": (
        ["--attr", "1"],
        "433120f23f6ca1c139b5065eb40f6e752e91ff95b6bdeb4ae65c4c7596e91368",
        "5093c886ed9d78ab1e475850acb59b9edf9c65a955acf31dfafe09bfe17b5de9",
    ),
    # a wide tracker bank with a small step
    "attr1-q64": (
        ["--attr", "1", "--quantiles", "64", "--lambda", "0.003"],
        "7b352581e6958ede4d48ce17679724374ce8dcb28527d2e3154aeee6f82e09c1",
        "0655a7fc932aa0a386bcb861a02dddda39e88ad087a6cdf156e498c525cae813",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cdf_export_bytes_match_golden_hash(name, tmp_path, monkeypatch, capsys):
    flags, want_csv, want_json = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    assert cli.run(["synth", "--preset", "bimodal", "--rows", str(ROWS),
                    "--seed", str(SEED), "--out", "s.csv",
                    "--schema-out", "s.schema.json"]) == 0
    capsys.readouterr()
    assert cli.run(["cdf-export", "--data", "s.csv", "--schema", "s.schema.json",
                    "--out", "cdf.csv", "--json", *flags]) == 0
    line = capsys.readouterr().out
    assert hashlib.sha256((tmp_path / "cdf.csv").read_bytes()).hexdigest() == want_csv
    assert hashlib.sha256(line.encode("utf-8")).hexdigest() == want_json
