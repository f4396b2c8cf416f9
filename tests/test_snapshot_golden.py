"""Golden snapshot hashes: the learner's exact bytes after a fixed stream.

Every other determinism check compares two runs of the same code (c11,
the snapshot round-trips), so a change that moved the learner's output
consistently would pass them. These hashes pin the bytes themselves:
a refactor of the statistics pool, the split trial or the snapshot
encoding that changes what the tree learns or how it is written fails
here. The `categorical` preset has one categorical and one numeric
attribute, so both statistics layouts are covered; the `bimodal` preset
has no categorical attribute, so its hashes pin the snapshot of an empty
categorical layout (`"hists":[]`), which every benchmark stream has.

A change that is meant to move the learner's output must say why and
re-record these hashes with the same stream.
"""

import hashlib

import pytest

from streamtree.synth import generate, preset_schema
from streamtree.tree import TreeConfig, new_tree

PRESET = "categorical"
ROWS = 20_000
SEED = 3

GOLDEN = {
    "quantile-float": (
        {},
        "f37e49ceb1951080649dfaa9588ec2e412305dbfe3cb9d6e796077acc3d2daf9",
    ),
    "quantile-fixed": (
        {"numeric_backend": "fixed"},
        "75e0def04ca5576dd8a52d1c2e599dcd21220942cecdcbfaa8a2371fde92bfef",
    ),
    "gaussian": (
        {"method": "gaussian"},
        "2e4e3020081cb0bc625a6aa162770149333848daaba8c05213fe476b52fcfcab",
    ),
    # caps small enough that later splits freeze their leaves instead
    "quantile-float-capped": (
        {"max_leaves": 6, "max_depth": 3},
        "6b8e10d87d12e281471b330d483dc490d163fedf7fad1ae8d5770f9a22394aa2",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_snapshot_bytes_match_golden_hash(name):
    overrides, want = GOLDEN[name]
    tree = new_tree(preset_schema(PRESET), TreeConfig(**overrides))
    tree.train(generate(PRESET, ROWS, seed=SEED))
    if "max_leaves" in overrides:
        assert tree.freeze_count > 0
    assert hashlib.sha256(tree.snapshot()).hexdigest() == want


# recorded from the same stream before categorical counts became one array
NUMERIC_PRESET = "bimodal"
NUMERIC_GOLDEN = {
    "quantile-float": (
        {},
        "d62bfea06a620ad4541d1f8c4119e85fd96501e9824a4f8f763fcc6927638be8",
    ),
    "quantile-fixed": (
        {"numeric_backend": "fixed"},
        "f7599a97ca0eb2ca0746a3e99abe910a1ee12b2579ce21981d57f1761100bb9e",
    ),
}


@pytest.mark.parametrize("name", sorted(NUMERIC_GOLDEN))
def test_numeric_only_snapshot_bytes_match_golden_hash(name):
    overrides, want = NUMERIC_GOLDEN[name]
    tree = new_tree(preset_schema(NUMERIC_PRESET), TreeConfig(**overrides))
    tree.train(generate(NUMERIC_PRESET, ROWS, seed=SEED))
    assert hashlib.sha256(tree.snapshot()).hexdigest() == want
