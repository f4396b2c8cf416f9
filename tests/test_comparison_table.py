"""The paper's comparison, pinned: quantile against Gaussian on every preset.

`comparison_table.json` holds, for every `synth` preset at fixed rows
and seed, the accuracy, leaf count and split count of the quantile
learner on the float and the fixed backend and of the Gaussian
baseline. The test recomputes the table, one `run_many` pass per
preset, and compares it with `==`. It reads as the accuracy table of
the paper's headline claim, and it is also a synthetic twin of
`test_c10_fixed_backend_accuracy_parity`, which skips without data/.

A change that is meant to move the learner's decisions must say why and
re-record the table with

    PYTHONPATH=src python tests/test_comparison_table.py
"""

import json
from pathlib import Path

import pytest

from streamtree import synth
from streamtree.harness import run_many
from streamtree.tree import TreeConfig

FIXTURE = Path(__file__).resolve().parent / "comparison_table.json"
ROWS = 10_000
SEED = 1
CONFIGS = {
    "quantile-float": TreeConfig(),
    "quantile-fixed": TreeConfig(numeric_backend="fixed"),
    "gaussian": TreeConfig(method="gaussian"),
}


def table_row(preset: str) -> dict:
    pairs = run_many(lambda: synth.generate(preset, ROWS, seed=SEED),
                     synth.preset_schema(preset), list(CONFIGS.values()))
    return {name: {"accuracy": m.accuracy, "leaves": m.leaf_count, "splits": m.splits_taken}
            for name, (_, m) in zip(CONFIGS, pairs)}


@pytest.mark.parametrize("preset", sorted(synth.PRESETS))
def test_comparison_table_matches_fixture(preset):
    doc = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert (doc["rows"], doc["seed"]) == (ROWS, SEED)
    row = table_row(preset)
    assert row == doc["presets"][preset]
    # c10's parity rule: the Q2.30 path lands within 1 point of float
    assert abs(row["quantile-fixed"]["accuracy"] - row["quantile-float"]["accuracy"]) <= 0.01


if __name__ == "__main__":
    table = {"doc": "Recorded by tests/test_comparison_table.py; its docstring says when "
                    "and how to re-record.",
             "rows": ROWS, "seed": SEED,
             "presets": {p: table_row(p) for p in sorted(synth.PRESETS)}}
    FIXTURE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
