"""Hostile input at the library boundary and in snapshots, as properties.

A hand-built row either raises `ValueError` before the tree changes, or
trains a tree that still validates and round-trips through `restore`;
the tree accepts exactly the rows whose numeric values are non-bool
reals in [-1, 1]. A snapshot with one or two values replaced, deleted or
nudged either raises `SnapshotError`, or restores to a tree that
round-trips, trains on and still validates. Both run derandomized, and
tier-1 turns any RuntimeWarning (an overflow) into a failure.
"""

import functools
import json
import math
from numbers import Real

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from streamtree import synth
from streamtree.schema import Sample
from streamtree.tree import SnapshotError, TreeConfig, new_tree, restore

# ---------------------------------------------------------- library rows

ROW_CONFIGS = {
    "quantile-float": TreeConfig(n_min=25),
    "quantile-fixed": TreeConfig(n_min=25, numeric_backend="fixed"),
    # steps long enough to be clipped at the Q2.30 edge
    "quantile-fixed-lam1.5": TreeConfig(n_min=25, numeric_backend="fixed", lam=1.5),
    "gaussian": TreeConfig(n_min=25, method="gaussian"),
}

ODD = [math.nan, math.inf, -math.inf, 1.7e308, -1.7e308, 1e200, -1e200,
       1.0, -1.0, 1.0000000000000002, -1.0000000000000002, 10**400, -10**5000]
value = st.one_of(st.floats(-1.0, 1.0), st.floats(), st.sampled_from(ODD),
                  st.integers(), st.booleans())
rows = st.lists(st.tuples(value, value, st.integers(0, 1)), min_size=1, max_size=30)


@functools.cache
def trained_payload(name: str) -> bytes:
    """A threshold tree after 300 rows, with a split or more."""
    tree = new_tree(synth.preset_schema("threshold"), ROW_CONFIGS[name])
    tree.train(synth.generate("threshold", 300, seed=1))
    assert tree.split_count > 0
    return tree.snapshot()


def in_domain(v) -> bool:
    return type(v) is not bool and isinstance(v, Real) and -1.0 <= v <= 1.0


# the overflows that values outside [-1, 1] used to reach: alternating
# +-1e200 overflowed the gaussian's g_vsum, +-1.7e308 the quantile split
# points (`hi - lo`)
ALTERNATING_1E200 = [(1e200 * (-1) ** k, 0.0, 0) for k in range(10)]
ALTERNATING_1_7E308 = [(1.7e308 * (-1) ** k, 0.5, 1) for k in range(10)]


@pytest.mark.parametrize("name", ROW_CONFIGS)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(rows=rows)
@example(rows=ALTERNATING_1E200)
@example(rows=ALTERNATING_1_7E308)
def test_a_row_is_refused_before_any_change_or_keeps_the_tree_valid(name, rows):
    tree = restore(trained_payload(name))
    for x0, x1, y in rows:
        s = Sample([x0, x1], y)
        if in_domain(x0) and in_domain(x1):
            tree.step(s)
        else:
            before = tree.snapshot()
            with pytest.raises(ValueError, match="is not (in \\[-1, 1\\]|a real number)"):
                tree.step(s)
            assert tree.snapshot() == before
    tree.validate()
    blob = tree.snapshot()
    assert restore(blob).snapshot() == blob


# -------------------------------------------------------- snapshot fuzz

# (preset, config) after 3,000 rows of seed 1
BASES = [
    ("categorical", TreeConfig()),
    ("bimodal", TreeConfig(numeric_backend="fixed")),
    ("xor", TreeConfig(method="gaussian")),
    ("categorical", TreeConfig(max_leaves=6, max_depth=3)),
]

REPLACEMENTS = [math.nan, math.inf, -math.inf, 1e200, -1e200, 1e308, -1.7e308, 1.5, -1.5,
                0.5, -1, 0, 1, 2**63, -(2**63) - 1, 10**400, True, False, None, "x", [], {}]


@functools.cache
def base_doc(k: int) -> str:
    preset, config = BASES[k]
    tree = new_tree(synth.preset_schema(preset), config)
    tree.train(synth.generate(preset, 3000, seed=1))
    return tree.snapshot().decode()


def paths(node, at=()):
    """Every (path to a value) in a JSON document, depth first."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield at + (key,)
        yield from paths(child, at + (key,))


def mutate(doc, where, kind: str, pick: int) -> None:
    """Replace, delete or nudge the value at path `where`, or at the
    where-th of the document's paths."""
    if not isinstance(where, tuple):
        every = list(paths(doc))
        where = every[where % len(every)]
    *up, key = where
    parent = functools.reduce(lambda node, k: node[k], up, doc)
    old = parent[key]
    if kind == "delete":
        del parent[key]
    elif kind == "replace":
        parent[key] = REPLACEMENTS[pick % len(REPLACEMENTS)]
    elif type(old) in (int, float):  # nudge
        parent[key] = old + (1, -1, 0.5, -0.5)[pick % 4]


mutations = st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["replace", "delete",
                                                                        "nudge"]),
                               st.integers(0, 10**6)), min_size=1, max_size=2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(k=st.integers(0, len(BASES) - 1), edits=mutations)
# a gaussian mean of 1e200 used to restore, and overflowed g_vsum on the
# samples that followed
@example(k=2, edits=[(("elements", "0", "g_mean", 0, 1), "replace", REPLACEMENTS.index(1e200))])
def test_a_mutated_snapshot_is_refused_or_restores_a_tree_that_trains_on(k, edits):
    doc = json.loads(base_doc(k))
    for where, kind, pick in edits:
        mutate(doc, where, kind, pick)
    try:
        tree = restore(json.dumps(doc).encode())
    except SnapshotError:
        return
    blob = tree.snapshot()
    assert restore(blob).snapshot() == blob
    preset, _ = BASES[k]
    tree.train(synth.generate(preset, 1000, seed=2))
    tree.validate()
