"""The library's timing hook points, as a profiler wraps them.

A per-layer profile replaces public callables with timing wrappers: the
tree's `stats.observe` as an instance attribute, and module functions
that other modules must look up at call time. A caller that binds one of
them early (a `from ... import`, a stored bound method) runs around the
wrapper, and the layer it times reads zero. Each replay here counts the
wrapped calls against what the tree itself counted.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from streamtree import fixed_point, leaf_stats, split_eval, synth
from streamtree.harness import interleaved_test_then_train
from streamtree.schema import open_stream
from streamtree.tree import TreeConfig, new_tree

MODULE_HOOKS = {
    "trial": (split_eval, "evaluate_split_trial"),
    "cdf": (leaf_stats, "normal_cdf"),
    "convert": (fixed_point, "float_to_raw_array"),
}

CONFIGS = {
    "quantile-float": TreeConfig(n_min=50),
    "quantile-fixed": TreeConfig(n_min=50, numeric_backend="fixed"),
    "gaussian": TreeConfig(n_min=50, method="gaussian"),
}


def counting(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("name", CONFIGS)
def test_every_hook_point_sees_its_calls(name, tmp_path, monkeypatch):
    path = str(tmp_path / "s.csv")
    schema = synth.write_csv(path, "bimodal", 2_000, seed=3)
    tree = new_tree(schema, CONFIGS[name])
    calls = Counter()
    tree.stats.observe = counting(calls, "observe", tree.stats.observe)
    for key, (module, attr) in MODULE_HOOKS.items():
        monkeypatch.setattr(module, attr, counting(calls, key, getattr(module, attr)))

    m = interleaved_test_then_train(tree, open_stream(path, schema))

    assert m.samples_seen == 2_000
    assert calls["observe"] == tree.train_count == 2_000
    assert calls["trial"] == tree.trial_count > 0
    assert tree.split_count > 0
    # the gaussian table fits a CDF, the fixed one converts its split points
    assert (calls["cdf"] > 0) == (name == "gaussian")
    assert (calls["convert"] >= tree.trial_count) == (name == "quantile-fixed")


def test_what_the_bench_tracer_reads_is_there():
    """bench/tracer.py looks its hook targets up by name and reads
    `tree.pool.allocated_count`, so a rename here blinds a bench metric
    without failing any call there."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tree = new_tree(synth.preset_schema("bimodal"))
    owners = {"tree": tree, "stats": tree.stats}
    for key, (owner, attr) in tracer.HOOKS.items():
        target = owners.get(owner) or importlib.import_module(f"streamtree.{owner}")
        assert callable(getattr(target, attr, None)), f"hook {key!r}: {owner}.{attr}"
    assert tree.pool.allocated_count == tree.counters()["pool_allocated"] == 1
