"""Per-layer spans for the traced run, recorded from the bench's side.

Hooks replace public functions with timing wrappers: instance attributes
on the tree and its statistics pool (which shadow the class methods for
that one tree), and module attributes that other modules look up at call
time. A hook whose target attribute no longer exists is recorded as
absent and the metrics that need it are left out, so a refactor that
renames a function loses those metrics instead of crashing the bench.

Spans are aggregated as they close (calls, busy time, time covered by
child spans); nothing runs concurrently, so no layer waits and no wait
time is recorded.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# key -> (owner, attribute). Owners "tree" and "stats" are the tree
# instance and its `stats` pool; anything else is a streamtree module.
HOOKS = {
    "predict": ("tree", "predict"),
    "train_one": ("tree", "train_one"),
    "apply_split": ("tree", "apply_split"),
    "freeze": ("tree", "_freeze"),
    "observe": ("stats", "observe"),
    "partition": ("stats", "numeric_partition_table"),
    "trial": ("split_eval", "evaluate_split_trial"),
    "cdf": ("leaf_stats", "normal_cdf"),
    "convert": ("fixed_point", "float_to_raw_array"),
    "saturate": ("fixed_point", "saturate_raw_array"),
}


class Tracer:
    """Span aggregates for one replay of the stream."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.child = defaultdict(float)
        # child time of the enclosing span; the bottom entry is the harness
        self._stack = [0.0]
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, key: str, fn):
        calls, busy, child, stack = self.calls, self.busy, self.child, self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                calls[key] += 1
                busy[key] += dt
                child[key] += inner

        return span

    def self_time(self, key: str) -> float:
        return self.busy[key] - self.child[key]

    @property
    def top_level_busy(self) -> float:
        """Time covered by spans the harness itself opened."""
        return self._stack[0]

    def install(self, tree) -> None:
        """Wrap every hook target reachable from `tree`."""
        instances = {"tree": tree, "stats": getattr(tree, "stats", None)}
        for key, (owner_name, attr) in HOOKS.items():
            is_module = owner_name not in instances
            owner = _module(owner_name) if is_module else instances[owner_name]
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.append(key)
                continue
            try:
                setattr(owner, attr, self.wrap(key, fn))
            except (AttributeError, TypeError):
                self.absent.append(key)
                continue
            if is_module:
                self._restore.append((owner, attr, fn))

    def uninstall(self) -> None:
        """Put module attributes back; instance hooks die with their tree."""
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()


def _module(name: str):
    try:
        return importlib.import_module(f"streamtree.{name}")
    except ImportError:
        return None


def layer_metrics(tr: Tracer, tree, wall_s: float) -> dict:
    """Per-layer figures of one traced replay, keyed by metric name.

    A metric whose hooks were absent, or whose counter the tree no longer
    has, is left out.
    """
    have = set(HOOKS) - set(tr.absent)
    out = {}

    def put(name, needs, value):
        if set(needs) <= have:
            out[name] = value

    put("tree.route_calls", ["predict"], tr.calls["predict"])
    put("tree.route_busy_s", ["predict"], tr.busy["predict"])
    put("tree.train_self_busy_s", ["train_one", "observe", "trial", "apply_split"],
        tr.self_time("train_one"))
    put("leaf_stats.observe_calls", ["observe"], tr.calls["observe"])
    put("leaf_stats.observe_busy_s", ["observe"], tr.busy["observe"])
    put("fixed_point.convert_calls", ["convert"], tr.calls["convert"])
    put("fixed_point.convert_busy_s", ["convert"], tr.busy["convert"])
    put("fixed_point.saturate_busy_s", ["saturate"], tr.busy["saturate"])
    put("split_eval.trials", ["trial"], tr.calls["trial"])
    put("split_eval.trial_busy_s", ["trial"], tr.busy["trial"])
    put("leaf_stats.partition_calls", ["partition"], tr.calls["partition"])
    put("leaf_stats.partition_busy_s", ["partition"], tr.busy["partition"])
    put("gaussian.cdf_calls", ["cdf"], tr.calls["cdf"])
    put("gaussian.cdf_busy_s", ["cdf"], tr.busy["cdf"])
    # _freeze runs inside apply_split; its busy time tops up the self time
    put("tree.split_busy_s", ["apply_split"],
        tr.self_time("apply_split") + tr.busy["freeze"])
    put("harness.self_busy_s", ["predict", "train_one"], wall_s - tr.top_level_busy)

    splits = getattr(tree, "split_count", None)
    freezes = getattr(tree, "freeze_count", None)
    stats = getattr(tree, "stats", None)
    for name, value in (("tree.splits", splits), ("tree.freezes", freezes),
                        ("tree.leaves", getattr(tree, "leaf_count", None)),
                        ("tree.depth", getattr(tree, "depth", None)),
                        ("fixed_point.saturations", getattr(stats, "saturation_count", None))):
        if value is not None:
            out[name] = value
    trials = tr.calls["trial"]
    if "trial" in have and trials and splits is not None and freezes is not None:
        out["split_eval.taken_ratio"] = (splits + freezes) / trials
    if stats is not None:
        out["leaf_stats.pool_bytes"] = pool_bytes(stats)
    allocated = getattr(getattr(tree, "pool", None), "allocated_count", None)
    if allocated is not None:
        out["leaf_stats.pool_allocated"] = allocated
    return out


def pool_bytes(stats) -> int:
    """Bytes of every array the statistics pool holds."""
    total = 0
    for v in getattr(stats, "__dict__", {}).values():
        for a in (v if isinstance(v, list) else [v]):
            total += getattr(a, "nbytes", 0)
    return total
