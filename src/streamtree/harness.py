"""Evaluation drivers: interleaved test-then-train, sweeps, CDF export.

Every sample is scored against the current tree before the tree trains on
it, and the headline accuracy is cumulative over the whole stream. A
windowed accuracy series rides along for diagnostics; wall time is
recorded but excluded from determinism comparisons.

Every run goes through one loop over samples that steps a list of trees.
`run_many` builds one tree per config, opens the source once and feeds
each parsed sample to every tree; `run_once`, `sweep_quantiles` and
`compare_methods` are its callers, and `interleaved_test_then_train` is
the same loop over one tree and a stream the caller opened. The trees
never share state, so each ends as it would fed alone. Each Metrics of a
multi-tree pass carries that pass's wall time, and the pass holds every
tree's statistics pool at once.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .gaussian import normal_cdf
from .leaf_stats import METHOD_GAUSSIAN, StatsPool
from .schema import NUMERIC, DatasetSchema, Sample, domain_problem, open_stream
from .tree import HoeffdingTree, TreeConfig, new_tree

StreamSource = Union[str, Callable[[], Iterable[Sample]]]
WINDOW = 10_000  # samples per entry of Metrics.window_series


@dataclass
class Metrics:
    samples_seen: int = 0
    correct: int = 0
    splits_taken: int = 0
    frozen_leaves: int = 0
    leaf_count: int = 0
    depth: int = 0
    wall_time: float = 0.0
    clamp_count: int = 0
    saturation_count: int = 0
    window_series: list = field(default_factory=list)  # (seen, windowed acc)

    @property
    def accuracy(self) -> float:
        if self.samples_seen == 0:
            return 0.0
        return self.correct / self.samples_seen

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "samples_seen": self.samples_seen,
            "correct": self.correct,
            "accuracy": self.accuracy,
            "splits_taken": self.splits_taken,
            "frozen_leaves": self.frozen_leaves,
            "leaf_count": self.leaf_count,
            "depth": self.depth,
            "clamp_count": self.clamp_count,
            "saturation_count": self.saturation_count,
            "window_series": [list(w) for w in self.window_series],
        }
        if include_timing:
            d["wall_time"] = self.wall_time
        return d

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True)


def interleaved_test_then_train(tree: HoeffdingTree, stream: Iterable[Sample],
                                window: int = WINDOW) -> Metrics:
    return _test_then_train([tree], stream, window)[0]


def _test_then_train(trees: Sequence[HoeffdingTree], stream: Iterable[Sample],
                     window: int) -> list[Metrics]:
    """The harness's one loop over samples: each tree in turn predicts a
    sample, then trains on it. The trees share `samples_seen`, the window
    boundaries, the stream's `clamp_count` and the pass's `wall_time`."""
    if type(window) is not int or window < 1:  # a bool or a float is not a width
        raise ValueError(f"window must be an int >= 1, not {window!r}")
    steps = [tree.step for tree in trees]
    which = range(len(steps))
    correct = [0] * len(steps)
    marks = [(0, list(correct))]  # (samples seen, correct counts) at each window boundary
    seen = 0
    mark = window
    t0 = time.perf_counter()
    for s in stream:
        label = s.label
        for i in which:
            if steps[i](s) == label:
                correct[i] += 1
        seen += 1
        if seen == mark:
            marks.append((seen, list(correct)))
            mark += window
    wall_time = time.perf_counter() - t0
    if seen > marks[-1][0]:
        marks.append((seen, correct))
    windows = list(zip(marks, marks[1:]))
    clamp_count = getattr(stream, "clamp_count", 0)
    return [Metrics(samples_seen=seen, correct=correct[i], splits_taken=tree.split_count,
                    frozen_leaves=tree.frozen_leaf_count, leaf_count=tree.leaf_count,
                    depth=tree.depth, wall_time=wall_time, clamp_count=clamp_count,
                    saturation_count=tree.stats.saturation_count,
                    window_series=[(n, (c[i] - c0[i]) / (n - n0))
                                   for (n0, c0), (n, c) in windows])
            for i, tree in enumerate(trees)]


def _open(source: StreamSource, schema: DatasetSchema) -> Iterable[Sample]:
    if isinstance(source, str):
        return open_stream(source, schema)
    return source()


def run_many(source: StreamSource, schema: DatasetSchema,
             configs: Sequence[TreeConfig]) -> list[tuple[HoeffdingTree, Metrics]]:
    """One tree per config, every tree fed each sample of one pass over
    source. Every tree is built before the source is opened."""
    if not configs:
        raise ValueError("configs must be nonempty")
    trees = [new_tree(schema, config) for config in configs]
    return list(zip(trees, _test_then_train(trees, _open(source, schema), WINDOW)))


def run_once(source: StreamSource, schema: DatasetSchema,
             config: TreeConfig) -> tuple[HoeffdingTree, Metrics]:
    return run_many(source, schema, [config])[0]


def sweep_quantiles(source: StreamSource, schema: DatasetSchema,
                    q_list: Sequence[int],
                    config: TreeConfig = TreeConfig()) -> list[tuple[int, Metrics]]:
    """One quantile-method tree per quantile count, all fed from one pass."""
    configs = [replace(config, quantile_count=q, method="quantile") for q in q_list]
    return [(q, m) for q, (_, m) in zip(q_list, run_many(source, schema, configs))]


def compare_methods(source: StreamSource, schema: DatasetSchema,
                    config: TreeConfig = TreeConfig()) -> dict[str, Metrics]:
    """The quantile learner and the Gaussian baseline fed from one pass."""
    methods = ("quantile", "gaussian")
    configs = [replace(config, method=m, numeric_backend="float") for m in methods]
    return {m: metrics for m, (_, metrics) in zip(methods, run_many(source, schema, configs))}


@dataclass
class CdfComparison:
    """Aligned CDF estimates over one attribute's observed values."""
    xs: np.ndarray        # sorted observed values
    exact: np.ndarray     # empirical CDF from sorting
    quantile: np.ndarray  # tracker reconstruction, interpolated
    quantile_step: np.ndarray  # tracker reconstruction, round-down rule
    gaussian: np.ndarray  # fitted normal CDF

    def sup_errors(self) -> dict[str, float]:
        return {
            "quantile": float(np.max(np.abs(self.quantile - self.exact))),
            "quantile_step": float(np.max(np.abs(self.quantile_step - self.exact))),
            "gaussian": float(np.max(np.abs(self.gaussian - self.exact))),
        }

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "exact", "quantile", "quantile_step", "gaussian"])
            for k in range(len(self.xs)):
                w.writerow([repr(float(c[k])) for c in
                            (self.xs, self.exact, self.quantile,
                             self.quantile_step, self.gaussian)])


def _cdf_curve(trackers: np.ndarray, targets: np.ndarray, xs: np.ndarray,
               lo: float, hi: float) -> np.ndarray:
    """Continuous CDF reconstruction from one tracker bank, at points xs.

    Piecewise-linear through the tracked (value, target) pairs, anchored
    at (lo, 0) and (hi, 1) from the observed value range. Values are
    sorted and clipped into [lo, hi] first so the curve is a valid
    monotone CDF even when trackers have transiently crossed.
    """
    knots = np.clip(np.sort(trackers), lo, hi)
    xp = np.concatenate(([lo], knots, [hi]))
    fp = np.concatenate(([0.0], targets, [1.0]))
    # Collapse any equal-x knots monotonically for interp.
    xp = np.maximum.accumulate(xp)
    return np.interp(xs, xp, fp)


def export_cdf_comparison(source: StreamSource, schema: DatasetSchema,
                          attr: int, sample_limit: int,
                          quantile_count: int = 8, lam: float = 0.01,
                          out_path: Optional[str] = None) -> CdfComparison:
    """Fit both estimators on one attribute of the stream head and tabulate
    them against the exact sorted empirical CDF.

    The estimators are the learner's own: a one-element quantile pool and
    a one-element Gaussian pool over a one-attribute schema, every sample
    under class 0. A value the tree would refuse raises its ValueError.
    """
    if not 0 <= attr < schema.attr_count:  # a negative index would pick another attribute
        raise ValueError(f"attribute index {attr} outside 0..{schema.attr_count - 1}")
    spec = schema.attributes[attr]
    if spec.kind != NUMERIC:
        raise ValueError(f"attribute {attr} ({spec.name!r}) is not numeric")
    if sample_limit < 1:
        raise ValueError(f"sample limit must be >= 1, got {sample_limit}")
    config = TreeConfig(quantile_count=quantile_count, lam=lam)
    one = DatasetSchema((spec,), 2)
    qpool = StatsPool(one, config, 1)
    gpool = StatsPool(one, replace(config, method=METHOD_GAUSSIAN), 1)
    qpool.alloc()  # element 0 of each, which every sample goes to
    gpool.alloc()
    values = []
    for s in _open(source, schema):
        problem = domain_problem(s.values[attr])
        if problem:
            raise ValueError(f"attribute {attr} ({spec.name!r}) {problem}")
        x = [float(s.values[attr])]
        qpool.observe(0, x, 0)
        gpool.observe(0, x, 0)
        values.append(x[0])
        if len(values) == sample_limit:
            break
    if not values:
        raise ValueError("stream produced no samples")
    xs = np.sort(np.asarray(values))
    n = len(xs)
    exact = np.arange(1, n + 1) / n
    trackers = qpool.trackers[0, 0, :, 0]
    quantile = _cdf_curve(trackers, qpool.targets, xs, float(xs[0]), float(xs[-1]))
    step = (trackers < xs[:, None]).sum(1) / qpool.quantile_count
    # a single sample or no spread gives a step at the mean
    var = gpool.g_vsum[0, 0, 0] / (n - 1) if n > 1 else 0.0
    gaussian = normal_cdf(xs, gpool.g_mean[0, 0, 0], var)
    comp = CdfComparison(xs, exact, quantile, step, gaussian)
    if out_path is not None:
        comp.write_csv(out_path)
    return comp
