"""Evaluation drivers: interleaved test-then-train, sweeps, CDF export.

Every sample is scored against the current tree before the tree trains on
it, and the headline accuracy is cumulative over the whole stream. A
windowed accuracy series rides along for diagnostics; wall time is
recorded but excluded from determinism comparisons.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .gaussian import GaussianStats, normal_cdf
from .quantiles import QuantileSet, default_targets
from .schema import NUMERIC, DatasetSchema, Sample, open_stream
from .tree import HoeffdingTree, TreeConfig, new_tree

StreamSource = Union[str, Callable[[], Iterable[Sample]]]


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

    def csv_row(self) -> list:
        return [self.samples_seen, self.correct, f"{self.accuracy:.6f}",
                self.splits_taken, self.frozen_leaves, self.leaf_count,
                self.depth, f"{self.wall_time:.3f}"]

    CSV_HEADER = ["samples", "correct", "accuracy", "splits", "frozen",
                  "leaves", "depth", "wall_time"]


def interleaved_test_then_train(tree: HoeffdingTree, stream: Iterable[Sample],
                                window: int = 10_000) -> Metrics:
    m = Metrics()
    predict = tree.predict
    train = tree.train_one
    win_correct = 0
    win_seen = 0
    t0 = time.perf_counter()
    for s in stream:
        ok = predict(s) == s.label
        train(s)
        m.samples_seen += 1
        win_seen += 1
        if ok:
            m.correct += 1
            win_correct += 1
        if win_seen == window:
            m.window_series.append((m.samples_seen, win_correct / win_seen))
            win_correct = 0
            win_seen = 0
    m.wall_time = time.perf_counter() - t0
    if win_seen:
        m.window_series.append((m.samples_seen, win_correct / win_seen))
    m.splits_taken = tree.split_count
    m.frozen_leaves = tree.frozen_leaf_count
    m.leaf_count = tree.leaf_count
    m.depth = tree.depth
    m.saturation_count = tree.stats.saturation_count
    if hasattr(stream, "clamp_count"):
        m.clamp_count = stream.clamp_count
    return m


def _open(source: StreamSource, schema: DatasetSchema) -> Iterable[Sample]:
    if isinstance(source, str):
        return open_stream(source, schema)
    return source()


def run_once(source: StreamSource, schema: DatasetSchema,
             config: TreeConfig) -> tuple[HoeffdingTree, Metrics]:
    tree = new_tree(schema, config)
    metrics = interleaved_test_then_train(tree, _open(source, schema))
    return tree, metrics


def sweep_quantiles(source: StreamSource, schema: DatasetSchema,
                    q_list: Sequence[int],
                    config: TreeConfig = TreeConfig()) -> list[tuple[int, Metrics]]:
    """One independent full run per quantile count."""
    if not q_list:
        raise ValueError("q_list must be nonempty")
    rows = []
    for q in q_list:
        cfg = replace(config, quantile_count=q, method="quantile")
        _, metrics = run_once(source, schema, cfg)
        rows.append((q, metrics))
    return rows


def compare_methods(source: StreamSource, schema: DatasetSchema,
                    config: TreeConfig = TreeConfig()) -> dict[str, Metrics]:
    """Same stream through the quantile learner and the Gaussian baseline."""
    out = {}
    for method in ("quantile", "gaussian"):
        cfg = replace(config, method=method, numeric_backend="float")
        _, metrics = run_once(source, schema, cfg)
        out[method] = metrics
    return out


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


def export_cdf_comparison(source: StreamSource, schema: DatasetSchema,
                          attr: int, sample_limit: int,
                          quantile_count: int = 8, lam: float = 0.01,
                          out_path: Optional[str] = None) -> CdfComparison:
    """Fit both estimators on one attribute of the stream head and tabulate
    them against the exact sorted empirical CDF.
    """
    spec = schema.attributes[attr]
    if spec.kind != NUMERIC:
        raise ValueError(f"attribute {attr} ({spec.name!r}) is not numeric")
    qs = QuantileSet(default_targets(quantile_count))
    gs = GaussianStats()
    values = []
    stream = _open(source, schema)
    for s in stream:
        x = float(s.values[attr])
        qs.update(x, lam)
        gs.update(x)
        values.append(x)
        if len(values) >= sample_limit:
            break
    if not values:
        raise ValueError("stream produced no samples")
    xs = np.sort(np.asarray(values))
    n = len(xs)
    exact = np.arange(1, n + 1) / n
    quantile = qs.cdf_curve(xs, float(xs[0]), float(xs[-1]))
    step = np.array([qs.cdf_below(float(x)) for x in xs])
    # a single sample or no spread gives a step at the mean
    gaussian = normal_cdf(xs, gs.mean, gs.variance if gs.weight_sum > 1 else 0.0)
    comp = CdfComparison(xs, exact, quantile, step, gaussian)
    if out_path is not None:
        comp.write_csv(out_path)
    return comp
