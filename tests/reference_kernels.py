"""Scalar references for the kernels of `StatsPool` and the split trial.

The learner runs one quantile-tracker kernel and one Welford update,
vectorized over a pool's (element, attribute, class) slices. These are
the same two rules written one sample at a time in plain Python, so the
tests can compare the pool against them with `==`.

The trial ranks candidates by a quality term, scored for every candidate
at once; `split_quality` scores one (left, right) partition, and
`gini_reduction` gives its impurity drop by the direct weighted-gini form,
so the tests can check the ranking identity between the two.
`quality_rows` is the trial's earlier whole-table scorer, one side at a
time, which the trial's stacked one must match bit for bit.
"""

from typing import NamedTuple, Sequence

import numpy as np

from streamtree.split_eval import gini


def track_quantiles(xs, targets, lam):
    """Stream xs through a fresh tracker bank with step size lam and return
    the final tracker values. The first sample seeds every tracker; after
    that a tracker below the sample moves up by lam * alpha, and any other
    moves down by lam * (1 - alpha). Runs quantile-major, each tracker in
    a local through the whole scan."""
    xs = [float(x) for x in xs]
    values = []
    for alpha in targets:
        up = lam * alpha
        down = lam * (1.0 - alpha)
        v = xs[0]
        for x in xs[1:]:
            if v < x:
                v += up
            else:
                v -= down
        values.append(v)
    return values


def welford(xs):
    """Unit-weight one-pass (mean, variance sum) of xs; the sample variance
    is the sum over len(xs) - 1."""
    mean = vsum = 0.0
    for n, x in enumerate(xs, 1):
        if n == 1:
            mean = x
            continue
        d = x - mean
        new = mean + d / n
        vsum += d * (x - new)
        mean = new
    return mean, vsum


class ClassDistPair(NamedTuple):
    left: np.ndarray   # |C| class counts
    right: np.ndarray  # |C| class counts
    split_point: object


def split_quality(pair: ClassDistPair) -> float:
    """(1/|S_L|) sum_j left_j^2 + (1/|S_R|) sum_j right_j^2; an empty side
    adds nothing."""
    q = 0.0
    for side in (pair.left, pair.right):
        side = np.asarray(side, dtype=np.float64)
        n = side.sum()
        if n > 0:
            q += float((side ** 2).sum() / n)
    return q


def quality_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Quality of every candidate; class counts lie along the last axis."""
    sl = left.sum(axis=-1)
    sr = right.sum(axis=-1)
    # an empty side adds nothing
    q = np.divide((left ** 2).sum(axis=-1), sl, out=np.zeros_like(sl), where=sl > 0)
    q += np.divide((right ** 2).sum(axis=-1), sr, out=np.zeros_like(sr), where=sr > 0)
    return q


def gini_reduction(total: Sequence[float], pair: ClassDistPair) -> float:
    """Impurity drop of the partition, by the direct weighted-gini form."""
    t = np.asarray(total, dtype=np.float64)
    n = t.sum()
    if n <= 0:
        return 0.0
    g = gini(t)
    for side in (pair.left, pair.right):
        side = np.asarray(side, dtype=np.float64)
        if side.sum() > 0:
            g -= side.sum() / n * gini(side)
    return g
