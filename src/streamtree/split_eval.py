"""Split scoring and the Hoeffding split/tie decision.

Candidates are ranked by a reorganized quality term rather than the full
impurity reduction: for a fixed leaf the reduction is an increasing affine
function of

    quality = (1/|S_L|) sum_j left_j^2 + (1/|S_R|) sum_j right_j^2,

so the 1/|S| scaling and the leaf's own impurity can be applied once to
the winners instead of once per candidate. The full reduction G is
materialized only for the best and second-best attributes, where the
Hoeffding bound needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .leaf_stats import ClassDistPair
from .schema import CATEGORICAL, NUMERIC

if TYPE_CHECKING:
    from .leaf_stats import LeafElement
    from .tree import TreeConfig

REASON_GAIN = "gain_exceeds_bound"
REASON_TIE = "tie_below_tau"
REASON_NONE = "not_taken"


@dataclass
class SplitCandidate:
    attribute: int
    split_point: object  # real threshold or categorical code
    quality: float
    full_gain: Optional[float] = None


@dataclass
class SplitDecision:
    taken: bool
    best: Optional[SplitCandidate]
    second_best: Optional[SplitCandidate]
    epsilon: float
    reason: str


def gini(counts: Sequence[float]) -> float:
    """1 - sum of squared class proportions; 0 for an empty vector."""
    c = np.asarray(counts, dtype=np.float64)
    total = c.sum()
    if total <= 0:
        return 0.0
    p = c / total
    return float(1.0 - np.dot(p, p))


def split_quality(pair: ClassDistPair) -> float:
    return _quality(np.asarray(pair.left, dtype=np.float64),
                    np.asarray(pair.right, dtype=np.float64))


def _quality(left: np.ndarray, right: np.ndarray) -> float:
    sl = left.sum()
    sr = right.sum()
    q = 0.0
    if sl > 0:
        q += float(np.dot(left, left)) / sl
    if sr > 0:
        q += float(np.dot(right, right)) / sr
    return q


def gini_reduction(total: Sequence[float], pair: ClassDistPair) -> float:
    """Impurity drop of the partition, by the direct weighted-gini form."""
    t = np.asarray(total, dtype=np.float64)
    n = t.sum()
    if n <= 0:
        return 0.0
    left = np.asarray(pair.left, dtype=np.float64)
    right = np.asarray(pair.right, dtype=np.float64)
    sl = left.sum()
    sr = right.sum()
    g = gini(t)
    if sl > 0:
        g -= sl / n * gini(left)
    if sr > 0:
        g -= sr / n * gini(right)
    return g


def hoeffding_bound(r: float, delta: float, n: int) -> float:
    """sqrt(R^2 ln(1/delta) / 2n)."""
    if r <= 0:
        raise ValueError("R must be > 0")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(r * r * math.log(1.0 / delta) / (2.0 * n))


def _quality_rows(dist_l: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Vectorized quality for many candidates: dist_l is (k, |C|)."""
    right = counts[None, :] - dist_l
    sl = dist_l.sum(axis=1)
    sr = right.sum(axis=1)
    out = np.zeros(len(dist_l))
    nz = sl > 0
    out[nz] += (dist_l[nz] ** 2).sum(axis=1) / sl[nz]
    nz = sr > 0
    out[nz] += (right[nz] ** 2).sum(axis=1) / sr[nz]
    return out


def evaluate_split_trial(el: "LeafElement", config: "TreeConfig") -> SplitDecision:
    """Rank attributes by their best candidate and apply Eq.-style rules:
    split when the gain gap beats the Hoeffding bound, or when the bound
    itself has shrunk under the tie threshold tau.
    """
    counts = el.n_fj.astype(np.float64)
    n = el.n_f
    epsilon = hoeffding_bound(config.r_range, config.delta, max(n, 1))

    best: Optional[SplitCandidate] = None
    second: Optional[SplitCandidate] = None
    schema = el.pool.schema
    for attr, spec in enumerate(schema.attributes):
        if spec.kind == NUMERIC:
            pts = el.split_points(attr, config.split_points)
            if not pts:
                continue
            dist_l = el.numeric_partition_table(attr, pts)
        else:
            dist_l = el.categorical_partition_table(attr)
            if not dist_l.any():
                continue
            pts = list(range(spec.cardinality))
        qualities = _quality_rows(dist_l, counts)
        k = int(np.argmax(qualities))  # first max: smaller pt / lower code
        cand = SplitCandidate(attr, pts[k], float(qualities[k]))
        # strict > keeps the lower attribute index on ties
        if best is None or cand.quality > best.quality:
            best, second = cand, best
        elif second is None or cand.quality > second.quality:
            second = cand

    if best is None:
        return SplitDecision(False, None, None, epsilon, REASON_NONE)

    leaf_gini = gini(counts)
    total = counts.sum()
    best.full_gain = best.quality / total + leaf_gini - 1.0
    g2 = 0.0
    if second is not None:
        second.full_gain = second.quality / total + leaf_gini - 1.0
        g2 = second.full_gain

    if best.full_gain - g2 > epsilon:
        return SplitDecision(True, best, second, epsilon, REASON_GAIN)
    if epsilon < config.tau:
        return SplitDecision(True, best, second, epsilon, REASON_TIE)
    return SplitDecision(False, best, second, epsilon, REASON_NONE)
