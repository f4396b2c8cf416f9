"""Split scoring and the Hoeffding split/tie decision.

Candidates are ranked by a reorganized quality term rather than the full
impurity reduction: for a fixed leaf the reduction is an increasing affine
function of

    quality = (1/|S_L|) sum_j left_j^2 + (1/|S_R|) sum_j right_j^2,

so the 1/|S| scaling and the leaf's own impurity can be applied once to
the winners instead of once per candidate. The full reduction G is
materialized only for the best and second-best attributes, where the
Hoeffding bound needs it.

A trial scores a leaf's numeric attributes in one pass: split points
(A, P), left class counts dist_L (A, P, |C|) and qualities (A, P) for the
A numeric attributes that can split, P split points each and |C|
classes, then one argmax per attribute. The categorical attributes are
scored in one pass too: one quality per row of the element's histogram
(every code of every attribute), then the first maximum within each
attribute's rows. A loop over attributes then keeps the best and
second-best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from .leaf_stats import StatsPool

if TYPE_CHECKING:
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


def hoeffding_bound(r: float, delta: float, n: int) -> float:
    """sqrt(R^2 ln(1/delta) / 2n)."""
    if r <= 0:
        raise ValueError("R must be > 0")
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    if n < 1:
        raise ValueError("n must be >= 1")
    return math.sqrt(r * r * math.log(1.0 / delta) / (2.0 * n))


def _quality_rows(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Quality of every candidate; class counts lie along the last axis.
    Both sides go through each reduction as one stacked array, every row
    still summed along its own contiguous last axis, so in the float
    order of a lone side."""
    sides = np.stack((left, right))
    totals = sides.sum(axis=-1)
    sides *= sides
    # an empty side adds nothing
    q = np.divide(sides.sum(axis=-1), totals, out=np.zeros_like(totals), where=totals > 0)
    return q[0] + q[1]


def _best_per_attribute(pool: StatsPool, e: int, counts: np.ndarray, split_points: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element e's best quality per attribute and its split point (a
    threshold, or a code for a categorical attribute), and a mask of the
    attributes that offer a split at all, indexed by attribute."""
    n_attr = len(pool.schema.attributes)
    offered = np.zeros(n_attr, dtype=bool)
    quality = np.zeros(n_attr)
    point = np.zeros(n_attr)
    if pool.numeric_idx:
        valid, pts = pool.split_points(e, split_points)
        if len(pts):
            dist_l = pool.numeric_partition_table(e, valid, pts)
            qualities = _quality_rows(dist_l, counts - dist_l)
            rows = np.arange(len(pts))
            ks = np.argmax(qualities, axis=1)  # first max: smaller pt
            idx = pool.numeric_cols[valid]
            offered[idx] = True
            quality[idx] = qualities[rows, ks]
            point[idx] = pts[rows, ks]
    if pool.cat_idx:
        dist_l = pool.hist[e].astype(np.float64)  # every code of every attribute
        qualities = _quality_rows(dist_l, counts - dist_l)
        starts = pool.cat_start
        best = np.maximum.reduceat(qualities, starts)
        # an attribute's first max (the lower code) is the first row at or
        # after its start that holds its own best
        hits = np.flatnonzero(qualities == np.repeat(best, pool.cat_cards))
        idx = pool.cat_cols
        offered[idx] = counts.any()  # each attribute's codes hold every sample
        quality[idx] = best
        point[idx] = hits[np.searchsorted(hits, starts)] - starts
    return quality, point, offered


def _candidate(pool, attr: int, point: np.ndarray, qs: list[float]) -> SplitCandidate:
    """Attribute attr's best candidate; the tree stores a numeric split
    point as a float threshold and a categorical one as an int code."""
    pt = point[attr]
    return SplitCandidate(attr, int(pt) if attr in pool.cat_idx else float(pt), qs[attr])


def evaluate_split_trial(pool: StatsPool, e: int, config: "TreeConfig") -> SplitDecision:
    """Rank element e's attributes by their best candidate and apply
    Eq.-style rules: split when the gain gap beats the Hoeffding bound, or
    when the bound itself has shrunk under the tie threshold tau.
    """
    counts = pool.n_fj[e].astype(np.float64)
    n = pool.n_f.item(e)
    epsilon = hoeffding_bound(config.r_range, config.delta, max(n, 1))

    quality, point, offered = _best_per_attribute(pool, e, counts, config.split_points)
    qs = quality.tolist()
    b: Optional[int] = None
    b2: Optional[int] = None
    for attr in np.flatnonzero(offered).tolist():
        # strict > keeps the lower attribute index on ties
        if b is None or qs[attr] > qs[b]:
            b, b2 = attr, b
        elif b2 is None or qs[attr] > qs[b2]:
            b2 = attr

    if b is None:
        return SplitDecision(False, None, None, epsilon, REASON_NONE)
    best = _candidate(pool, b, point, qs)
    second = None if b2 is None else _candidate(pool, b2, point, qs)

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
