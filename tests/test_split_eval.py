"""Gini scoring, the quality reorganization, and the Hoeffding decision."""

import math

import mpmath
import numpy as np
import pytest

from reference_kernels import ClassDistPair, gini_reduction, split_quality
from streamtree.leaf_stats import StatsPool
from streamtree.schema import AttributeSpec, DatasetSchema, Sample
from streamtree.split_eval import (
    REASON_GAIN,
    REASON_NONE,
    REASON_TIE,
    evaluate_split_trial,
    gini,
    hoeffding_bound,
)
from streamtree.tree import TreeConfig


def pair(left, right, pt=0.0):
    return ClassDistPair(np.asarray(left, float), np.asarray(right, float), pt)


class TestGini:
    def test_uniform_two_class(self):
        assert gini([4, 4]) == pytest.approx(0.5)

    def test_pure(self):
        assert gini([8, 0]) == 0.0

    def test_hand_value(self):
        assert gini([3, 1]) == pytest.approx(0.375)

    def test_empty_is_zero(self):
        assert gini([0, 0]) == 0.0

    def test_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            c = rng.integers(0, 50, size=rng.integers(2, 6))
            g = gini(c)
            k = len(c)
            assert -1e-12 <= g <= 1 - 1 / k + 1e-12


class TestSplitQuality:
    def test_hand_value(self):
        assert split_quality(pair([3, 1], [1, 3])) == pytest.approx(5.0)

    def test_empty_side(self):
        assert split_quality(pair([0, 0], [4, 4])) == pytest.approx(4.0)

    def test_pure_node_half_split(self):
        # (c,0)/(c,0): quality = sum n_fj^2 / n_f
        q = split_quality(pair([5, 0], [5, 0]))
        assert q == pytest.approx(10.0)  # 100/10

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            l = rng.uniform(0, 20, 3)
            r = rng.uniform(0, 20, 3)
            assert split_quality(pair(l, r)) >= 0.0


class TestGiniReduction:
    def test_hand_value(self):
        g = gini_reduction([4, 4], pair([3, 1], [1, 3]))
        assert g == pytest.approx(0.125)

    def test_identity_with_quality_form(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            total = rng.uniform(0, 30, 4)
            frac = rng.uniform(0, 1, 4)
            left = total * frac
            p = pair(left, total - left)
            direct = gini_reduction(total, p)
            n = total.sum()
            via_quality = split_quality(p) / n + gini(total) - 1.0
            assert direct == pytest.approx(via_quality, abs=1e-9)

    def test_empty_right_is_noop(self):
        g = gini_reduction([4, 4], pair([4, 4], [0, 0]))
        assert g == pytest.approx(0.0, abs=1e-12)

    def test_pure_node_any_split(self):
        g = gini_reduction([6, 0], pair([2, 0], [4, 0]))
        assert g == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            total = rng.uniform(0, 30, 3)
            frac = rng.uniform(0, 1, 3)
            left = total * frac
            assert gini_reduction(total, pair(left, total - left)) >= -1e-12

    def test_argmax_equivalence(self):
        # for a fixed leaf, quality ranking == reduction ranking
        rng = np.random.default_rng(4)
        total = rng.uniform(1, 30, 3)
        cands = []
        for _ in range(50):
            frac = rng.uniform(0, 1, 3)
            left = total * frac
            cands.append(pair(left, total - left))
        by_quality = sorted(range(50), key=lambda i: split_quality(cands[i]))
        by_gain = sorted(range(50), key=lambda i: gini_reduction(total, cands[i]))
        assert by_quality == by_gain


class TestHoeffdingBound:
    def test_frozen_spot_value(self):
        # sqrt(ln(1000)/400), frozen from a 50-digit evaluation
        assert hoeffding_bound(1.0, 1e-3, 200) == pytest.approx(
            0.13141304424392330, abs=1e-12
        )

    def test_against_mpmath(self):
        for r, d, n in [(1, 1e-3, 1), (1, 1e-3, 200), (2, 0.05, 37), (0.5, 1e-7, 10**6)]:
            exact = float(mpmath.sqrt(r * r * mpmath.log(1 / mpmath.mpf(d)) / (2 * n)))
            assert hoeffding_bound(r, d, n) == pytest.approx(exact, rel=1e-12)

    def test_quadrupling_n_halves(self):
        e1 = hoeffding_bound(1.0, 1e-3, 50)
        e2 = hoeffding_bound(1.0, 1e-3, 200)
        assert e1 == pytest.approx(2 * e2, rel=1e-12)

    def test_n_one(self):
        assert hoeffding_bound(1.0, 1e-3, 1) == pytest.approx(1.85846, abs=1e-5)

    def test_monotonicity(self):
        assert hoeffding_bound(1, 1e-3, 100) > hoeffding_bound(1, 1e-3, 101)
        assert hoeffding_bound(2, 1e-3, 100) > hoeffding_bound(1, 1e-3, 100)
        assert hoeffding_bound(1, 1e-4, 100) > hoeffding_bound(1, 1e-3, 100)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            hoeffding_bound(0, 1e-3, 10)
        with pytest.raises(ValueError):
            hoeffding_bound(1, 0.0, 10)
        with pytest.raises(ValueError):
            hoeffding_bound(1, 1e-3, 0)


TWO_NUM = DatasetSchema(
    (
        AttributeSpec("a0", "numeric", declared_min=-1.0, declared_max=1.0),
        AttributeSpec("a1", "numeric", declared_min=-1.0, declared_max=1.0),
    ),
    2,
)


def fill_element(schema, samples):
    """A pool whose element 0 has observed samples."""
    pool = StatsPool(schema, TreeConfig(), 2)
    for s in samples:
        pool.observe(0, s.values, s.label)
    return pool


class TestEvaluateSplitTrial:
    def test_separating_attribute_wins(self):
        # attr 0 separates perfectly, attr 1 is independent noise
        rng = np.random.default_rng(6)
        samples = []
        for _ in range(1000):
            y = int(rng.integers(0, 2))
            x0 = rng.uniform(0.1, 1.0) if y else rng.uniform(-1.0, -0.1)
            samples.append(Sample([float(x0), float(rng.uniform(-1, 1))], y))
        pool = fill_element(TWO_NUM, samples)
        decision = evaluate_split_trial(pool, 0, TreeConfig())
        assert decision.taken
        assert decision.reason == REASON_GAIN
        assert decision.best.attribute == 0
        assert -0.1 <= decision.best.split_point <= 0.1
        assert decision.best.full_gain > decision.second_best.full_gain

    def test_no_candidates_not_taken(self):
        samples = [Sample([0.5, 0.5], 0) for _ in range(400)]
        pool = fill_element(TWO_NUM, samples)
        decision = evaluate_split_trial(pool, 0, TreeConfig())
        assert not decision.taken
        assert decision.reason == REASON_NONE
        assert decision.best is None

    def test_duplicated_attribute_tie_rule(self):
        # identical columns: gain gap 0; tie fires once eps < tau,
        # n >= ln(1000)/(2*0.05^2) = 1382
        rng = np.random.default_rng(7)
        samples = []
        for _ in range(1400):
            y = int(rng.integers(0, 2))
            x = rng.uniform(0.1, 1.0) if y else rng.uniform(-1.0, -0.1)
            samples.append(Sample([float(x), float(x)], y))
        pool = fill_element(TWO_NUM, samples)
        decision = evaluate_split_trial(pool, 0, TreeConfig(delta=1e-3, tau=0.05))
        assert decision.taken
        assert decision.epsilon < 0.05
        assert decision.best.attribute == 0  # tie breaks to lower index

    def test_tie_needs_enough_samples(self):
        rng = np.random.default_rng(7)
        samples = []
        for _ in range(1200):
            y = int(rng.integers(0, 2))
            x = rng.uniform(0.1, 1.0) if y else rng.uniform(-1.0, -0.1)
            samples.append(Sample([float(x), float(x)], y))
        pool = fill_element(TWO_NUM, samples)
        decision = evaluate_split_trial(pool, 0, TreeConfig())
        # at n=1200 eps = 0.0543 > tau and the duplicate kills the gap
        assert not decision.taken
        assert decision.epsilon > 0.05

    def test_single_splittable_attribute_second_gain_zero(self):
        rng = np.random.default_rng(8)
        samples = []
        for _ in range(1000):
            y = int(rng.integers(0, 2))
            x = rng.uniform(0.1, 1.0) if y else rng.uniform(-1.0, -0.1)
            samples.append(Sample([float(x), 0.25], y))  # attr 1 constant
        pool = fill_element(TWO_NUM, samples)
        decision = evaluate_split_trial(pool, 0, TreeConfig())
        assert decision.taken
        assert decision.second_best is None

    def test_categorical_candidates(self):
        schema = DatasetSchema(
            (
                AttributeSpec("c0", "categorical", cardinality=3),
                AttributeSpec("a1", "numeric", declared_min=-1.0, declared_max=1.0),
            ),
            2,
        )
        rng = np.random.default_rng(9)
        samples = []
        for _ in range(800):
            y = int(rng.integers(0, 2))
            code = 2 if y else int(rng.integers(0, 2))
            samples.append(Sample([code, float(rng.uniform(-1, 1))], y))
        pool = fill_element(schema, samples)
        decision = evaluate_split_trial(pool, 0, TreeConfig())
        assert decision.taken
        assert decision.best.attribute == 0
        assert decision.best.split_point == 2

    def test_empty_element_offers_nothing(self):
        schema = DatasetSchema((AttributeSpec("c0", "categorical", cardinality=3),), 2)
        decision = evaluate_split_trial(fill_element(schema, []), 0, TreeConfig())
        assert decision.best is None
        assert decision.reason == REASON_NONE

    def test_decision_monotone_in_n(self):
        # same G values at larger n can only keep a taken decision taken
        cfg = TreeConfig()
        g1, g2 = 0.3, 0.1
        taken_at = [
            g1 - g2 > hoeffding_bound(1.0, cfg.delta, n) or
            hoeffding_bound(1.0, cfg.delta, n) < cfg.tau
            for n in range(1, 3000, 50)
        ]
        first = taken_at.index(True)
        assert all(taken_at[first:])
