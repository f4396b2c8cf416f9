"""Tree induction: routing, pool accounting, freezing, and snapshots."""

import json

import numpy as np
import pytest

from streamtree import synth
from streamtree.leaf_stats import LeafElement
from streamtree.schema import AttributeSpec, DatasetSchema, Sample
from streamtree.tree import (
    HoeffdingTree,
    InternalNode,
    LeafNode,
    SnapshotError,
    TreeConfig,
    new_tree,
    restore,
)

TWO_NUM = DatasetSchema(
    (
        AttributeSpec("a0", "numeric", declared_min=-1.0, declared_max=1.0),
        AttributeSpec("a1", "numeric", declared_min=-1.0, declared_max=1.0),
    ),
    2,
)


def check_structure(tree):
    """Walk the tree and re-derive every structural invariant."""
    leaves = frozen = 0
    seen_elements = set()
    stack = [(tree.root, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, InternalNode):
            stack.append((node.left, d + 1))
            stack.append((node.right, d + 1))
            continue
        leaves += 1
        assert node.depth == d
        assert d <= tree.config.max_depth
        if node.frozen:
            frozen += 1
        else:
            assert node.element.eid not in seen_elements
            seen_elements.add(node.element.eid)
    assert leaves == tree.leaf_count <= tree.config.max_leaves
    assert frozen == tree.frozen_leaf_count
    assert tree.pool.allocated_count == leaves - frozen
    assert tree.pool.allocated_count + tree.pool.free_count == tree.pool.capacity
    assert len(seen_elements) == leaves - frozen


class TestNewTree:
    def test_default_shape(self):
        tree = new_tree(TWO_NUM)
        assert tree.leaf_count == 1
        assert tree.depth == 0
        assert tree.pool.free_count == 1023
        check_structure(tree)

    def test_small_pool(self):
        tree = new_tree(TWO_NUM, TreeConfig(max_leaves=2))
        assert tree.pool.capacity == 2
        assert tree.pool.free_count == 1

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            TreeConfig(delta=0.0)
        with pytest.raises(ValueError):
            TreeConfig(tau=-1.0)
        with pytest.raises(ValueError):
            TreeConfig(quantile_count=1)
        with pytest.raises(ValueError):
            TreeConfig(method="gaussian", numeric_backend="fixed")
        with pytest.raises(ValueError):
            TreeConfig(method="nope")


class TestSortToLeaf:
    def test_single_leaf(self):
        tree = new_tree(TWO_NUM)
        assert tree.sort_to_leaf(Sample([0.3, -0.9], 0)) is tree.root

    def test_boundary_goes_left(self):
        tree = new_tree(TWO_NUM)
        left = LeafNode(None, 1)
        right = LeafNode(None, 1)
        tree.root = InternalNode(0, 0.5, False, left, right)
        assert tree.sort_to_leaf(Sample([0.5, 0.0], 0)) is left
        assert tree.sort_to_leaf(Sample([0.5000001, 0.0], 0)) is right

    def test_categorical_equality_goes_left(self):
        schema = DatasetSchema(
            (AttributeSpec("c", "categorical", cardinality=3),), 2
        )
        tree = new_tree(schema)
        left = LeafNode(None, 1)
        right = LeafNode(None, 1)
        tree.root = InternalNode(0, 1, True, left, right)
        assert tree.sort_to_leaf(Sample([1], 0)) is left
        assert tree.sort_to_leaf(Sample([0], 0)) is right
        assert tree.sort_to_leaf(Sample([2], 0)) is right

    def test_depth_three_brute_force(self):
        # routing cells: a0<=0 / a0>0, then a1<=+-0.5, then a0<=+-0.25 on one arm
        tree = new_tree(TWO_NUM)
        cells = [LeafNode(None, 2, cached_majority=k) for k in range(4)]
        tree.root = InternalNode(
            0, 0.0, False,
            InternalNode(1, -0.5, False, cells[0], cells[1]),
            InternalNode(1, 0.5, False, cells[2], cells[3]),
        )
        probes = [
            (Sample([-0.5, -0.9], 0), 0),
            (Sample([-0.5, 0.9], 0), 1),
            (Sample([0.5, 0.2], 0), 2),
            (Sample([0.5, 0.9], 0), 3),
            (Sample([0.0, -0.5], 0), 0),   # both boundaries go left
            (Sample([0.0, -0.4999], 0), 1),
            (Sample([0.0001, 0.5], 0), 2),
            (Sample([1.0, 1.0], 0), 3),
        ]
        for s, want in probes:
            assert tree.sort_to_leaf(s).cached_majority == want


def separable_stream(n, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        y = int(rng.integers(0, 2))
        x0 = rng.uniform(0.1, 1.0) if y else rng.uniform(-1.0, -0.1)
        yield Sample([float(x0), float(rng.uniform(-1, 1))], y)


class TestTrainOne:
    def test_no_trial_before_n_min(self):
        tree = new_tree(TWO_NUM)
        for s in list(separable_stream(199)):
            tree.train_one(s)
        assert tree.trial_count == 0

    def test_trial_fires_at_n_min(self):
        tree = new_tree(TWO_NUM)
        for s in list(separable_stream(200)):
            tree.train_one(s)
        assert tree.trial_count == 1

    def test_separable_stream_splits_on_informative_attr(self):
        tree = new_tree(TWO_NUM)
        tree.train(separable_stream(10_000))
        assert tree.split_count >= 1
        first = tree.split_log[0]
        assert first.kind == "split"
        assert first.attribute == 0
        check_structure(tree)

    def test_accuracy_after_split(self):
        tree = new_tree(TWO_NUM)
        tree.train(separable_stream(5000))
        hits = sum(
            tree.predict(s) == s.label for s in separable_stream(2000, seed=9)
        )
        assert hits / 2000 > 0.95

    def test_determinism(self):
        t1 = new_tree(TWO_NUM)
        t2 = new_tree(TWO_NUM)
        t1.train(separable_stream(8000, seed=3))
        t2.train(separable_stream(8000, seed=3))
        assert t1.snapshot() == t2.snapshot()
        assert [(e.kind, e.attribute, e.n_f) for e in t1.split_log] == \
               [(e.kind, e.attribute, e.n_f) for e in t2.split_log]


class TestApplySplit:
    def test_root_split_pool_accounting(self):
        tree = new_tree(TWO_NUM)
        tree.train(separable_stream(2000))
        assert tree.split_count >= 1
        assert tree.leaf_count == tree.split_count + 1
        assert tree.pool.allocated_count == tree.leaf_count - tree.frozen_leaf_count
        check_structure(tree)

    def test_children_inherit_majority(self):
        tree = new_tree(TWO_NUM)
        stream = list(separable_stream(3000, seed=1))
        for s in stream:
            event = tree.train_one(s)
            if event is not None and event.kind == "split":
                break
        node = tree.root
        assert isinstance(node, InternalNode)
        # fresh children predict the parent's majority before seeing data
        assert node.left.cached_majority == node.right.cached_majority

    def test_depth_cap_freezes(self):
        # xor-style stream forces repeated splitting; depth must stay capped
        cfg = TreeConfig(max_depth=2, tau=0.5)  # tie rule fires every trial
        tree = new_tree(TWO_NUM, cfg)
        rng = np.random.default_rng(2)
        for _ in range(30_000):
            s = Sample([float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))],
                       int(rng.integers(0, 2)))
            tree.train_one(s)
        assert tree.depth <= 2
        assert tree.freeze_count >= 1
        check_structure(tree)

    def test_pool_exhaustion_freezes(self):
        cfg = TreeConfig(max_leaves=4, tau=0.5)
        tree = new_tree(TWO_NUM, cfg)
        rng = np.random.default_rng(3)
        for _ in range(30_000):
            s = Sample([float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))],
                       int(rng.integers(0, 2)))
            tree.train_one(s)
        assert tree.leaf_count <= 4
        assert tree.freeze_count >= 1
        check_structure(tree)

    def test_frozen_leaf_keeps_predicting(self):
        cfg = TreeConfig(max_leaves=2, tau=10.0, n_min=10)
        tree = new_tree(TWO_NUM, cfg)
        # first taken trial freezes the root (pool of 2 has 1 free)
        rng = np.random.default_rng(4)
        for k in range(40):
            y = int(rng.integers(0, 2))
            x = rng.uniform(0.1, 1) if y else rng.uniform(-1, -0.1)
            tree.train_one(Sample([float(x), 0.0], y))
        assert tree.frozen_leaf_count == 1
        assert tree.leaf_count == 1
        # counts keep accumulating: flood with class 1
        for _ in range(100):
            tree.train_one(Sample([0.5, 0.0], 1))
        assert tree.predict(Sample([0.0, 0.0], 0)) == 1
        check_structure(tree)


class TestPredict:
    def test_untrained_default(self):
        tree = new_tree(TWO_NUM)
        assert tree.predict(Sample([0.0, 0.0], 0)) == 0

    def test_majority(self):
        tree = new_tree(TWO_NUM)
        for k in range(10):
            tree.train_one(Sample([0.1, 0.1], 1 if k != 0 else 0))
        assert tree.predict(Sample([0.9, -0.9], 0)) == 1

    def test_constant_label_stream(self):
        tree = new_tree(TWO_NUM)
        rng = np.random.default_rng(5)
        for _ in range(3000):
            tree.train_one(Sample([float(rng.uniform(-1, 1)),
                                   float(rng.uniform(-1, 1))], 1))
        for _ in range(50):
            s = Sample([float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))], 0)
            assert tree.predict(s) == 1

    def test_incremental_majority_matches_argmax(self):
        tree = new_tree(TWO_NUM)
        rng = np.random.default_rng(6)
        for _ in range(500):
            tree.train_one(Sample([float(rng.uniform(-1, 1)), 0.0],
                                  int(rng.integers(0, 2))))
        leaf = tree.root
        if isinstance(leaf, LeafNode) and not leaf.frozen:
            el = leaf.element
            assert leaf.cached_majority == int(np.argmax(el.n_fj))


class TestSnapshot:
    def test_round_trip_untrained(self):
        tree = new_tree(TWO_NUM)
        clone = restore(tree.snapshot())
        for s in separable_stream(100, seed=8):
            assert clone.predict(s) == tree.predict(s)

    def test_round_trip_trained(self):
        tree = new_tree(TWO_NUM)
        tree.train(separable_stream(10_000, seed=7))
        clone = restore(tree.snapshot())
        for s in separable_stream(1000, seed=11):
            assert clone.predict(s) == tree.predict(s)

    def test_round_trip_is_bit_identical(self):
        tree = new_tree(TWO_NUM)
        tree.train(separable_stream(5000, seed=7))
        payload = tree.snapshot()
        assert restore(payload).snapshot() == payload

    def test_restored_tree_keeps_training_identically(self):
        t1 = new_tree(TWO_NUM)
        head = list(separable_stream(4000, seed=13))
        tail = list(separable_stream(4000, seed=14))
        t1.train(head)
        t2 = restore(t1.snapshot())
        t1.train(tail)
        t2.train(tail)
        assert t1.snapshot() == t2.snapshot()

    def test_truncated_payload(self):
        tree = new_tree(TWO_NUM)
        payload = tree.snapshot()
        with pytest.raises(SnapshotError):
            restore(payload[: len(payload) // 2])

    def test_version_mismatch(self):
        import json
        tree = new_tree(TWO_NUM)
        doc = json.loads(tree.snapshot())
        doc["version"] = 99
        with pytest.raises(SnapshotError, match="version"):
            restore(json.dumps(doc).encode())

    def test_not_a_snapshot(self):
        with pytest.raises(SnapshotError):
            restore(b'{"hello": "world"}')

    def test_gaussian_and_fixed_round_trip(self):
        for cfg in (TreeConfig(method="gaussian"),
                    TreeConfig(numeric_backend="fixed")):
            tree = new_tree(TWO_NUM, cfg)
            tree.train(separable_stream(3000, seed=15))
            clone = restore(tree.snapshot())
            assert clone.snapshot() == tree.snapshot()

    def test_categorical_round_trip(self):
        tree = new_tree(synth.preset_schema("categorical"))
        tree.train(synth.generate("categorical", 5000, seed=1))
        clone = restore(tree.snapshot())
        for s in synth.generate("categorical", 500, seed=2):
            assert clone.predict(s) == tree.predict(s)


def leaf_docs(node):
    if node["kind"] == "internal":
        return leaf_docs(node["left"]) + leaf_docs(node["right"])
    return [node]


class TestSnapshotValidation:
    """restore rejects snapshots whose pool or counters contradict the tree."""

    def doc(self):
        # small caps so the snapshot has frozen leaves and free elements
        tree = new_tree(TWO_NUM, TreeConfig(max_leaves=16, max_depth=3))
        tree.train(synth.generate("xor", 10_000, seed=3))
        doc = json.loads(tree.snapshot())
        assert doc["counters"]["frozen_leaves"] > 0 and doc["free_list"]
        assert len(self.live_leaves(doc)) >= 2
        return doc

    def live_leaves(self, doc):
        return [leaf for leaf in leaf_docs(doc["tree"]) if "element" in leaf]

    def rejects(self, doc, match):
        with pytest.raises(SnapshotError, match=match):
            restore(json.dumps(doc).encode())

    def test_valid_doc_restores(self):
        doc = self.doc()
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
        assert restore(payload).snapshot() == payload

    def test_negative_element(self):
        doc = self.doc()
        self.live_leaves(doc)[0]["element"] = -1
        self.rejects(doc, "partition")

    def test_element_past_capacity(self):
        doc = self.doc()
        self.live_leaves(doc)[0]["element"] = doc["config"]["max_leaves"]
        self.rejects(doc, "corrupt")

    def test_duplicated_element(self):
        doc = self.doc()
        a, b = self.live_leaves(doc)[:2]
        b["element"] = a["element"]
        self.rejects(doc, "partition")

    def test_live_element_in_free_list(self):
        doc = self.doc()
        doc["free_list"].append(self.live_leaves(doc)[0]["element"])
        self.rejects(doc, "partition")

    def test_free_list_missing_an_element(self):
        doc = self.doc()
        doc["free_list"].pop()
        self.rejects(doc, "partition the pool")

    def test_free_list_duplicate(self):
        doc = self.doc()
        doc["free_list"][-1] = doc["free_list"][0]
        self.rejects(doc, "partition the pool")

    def test_leaf_counter_disagrees(self):
        doc = self.doc()
        doc["counters"]["leaves"] = 99
        self.rejects(doc, "counters say 99 leaves")

    def test_frozen_counter_disagrees(self):
        doc = self.doc()
        doc["counters"]["frozen_leaves"] += 1
        self.rejects(doc, "counters say")

    def test_statistics_for_a_free_element(self):
        doc = self.doc()
        live = str(self.live_leaves(doc)[0]["element"])
        doc["elements"][str(doc["free_list"][0])] = doc["elements"][live]
        self.rejects(doc, "element statistics")

    def frozen_leaves(self, doc):
        return [leaf for leaf in leaf_docs(doc["tree"]) if "frozen_counts" in leaf]

    def split_leaf(self, doc):
        """A live leaf whose two class counts differ, with its counts."""
        for leaf in self.live_leaves(doc):
            counts = doc["elements"][str(leaf["element"])]["n_fj"]
            if counts[0] != counts[1]:
                return leaf, counts
        raise AssertionError("no live leaf with unequal class counts")

    def test_leaf_depth_not_its_position(self):
        doc = self.doc()
        leaf = self.live_leaves(doc)[0]
        leaf["depth"] += 1
        self.rejects(doc, "says depth")

    def test_tree_deeper_than_max_depth(self):
        doc = self.doc()
        doc["config"]["max_depth"] = 1  # the tree reaches depth 3
        self.rejects(doc, "max_depth is 1")

    def test_majority_not_a_class(self):
        for bad in (7, 2, -1, 0.5, "0"):
            doc = self.doc()
            self.live_leaves(doc)[0]["majority"] = bad
            self.rejects(doc, "majority is not a class")

    def test_frozen_counts_malformed(self):
        for bad in ([1, 2, 3], [5], [3, -1]):
            doc = self.doc()
            self.frozen_leaves(doc)[0]["frozen_counts"] = bad
            self.rejects(doc, "frozen_counts must be 2 non-negative counts")

    def test_majority_count_not_the_largest_count(self):
        doc = self.doc()
        self.live_leaves(doc)[0]["majority_count"] += 1
        self.rejects(doc, "majority_count is not its largest class count")
        doc = self.doc()
        self.frozen_leaves(doc)[0]["majority_count"] += 1
        self.rejects(doc, "majority_count is not its largest class count")
        doc = self.doc()
        leaf = self.live_leaves(doc)[0]
        leaf["majority_count"] = float(leaf["majority_count"])
        self.rejects(doc, "majority_count is not its largest class count")

    def test_majority_not_the_lowest_top_class(self):
        doc = self.doc()
        leaf, counts = self.split_leaf(doc)
        leaf["majority"] = int(np.argmin(counts))
        self.rejects(doc, "not the lowest class with the largest count")

    def test_element_total_disagrees_with_class_counts(self):
        doc = self.doc()
        doc["elements"][str(self.live_leaves(doc)[0]["element"])]["n_f"] += 1
        self.rejects(doc, "n_f is not the sum of its class counts")

    def test_tied_counts_restore_with_the_lower_class(self):
        tree = new_tree(TWO_NUM)
        tree.train([Sample([0.1, 0.2], 1), Sample([0.3, 0.4], 0)])
        doc = json.loads(tree.snapshot())
        assert doc["tree"]["majority"] == 0
        assert restore(tree.snapshot()).predict(Sample([0.0, 0.0], 1)) == 0
        doc["tree"]["majority"] = 1
        self.rejects(doc, "not the lowest class")

    def test_deeply_nested_payload(self):
        doc = json.loads(new_tree(TWO_NUM).snapshot())
        leaf = json.dumps(doc["tree"])
        doc["tree"] = "TREE"
        node = ('{"kind":"internal","attribute":0,"threshold":0.0,"categorical":false,'
                f'"right":{leaf},"left":')
        nested = node * 5000 + leaf + "}" * 5000
        payload = json.dumps(doc).replace('"TREE"', nested).encode()
        with pytest.raises(SnapshotError, match="not valid JSON"):
            restore(payload)


class TestNonFiniteInput:
    """train_one rejects a NaN or an infinity before touching any state."""

    def test_nan_rejected_and_tree_unchanged(self):
        schema = synth.preset_schema("threshold")
        head = list(synth.generate("threshold", 150, seed=1))
        tail = list(synth.generate("threshold", 3000, seed=2))
        clean = new_tree(schema)
        clean.train(head + tail)
        tree = new_tree(schema)
        tree.train(head)
        with pytest.raises(ValueError, match="attribute 0 .* is not finite: nan"):
            tree.train_one(Sample([float("nan"), 0.0], 0))
        tree.train(tail)
        assert tree.train_count == clean.train_count
        assert tree.snapshot() == clean.snapshot()
        assert tree.split_log[0].attribute == 0

    def test_infinity_named(self):
        tree = new_tree(TWO_NUM)
        with pytest.raises(ValueError, match="attribute 1 \\('a1'\\) is not finite: -inf"):
            tree.train_one(Sample([0.5, float("-inf")], 1))
        assert tree.train_count == 0
        assert tree.root.element.n_f == 0

    def test_finite_values_whose_sum_overflows_are_accepted(self):
        tree = new_tree(TWO_NUM)
        tree.train_one(Sample([1e308, 1e308], 1))
        assert tree.train_count == 1
        assert tree.root.element.n_f == 1


class TestXor:
    def test_two_level_structure_solves_xor(self):
        tree = new_tree(TWO_NUM, TreeConfig(n_min=200))
        tree.train(synth.generate("xor", 60_000, seed=3))
        hits = sum(tree.predict(s) == s.label
                   for s in synth.generate("xor", 5000, seed=4))
        assert hits / 5000 > 0.9
        assert tree.depth >= 2
        check_structure(tree)
