"""Tree induction: routing, pool accounting, freezing, and snapshots."""

import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from streamtree import fixed_point as fx
from streamtree import synth
from streamtree import tree as tree_module
from streamtree.leaf_stats import StatsPool
from streamtree.schema import AttributeSpec, DatasetSchema, Sample, open_stream
from streamtree.tree import (
    HoeffdingTree,
    InternalNode,
    LeafNode,
    SnapshotError,
    TreeConfig,
    new_tree,
    restore,
)
from tree_oracle import check_tree

TWO_NUM = DatasetSchema(
    (
        AttributeSpec("a0", "numeric", declared_min=-1.0, declared_max=1.0),
        AttributeSpec("a1", "numeric", declared_min=-1.0, declared_max=1.0),
    ),
    2,
)


class TestNewTree:
    def test_default_shape(self):
        tree = new_tree(TWO_NUM)
        assert tree.leaf_count == 1
        assert tree.depth == 0
        assert len(tree.stats.free_list) == 1023
        check_tree(tree)

    def test_small_pool(self):
        tree = new_tree(TWO_NUM, TreeConfig(max_leaves=2))
        assert tree.stats.capacity == 2
        assert tree.stats.free_list == [1]

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
        for field in ("delta", "tau", "lam", "r_range"):
            for huge in (10**400, -10**400):  # past float64: math.isfinite overflows
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    TreeConfig(**{field: huge})

    @pytest.mark.parametrize("field", ["delta", "tau", "lam", "r_range"])
    def test_non_finite_real_rejected(self, field):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                TreeConfig(**{field: bad})

    @pytest.mark.parametrize("field, bad", [
        ("n_min", 2.5), ("n_min", True), ("split_points", 2.5), ("max_depth", 2.5),
        ("max_leaves", 10.5), ("quantile_count", 8.0), ("max_leaves", np.int64(16)),
        ("max_depth", "3"),
    ])
    def test_count_not_an_int_rejected(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an int"):
            TreeConfig(**{field: bad})

    @pytest.mark.parametrize("field", ["delta", "tau", "lam", "r_range"])
    def test_real_that_is_a_bool_or_not_a_number_rejected(self, field):
        for bad in (True, False, "0.5", None):
            with pytest.raises(ValueError, match=f"{field} must be a real number"):
                TreeConfig(**{field: bad})


class TestValidate:
    def test_fresh_and_trained_trees_pass(self):
        tree = new_tree(TWO_NUM)
        tree.validate()
        tree.train(separable_stream(5000, seed=7))
        assert tree.split_count > 0
        tree.validate()

    @pytest.mark.parametrize("counter, match", [("leaf_count", "counters say 3 leaves"),
                                                ("split_count", "counters say 3 splits"),
                                                ("depth", "depth counter says 3")])
    def test_bumped_counter_raises(self, counter, match):
        tree = new_tree(TWO_NUM, TreeConfig(max_leaves=4, max_depth=1))
        tree.train(separable_stream(5000, seed=7))
        assert tree.leaf_count == 2
        setattr(tree, counter, 3)
        with pytest.raises(ValueError, match=match):
            tree.validate()

    def test_broken_parent_link_raises(self):
        tree = new_tree(synth.preset_schema("bimodal"), TreeConfig(n_min=50, tau=0.5))
        tree.train(synth.generate("bimodal", 3000, seed=3))
        inner = next(c for c in (tree.root.left, tree.root.right)
                     if isinstance(c, InternalNode))
        for node, wrong, match in ((inner.right, tree.root, "has another parent"),
                                   (inner, None, "has another parent"),
                                   (tree.root, inner, "the root has a parent")):
            right = node.parent
            node.parent = wrong
            with pytest.raises(ValueError, match=match):
                tree.validate()
            node.parent = right
            tree.validate()

    def test_deep_splits_keep_the_tree_valid(self):
        # a split puts its internal node in the leaf's slot of the leaf's parent
        tree = new_tree(synth.preset_schema("bimodal"), TreeConfig(n_min=50, tau=0.5))
        deep = 0
        for s in synth.generate("bimodal", 20000, seed=3):
            leaf = tree.sort_to_leaf(s)
            parent = leaf.parent
            side = "left" if parent is not None and parent.left is leaf else "right"
            event = tree.train_one(s)
            if event is None or event.kind != "split" or event.depth < 8:
                continue
            deep += 1
            internal = getattr(parent, side)
            assert isinstance(internal, InternalNode) and internal.parent is parent
            tree.validate()
        assert deep >= 10 and tree.leaf_count > 200
        check_tree(tree)


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
        check_tree(tree)

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
        assert tree.stats.allocated_count == tree.leaf_count - tree.frozen_leaf_count
        check_tree(tree)

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
        check_tree(tree)

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
        check_tree(tree)

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
        check_tree(tree)


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
            assert leaf.cached_majority == int(np.argmax(tree.stats.n_fj[leaf.eid]))


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
        check_tree(clone)
        assert clone.depth == tree.depth > 0
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

    @pytest.mark.parametrize("cfg", [TreeConfig(), TreeConfig(numeric_backend="fixed"),
                                     TreeConfig(method="gaussian")],
                             ids=["quantile-float", "quantile-fixed", "gaussian"])
    def test_round_trip_without_numeric_attributes(self, cfg):
        # the numeric statistics are empty arrays, written as []
        schema = DatasetSchema((AttributeSpec("c0", "categorical", cardinality=2),
                                AttributeSpec("c1", "categorical", cardinality=3)), 2)
        tree = new_tree(schema, cfg)
        tree.train(Sample([k % 2, k % 3], int(k % 3 == 0)) for k in range(1000))
        assert tree.split_count > 0
        assert restore(tree.snapshot()).snapshot() == tree.snapshot()


def leaf_docs(node):
    if node["kind"] == "internal":
        return leaf_docs(node["left"]) + leaf_docs(node["right"])
    return [node]


def internal_docs(node):
    if node["kind"] == "internal":
        return [node, *internal_docs(node["left"]), *internal_docs(node["right"])]
    return []


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
        self.rejects(doc, "element statistics do not match the leaves' elements")

    def test_statistics_moved_onto_a_free_element(self):
        # the right number of statistics, under a free id; the root's
        # element holds no sample, so it passes validate() as a fresh one
        doc = json.loads(new_tree(TWO_NUM).snapshot())
        doc["elements"] = {"1": doc["elements"]["0"]}
        self.rejects(doc, "element statistics do not match the leaves' elements")

    def test_element_statistics_not_an_object(self):
        doc = self.doc()
        doc["elements"] = list(doc["elements"].values())
        self.rejects(doc, "elements is not an object")

    def test_pool_size_refused_before_the_pool_is_built(self, monkeypatch):
        # a 9 KB payload asking for a 2,000,000-element pool
        doc = json.loads(new_tree(synth.preset_schema("bimodal")).snapshot())
        doc["config"]["max_leaves"] = 2_000_000

        class Unbuilt(StatsPool):
            def __init__(self, *args):
                raise AssertionError("restore built a pool before checking its size")

        monkeypatch.setattr(tree_module, "StatsPool", Unbuilt)
        self.rejects(doc, r"generations has shape \(1024,\), expected \(2000000,\)")

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

    @pytest.mark.parametrize("counter, bad, match", [
        ("splits", 999, "counters say 999 splits"),
        ("freezes", 0, "0 freezes"),
        ("trials", 0, "counters say 0 trials"),
        ("trained", -5, "must be >= 0"),
        ("saturations", -1, "must be >= 0"),
    ])
    def test_counter_contradicts_the_tree(self, counter, bad, match):
        doc = self.doc()
        doc["counters"][counter] = bad
        self.rejects(doc, match)

    def freeze(self, doc, leaf):
        """Freeze a live leaf as the tree would, freeing its element."""
        e = leaf.pop("element")
        leaf["frozen_counts"] = doc["elements"].pop(str(e))["n_fj"]
        doc["free_list"].append(e)
        for counter in ("frozen_leaves", "freezes", "trials"):
            doc["counters"][counter] += 1

    def test_more_leaves_than_max_leaves(self):
        doc = self.doc()
        for leaf in self.live_leaves(doc):
            self.freeze(doc, leaf)
        restore(json.dumps(doc).encode())
        # every leaf frozen, so a four-element pool is all free
        doc["config"]["max_leaves"] = 4
        doc["free_list"] = [3, 2, 1, 0]
        doc["generations"] = doc["generations"][:4]
        assert doc["counters"]["leaves"] == 8
        self.rejects(doc, "the tree has 8 leaves, max_leaves is 4")

    @pytest.mark.parametrize("bad", [1.0, "1", True])
    def test_leaf_element_not_an_int(self, bad):
        doc = self.doc()
        leaf = next(leaf for leaf in self.live_leaves(doc) if leaf["element"] == 1)
        leaf["element"] = bad
        self.rejects(doc, "element id .* is not an int")

    @pytest.mark.parametrize("bad", [1.0, "1", True])
    def test_free_list_entry_not_an_int(self, bad):
        doc = self.doc()
        leaf = next(leaf for leaf in self.live_leaves(doc) if leaf["element"] == 1)
        self.freeze(doc, leaf)
        restore(json.dumps(doc).encode())
        assert doc["free_list"][-1] == 1
        doc["free_list"][-1] = bad
        self.rejects(doc, "element id .* is not an int")

    # a non-int in an int64 array: off by half, integral but a float, a bool
    SPOILS = pytest.mark.parametrize("spoil", [lambda v: v + 0.5, float, bool],
                                     ids=["half", "float", "bool"])

    def element(self, doc):
        return doc["elements"][str(self.live_leaves(doc)[0]["element"])]

    def fixed_categorical_doc(self):
        """A fixed-backend payload over a categorical attribute: its
        trackers (`qraw`) and `hists` are int arrays."""
        tree = new_tree(synth.preset_schema("categorical"),
                        TreeConfig(numeric_backend="fixed"))
        tree.train(synth.generate("categorical", 2000, seed=3))
        return json.loads(tree.snapshot())

    @SPOILS
    def test_generation_not_an_int(self, spoil):
        doc = self.doc()
        doc["generations"][0] = spoil(doc["generations"][0])
        self.rejects(doc, "generations holds a value that is not an int")

    @SPOILS
    def test_frozen_count_not_an_int(self, spoil):
        doc = self.doc()
        counts = self.frozen_leaves(doc)[0]["frozen_counts"]
        counts[0] = spoil(counts[0])
        self.rejects(doc, "frozen_counts holds a value that is not an int")

    @SPOILS
    def test_element_total_not_an_int(self, spoil):
        doc = self.doc()
        el = self.element(doc)
        el["n_f"] = spoil(el["n_f"])
        self.rejects(doc, "n_f holds a value that is not an int")

    @SPOILS
    def test_class_count_not_an_int(self, spoil):
        doc = self.doc()
        counts = self.element(doc)["n_fj"]
        counts[0] = spoil(counts[0])
        self.rejects(doc, "n_fj holds a value that is not an int")

    @SPOILS
    def test_histogram_count_not_an_int(self, spoil):
        doc = self.fixed_categorical_doc()
        hist = self.element(doc)["hists"][0]
        hist[0][0] = spoil(hist[0][0])
        self.rejects(doc, "hists holds a value that is not an int")

    @SPOILS
    def test_fixed_tracker_not_an_int(self, spoil):
        doc = self.fixed_categorical_doc()
        trackers = self.element(doc)["qraw"]
        trackers[0][0][0] = spoil(trackers[0][0][0])
        self.rejects(doc, "qraw holds a value that is not an int")

    @pytest.mark.parametrize("key", ["qvals", "g_mean", "g_vsum"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_statistic_not_finite(self, key, bad):
        if key == "qvals":
            doc = self.doc()
        else:
            tree = new_tree(TWO_NUM, TreeConfig(method="gaussian"))
            tree.train(synth.generate("xor", 2000, seed=3))
            doc = json.loads(tree.snapshot())
        values = self.element(doc)[key]
        while isinstance(values[0], list):
            values = values[0]
        values[0] = bad
        self.rejects(doc, "tracker or gaussian statistics are not finite")

    @pytest.mark.parametrize("lo, hi", [(math.nan, 0.5), (-math.inf, 0.5), (0.2, math.inf),
                                        (0.6, 0.5)])
    def test_range_of_an_element_with_samples(self, lo, hi):
        doc = self.doc()
        el = self.element(doc)
        assert el["n_f"] > 0
        el["min_a"][0], el["max_a"][0] = lo, hi
        self.rejects(doc, "finite with min_a <= max_a after it")

    @pytest.mark.parametrize("lo, hi", [(0.5, -math.inf), (math.inf, 0.5),
                                        (math.nan, -math.inf), (math.inf, math.inf)])
    def test_range_of_an_element_without_samples(self, lo, hi):
        doc = json.loads(new_tree(TWO_NUM).snapshot())
        el = doc["elements"]["0"]
        assert el["n_f"] == 0
        el["min_a"][0], el["max_a"][0] = lo, hi
        self.rejects(doc, "not \\(inf, -inf\\) before its first sample")

    def test_negative_class_count(self):
        doc = self.doc()
        leaf = self.live_leaves(doc)[0]
        el = doc["elements"][str(leaf["element"])]
        # keep n_f and the leaf's majority in step, so only the sign is wrong
        el["n_fj"] = [-1, el["n_f"] + 1]
        leaf["majority"], leaf["majority_count"] = 1, el["n_f"] + 1
        self.rejects(doc, "class or categorical count is negative")

    def test_negative_histogram_count(self):
        doc = self.fixed_categorical_doc()
        el = self.element(doc)
        code = el["hists"][0][0]
        # the attribute's counts still sum to n_fj
        code[:] = [code[0] - 500, code[1] + 500]
        self.rejects(doc, "class or categorical count is negative")

    def test_histogram_disagrees_with_class_counts(self):
        doc = self.fixed_categorical_doc()
        self.element(doc)["hists"][0][0][1] += 1
        self.rejects(doc, "summed over an attribute's codes, are not its class counts")

    @pytest.mark.parametrize("key, value", [("qvals", 0.25), ("min_a", [-0.9]),
                                            ("n_fj", [[3, 4]])])
    def test_statistic_of_the_wrong_shape(self, key, value):
        # numpy would broadcast each of these into the slot
        doc = self.doc()
        self.element(doc)[key] = value
        self.rejects(doc, f"{key} has shape")

    def test_histogram_of_the_wrong_shape(self):
        doc = self.fixed_categorical_doc()
        hists = self.element(doc)["hists"]
        hists[0] = hists[0][0]  # one code's (|C|,) counts for the whole table
        self.rejects(doc, "hists has shape")

    def test_histogram_for_too_few_attributes(self):
        doc = self.fixed_categorical_doc()
        self.element(doc)["hists"] = []
        self.rejects(doc, "shorter")

    def test_count_too_large_for_int64(self):
        doc = self.doc()
        self.element(doc)["n_fj"][0] = 2 ** 70
        self.rejects(doc, "corrupt")

    def split_on(self, doc, categorical):
        """The first internal node whose test is (not) categorical."""
        return next(n for n in internal_docs(doc["tree"]) if n["categorical"] is categorical)

    @pytest.mark.parametrize("bad", [99, 2, -1, "x", True, 0.0, None])
    def test_internal_attribute_not_in_the_schema(self, bad):
        doc = self.doc()
        doc["tree"]["attribute"] = bad
        self.rejects(doc, "tests attribute .*, not an int in 0..1")

    @pytest.mark.parametrize("bad", ["yes", True, 0, None])
    def test_numeric_split_not_flagged_numeric(self, bad):
        doc = self.doc()
        doc["tree"]["categorical"] = bad
        self.rejects(doc, "says categorical is .*, attribute 0 is numeric")

    @pytest.mark.parametrize("bad", ["abc", None, True, math.nan, math.inf, [0.5]])
    def test_numeric_threshold_not_a_finite_number(self, bad):
        doc = self.doc()
        doc["tree"]["threshold"] = bad
        self.rejects(doc, "tests threshold .*, not a finite float or int")

    def test_categorical_split_flagged_numeric(self):
        doc = self.fixed_categorical_doc()
        self.split_on(doc, True)["categorical"] = False
        self.rejects(doc, "says categorical is False, attribute .* is categorical")

    @pytest.mark.parametrize("bad", [-1, 99, 0.0, True, "0", None])
    def test_categorical_code_not_in_range(self, bad):
        doc = self.fixed_categorical_doc()
        self.split_on(doc, True)["threshold"] = bad
        self.rejects(doc, "tests code .*, not an int in")

    @pytest.mark.parametrize("bad", [[7], 3, [], [[0] * 16]])
    def test_generations_of_the_wrong_shape(self, bad):
        # numpy would broadcast [7], 3 and [[0] * 16] over every element
        doc = self.doc()
        doc["generations"] = bad
        self.rejects(doc, "generations has shape")

    @pytest.mark.parametrize("field, bad", [("n_min", 2.5), ("max_depth", True),
                                            ("lam", True)])
    def test_config_field_of_the_wrong_type(self, field, bad):
        doc = self.doc()
        doc["config"][field] = bad
        self.rejects(doc, f"{field} must be")

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
        assert tree.stats.n_f[tree.root.eid] == 0

    def test_finite_values_whose_sum_overflows_are_accepted(self):
        tree = new_tree(TWO_NUM)
        tree.train_one(Sample([1e308, 1e308], 1))
        assert tree.train_count == 1
        assert tree.stats.n_f[tree.root.eid] == 1
        assert tree.predict(Sample([1e308, 1e308], 0)) == 1
        assert tree.step(Sample([1e308, 1e308], 0)) == 1

    def test_predict_and_step_reject_nan(self):
        # without the check a NaN fails every `<=` and lands right
        tree = new_tree(synth.preset_schema("threshold"))
        tree.train(synth.generate("threshold", 3000, seed=2))
        before = tree.snapshot()
        bad = Sample([float("nan"), 0.0], 0)
        with pytest.raises(ValueError, match="attribute 0 .* is not finite: nan"):
            tree.predict(bad)
        with pytest.raises(ValueError, match="attribute 0 .* is not finite: nan"):
            tree.step(bad)
        assert tree.snapshot() == before

    @pytest.mark.parametrize("values, attr", [([10**400, 0.5], 0), ([0.5, -10**5000], 1)],
                             ids=["400-digits", "past-the-int-print-limit"])
    def test_int_too_large_for_a_float_rejected(self, values, attr):
        # it used to escape `sum` as OverflowError
        tree = new_tree(synth.preset_schema("threshold"))
        tree.train(synth.generate("threshold", 50, seed=1))
        before = tree.snapshot()
        bad = Sample(values, 0)
        for call in (tree.train_one, tree.step, tree.predict):
            with pytest.raises(ValueError,
                               match=f"attribute {attr} .* is an int too large for a float"):
                call(bad)
        assert tree.snapshot() == before
        assert tree.train_count == 50

    def test_large_ints_whose_sum_overflows_are_accepted(self):
        tree = new_tree(TWO_NUM)
        tree.train_one(Sample([10**308, 10**308], 1))
        assert tree.train_count == 1
        assert tree.predict(Sample([10**308, 10**308], 0)) == 1


class TestHandBuiltValues:
    """A hand-built row must have one value per attribute and a real
    number, not a bool, in each numeric slot, before the tree changes."""

    @pytest.mark.parametrize("values, message", [
        ([0.5], "row length 1 is not the schema's 2 attributes"),
        ([0.5, 0.1, 0.2], "row length 3 is not the schema's 2 attributes"),
        (["a", 0.1], "attribute 0 \\('a0'\\) is not a real number: 'a'"),
        ([0.1, None], "attribute 1 \\('a1'\\) is not a real number: None"),
        ([[0.1], 0.1], "attribute 0 \\('a0'\\) is not a real number: \\[0.1\\]"),
        ([0.1, True], "attribute 1 \\('a1'\\) is not a real number: True"),
        ([np.bool_(False), 0.1], "attribute 0 \\('a0'\\) is not a real number: "),
    ], ids=["short", "long", "str", "none", "list", "bool", "numpy-bool"])
    def test_rejected_and_tree_unchanged(self, values, message):
        tree = new_tree(synth.preset_schema("threshold"))
        tree.train(synth.generate("threshold", 50, seed=1))
        before = tree.snapshot()
        bad = Sample(values, 0)
        for call in (tree.train_one, tree.step, tree.predict):
            with pytest.raises(ValueError, match=message):
                call(bad)
        assert tree.snapshot() == before
        assert tree.train_count == 50
        tree.validate()

    def test_other_real_numbers_learn_as_floats(self):
        schema = synth.preset_schema("threshold")
        reals, floats = new_tree(schema), new_tree(schema)
        for k in range(60):
            x = [np.float32(0.25 * (k % 3)), Fraction(k % 5, 4)]
            reals.train_one(Sample(x, k % 2))
            floats.train_one(Sample([float(v) for v in x], k % 2))
        assert reals.snapshot() == floats.snapshot()


class TestParsedRows:
    """A parsed row is finite by construction and skips the per-value
    checks; once its list changes it is checked like a hand-built row."""

    def test_changed_row_holding_nan_rejected_and_tree_unchanged(self, tmp_path):
        path = str(tmp_path / "s.csv")
        schema = synth.write_csv(path, "threshold", 300, seed=1)
        samples = list(open_stream(path, schema))
        tree = new_tree(schema, TreeConfig(n_min=50))
        tree.train(samples[:200])
        before = tree.snapshot()
        bad = samples[200]
        bad.values[1] = float("nan")
        assert bad.values.numeric is None
        for call in (tree.train_one, tree.step, tree.predict):
            with pytest.raises(ValueError, match="attribute 1 .* is not finite: nan"):
                call(bad)
        assert tree.snapshot() == before
        tree.train(samples[201:])
        assert tree.train_count == 299


class TestCodeOutOfRange:
    """A categorical code outside its attribute's cardinality would count
    in a neighbouring attribute's rows of `hist`; it is rejected first."""

    SCHEMA = DatasetSchema((AttributeSpec("c0", "categorical", cardinality=2),
                            AttributeSpec("c1", "categorical", cardinality=3)), 2)

    @pytest.mark.parametrize("values, message", [
        ([2, 0], "attribute 0 \\('c0'\\) has code 2, outside 0..1"),
        ([0, -1], "attribute 1 \\('c1'\\) has code -1, outside 0..2"),
        ([1.0, 0], "attribute 0 \\('c0'\\) has code 1.0, not an int in 0..1"),
        # its repr would raise Python's own int-printing ValueError
        ([0, 10**5000], "attribute 1 \\('c1'\\) has a 16610-bit code, outside 0..2"),
        ([-(2**64), 0], "attribute 0 \\('c0'\\) has a 65-bit code, outside 0..1"),
    ])
    def test_rejected_and_tree_unchanged(self, values, message):
        tree = new_tree(self.SCHEMA)
        tree.train(Sample([k % 2, k % 3], k % 2) for k in range(50))
        before = tree.snapshot()
        bad = Sample(values, 0)
        for call in (tree.train_one, tree.step, tree.predict):
            with pytest.raises(ValueError, match=message):
                call(bad)
        assert tree.snapshot() == before


class TestLabelOutOfRange:
    """A label must be an int class before the tree changes; -1 used to
    count as the last class and |C| raised IndexError after `n_f` moved."""

    @pytest.mark.parametrize("label", [-1, 2, 1.0, True, np.int64(1)],
                             ids=["minus-1", "class-count", "float", "bool", "numpy-int"])
    def test_rejected_and_tree_unchanged(self, label):
        tree = new_tree(TWO_NUM)
        tree.train(synth.generate("threshold", 50, seed=1))
        before = tree.snapshot()
        bad = Sample([0.5, -0.5], label)
        for call in (tree.train_one, tree.step, tree.predict):
            with pytest.raises(ValueError, match=re.escape(f"label {label!r} is not an int in 0..1")):
                call(bad)
        assert tree.snapshot() == before
        assert tree.train_count == 50


class TestFixedSaturation:
    def test_huge_value_seeds_trackers_at_the_top_edge(self):
        tree = new_tree(TWO_NUM, TreeConfig(numeric_backend="fixed"))
        tree.train_one(Sample([1e10, 0.5], 0))
        q = tree.stats.trackers[tree.root.eid, 0, :, 0]
        assert (q == fx.RAW_MAX).all()
        assert tree.stats.saturation_count == 1

    def test_huge_gain_saturates_instead_of_raising(self):
        tree = new_tree(TWO_NUM, TreeConfig(lam=1e300, numeric_backend="fixed"))
        assert (tree.stats.step_up <= fx.RAW_MAX).all()
        tree.train(Sample([0.1 * k, -0.1], k % 2) for k in range(10))
        assert tree.train_count == 10


class TestXor:
    def test_two_level_structure_solves_xor(self):
        tree = new_tree(TWO_NUM, TreeConfig(n_min=200))
        tree.train(synth.generate("xor", 60_000, seed=3))
        hits = sum(tree.predict(s) == s.label
                   for s in synth.generate("xor", 5000, seed=4))
        assert hits / 5000 > 0.9
        assert tree.depth >= 2
        check_tree(tree)
