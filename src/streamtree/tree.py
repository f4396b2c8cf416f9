"""Online decision-tree induction over a bounded element pool.

Leaves own "elements": slots in flat statistics pools sized up front to
max_leaves. Splitting consumes two fresh elements for the children (they
must both be free before the parent's is recycled, so a split needs two
free slots at decision time) and returns the parent's. When the pool, the
leaf budget, or the depth cap cannot accommodate a decided split, the leaf
freezes instead: it keeps a plain class-count vector for prediction but
never re-enters split trials, so the tree degrades gracefully rather than
failing.

A leaf holds its element's id, an index into the pool (`HoeffdingTree.stats`)
that owns the ids, their recycling, the element checks and its snapshot
section. Every node links to its parent, so a split replaces its leaf in
O(1). `validate` checks the invariants, parent links included; `restore` runs it.

Training is strictly stream-ordered and deterministic: the same samples in
the same order with the same config produce the identical tree, split log,
and predictions.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from numbers import Real
from typing import Iterable, Optional, Union

import numpy as np

from . import split_eval
from .leaf_stats import (
    BACKEND_FIXED,
    BACKEND_FLOAT,
    METHOD_GAUSSIAN,
    METHOD_QUANTILE,
    StatsPool,
    int_array,
)
from .schema import CATEGORICAL, DatasetSchema, Sample, parse_schema, schema_to_json

SNAPSHOT_FORMAT = "streamtree-snapshot"
SNAPSHOT_VERSION = 1


class SnapshotError(ValueError):
    """Snapshot payload is corrupt, truncated, or version-incompatible."""


@dataclass(frozen=True)
class TreeConfig:
    delta: float = 1e-3
    tau: float = 0.05
    n_min: int = 200
    split_points: int = 10
    quantile_count: int = 8
    lam: float = 0.01
    max_leaves: int = 1024
    max_depth: int = 15
    method: str = METHOD_QUANTILE
    numeric_backend: str = BACKEND_FLOAT
    r_range: float = 1.0

    def __post_init__(self):
        for name in ("n_min", "split_points", "quantile_count", "max_leaves", "max_depth"):
            if type(getattr(self, name)) is not int:  # a bool or a float is not a count
                raise ValueError(f"{name} must be an int, not {getattr(self, name)!r}")
        for name in ("delta", "tau", "lam", "r_range"):
            v = getattr(self, name)
            if type(v) is bool or not isinstance(v, Real):
                raise ValueError(f"{name} must be a real number, not {v!r}")
            if not abs(v) <= sys.float_info.max:  # NaN, infinite, or an int past float64
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.tau <= 0.0:
            raise ValueError("tau must be > 0")
        if self.n_min < 1:
            raise ValueError("n_min must be >= 1")
        if self.split_points < 1:
            raise ValueError("split_points must be >= 1")
        if self.quantile_count < 2:
            raise ValueError("quantile_count must be >= 2")
        if self.lam <= 0.0:
            raise ValueError("lam must be > 0")
        if self.max_leaves < 2:
            raise ValueError("max_leaves must be >= 2")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.method not in (METHOD_QUANTILE, METHOD_GAUSSIAN):
            raise ValueError(f"unknown method {self.method!r}")
        if self.numeric_backend not in (BACKEND_FLOAT, BACKEND_FIXED):
            raise ValueError(f"unknown backend {self.numeric_backend!r}")
        if self.method == METHOD_GAUSSIAN and self.numeric_backend == BACKEND_FIXED:
            raise ValueError("fixed backend applies to the quantile method only")
        if self.r_range <= 0.0:
            raise ValueError("r_range must be > 0")


class LeafNode:
    __slots__ = ("eid", "cached_majority", "majority_count", "depth", "frozen_counts", "parent")

    def __init__(self, eid: Optional[int], depth: int, cached_majority: int = 0):
        self.parent: Optional[InternalNode] = None
        self.eid = eid  # None once frozen
        self.depth = depth
        self.cached_majority = cached_majority
        self.majority_count = 0
        self.frozen_counts: Optional[np.ndarray] = None

    @property
    def frozen(self) -> bool:
        return self.eid is None


class InternalNode:
    __slots__ = ("attribute", "threshold", "is_categorical", "left", "right", "parent")

    def __init__(self, attribute: int, threshold, is_categorical: bool,
                 left: "Node", right: "Node"):
        self.parent: Optional[InternalNode] = None
        self.attribute = attribute
        self.threshold = threshold
        self.is_categorical = is_categorical
        self.left = left
        self.right = right
        left.parent = right.parent = self


Node = Union[LeafNode, InternalNode]


@dataclass
class SplitEvent:
    kind: str  # "split" or "freeze"
    depth: int
    n_f: int
    attribute: Optional[int]
    split_point: object
    reason: str
    epsilon: float


class HoeffdingTree:
    def __init__(self, schema: DatasetSchema, config: TreeConfig = TreeConfig()):
        self.schema = schema
        self.config = config
        self.stats = StatsPool(schema, config, config.max_leaves)
        self._code_ranges = [(i, schema.attributes[i].cardinality) for i in self.stats.cat_idx]
        self._attr_count = schema.attr_count
        self.root: Node = LeafNode(self.stats.alloc(), depth=0)
        self.leaf_count = 1
        # the deepest leaf's depth; not in snapshots, `restore` recomputes it
        self.depth = 0
        self.frozen_leaf_count = 0
        self.split_count = 0
        self.freeze_count = 0
        self.trial_count = 0
        self.train_count = 0
        self.split_log: list[SplitEvent] = []

    @property
    def pool(self) -> StatsPool:
        """Kept only because `bench/tracer.py` reads `tree.pool.allocated_count`
        (`leaf_stats.pool_allocated`); it goes once the bench reads `counters()`."""
        return self.stats

    # ------------------------------------------------------------- routing

    def sort_to_leaf(self, s: Sample) -> LeafNode:
        """The leaf s routes to; raises ValueError for a label that is not
        an int in 0..|C|-1, a row whose length is not the schema's, a
        numeric value that is a bool, not a real number, NaN, infinite or
        float-overflowing, or a categorical code that is not an int in
        0..cardinality-1, so `step`, `train_one` and `predict` all do,
        before the tree changes. A parsed row's numeric values are not
        checked again: the parser refuses NaN and clamps infinities."""
        label = s.label
        if type(label) is not int or not 0 <= label < self.schema.class_count:
            raise ValueError(f"label {label!r} is not an int in "
                             f"0..{self.schema.class_count - 1}")
        values = s.values
        if len(values) != self._attr_count:
            raise ValueError(f"the sample's row length {len(values)} is not the "
                             f"schema's {self._attr_count} attributes")
        if getattr(values, "forwarded", None) is None:  # not an intact parsed row
            self._check_numeric(values)
        for i, card in self._code_ranges:
            code = values[i]
            if type(code) is not int or not 0 <= code < card:
                if type(code) is not int:
                    what = f"code {code!r}, not an int in"
                elif code.bit_length() < 64:
                    what = f"code {code!r}, outside"
                else:  # no digits: there may be thousands
                    what = f"a {code.bit_length()}-bit code, outside"
                raise ValueError(f"attribute {i} ({self.schema.attributes[i].name!r}) "
                                 f"has {what} 0..{card - 1}")
        node = self.root
        while not isinstance(node, LeafNode):
            v = values[node.attribute]
            if node.is_categorical:
                node = node.left if v == node.threshold else node.right
            else:
                node = node.left if v <= node.threshold else node.right
        return node

    # ------------------------------------------------------------ training

    def step(self, s: Sample) -> int:
        """Predict s, then train on it: `predict(s)` followed by
        `train_one(s)`, routing s once. Returns the prediction."""
        leaf = self.sort_to_leaf(s)
        prediction = leaf.cached_majority
        self._train_leaf(leaf, s)
        return prediction

    def train_one(self, s: Sample) -> Optional[SplitEvent]:
        return self._train_leaf(self.sort_to_leaf(s), s)

    def _train_leaf(self, leaf: LeafNode, s: Sample) -> Optional[SplitEvent]:
        """Fold s, already routed to leaf, into the leaf's statistics and run
        the leaf's split trial when one is due."""
        self.train_count += 1
        label = s.label
        e = leaf.eid
        if e is None:
            counts = leaf.frozen_counts
            counts[label] += 1
            c = counts.item(label)
        else:
            n, c = self.stats.observe(e, s.values, label)
        if (c > leaf.majority_count
                or (c == leaf.majority_count and label < leaf.cached_majority)):
            leaf.cached_majority = label
            leaf.majority_count = c
        if e is not None and n % self.config.n_min == 0:
            self.trial_count += 1
            decision = split_eval.evaluate_split_trial(self.stats, e, self.config)
            if decision.taken:
                return self.apply_split(leaf, decision)
        return None

    def _check_numeric(self, values) -> None:
        """Raise naming the first numeric value that is a bool, not a real
        number, not finite, or an int too large for a float."""
        for i in self.stats.numeric_idx:
            v = values[i]
            if type(v) is not float and (type(v) is bool or not isinstance(v, Real)):
                problem = f"is not a real number: {v!r}"
            else:
                try:
                    if math.isfinite(v):
                        continue
                    problem = f"is not finite: {v!r}"
                except OverflowError:  # its digits are not printed: there may be thousands
                    problem = "is an int too large for a float"
            raise ValueError(f"attribute {i} ({self.schema.attributes[i].name!r}) {problem}")

    def apply_split(self, leaf: LeafNode, decision: split_eval.SplitDecision) -> SplitEvent:
        e = leaf.eid
        n = self.stats.n_f.item(e)
        best = decision.best
        if (leaf.depth + 1 > self.config.max_depth
                or self.leaf_count + 1 > self.config.max_leaves
                or self.stats.allocated_count + 2 > self.stats.capacity):
            return self._freeze(leaf, decision)
        majority = leaf.cached_majority
        left = LeafNode(self.stats.alloc(), leaf.depth + 1, majority)
        right = LeafNode(self.stats.alloc(), leaf.depth + 1, majority)
        self.stats.release(e)
        is_cat = self.schema.attributes[best.attribute].kind == CATEGORICAL
        internal = InternalNode(best.attribute, best.split_point, is_cat, left, right)
        parent = internal.parent = leaf.parent
        if parent is None:
            self.root = internal
        elif parent.left is leaf:
            parent.left = internal
        else:
            parent.right = internal
        self.leaf_count += 1
        self.split_count += 1
        self.depth = max(self.depth, leaf.depth + 1)
        event = SplitEvent("split", leaf.depth, n, best.attribute,
                           best.split_point, decision.reason, decision.epsilon)
        self.split_log.append(event)
        return event

    def _freeze(self, leaf: LeafNode, decision: split_eval.SplitDecision) -> SplitEvent:
        e = leaf.eid
        n = self.stats.n_f.item(e)
        # the leaf's majority and majority_count already follow these counts
        leaf.frozen_counts = self.stats.n_fj[e].copy()
        self.stats.release(e)
        leaf.eid = None
        self.frozen_leaf_count += 1
        self.freeze_count += 1
        event = SplitEvent("freeze", leaf.depth, n, None, None,
                           decision.reason, decision.epsilon)
        self.split_log.append(event)
        return event

    def train(self, stream: Iterable[Sample]) -> int:
        count = 0
        for s in stream:
            self.train_one(s)
            count += 1
        return count

    # ----------------------------------------------------------- inference

    def predict(self, s: Sample) -> int:
        """The majority class of the leaf s routes to."""
        return self.sort_to_leaf(s).cached_majority

    # ------------------------------------------------------------- metrics

    def counters(self) -> dict:
        return {
            "trained": self.train_count,
            "leaves": self.leaf_count,
            "frozen_leaves": self.frozen_leaf_count,
            "splits": self.split_count,
            "freezes": self.freeze_count,
            "trials": self.trial_count,
            "depth": self.depth,
            "pool_free": self.stats.capacity - self.stats.allocated_count,
            "pool_allocated": self.stats.allocated_count,
            "saturations": self.stats.saturation_count,
        }

    def validate(self) -> None:
        """Check the tree's invariants (the caps, the internal nodes' tests,
        the counters, the pool, the class counts, the live elements'
        statistics; README "Library use" lists them) in one walk, and
        raise ValueError naming the first one broken."""
        cfg = self.config
        stats = self.stats
        C = stats.class_count
        live: list[LeafNode] = []
        frozen: list[LeafNode] = []
        deepest = 0
        if self.root.parent is not None:
            raise ValueError("the root has a parent")
        stack = [(self.root, 0)]
        while stack:
            node, depth = stack.pop()
            if isinstance(node, InternalNode):
                # a split leaf is shallower than max_depth, so its children fit
                if depth >= cfg.max_depth:
                    raise ValueError(
                        f"internal node at depth {depth}, max_depth is {cfg.max_depth}")
                self._check_test(node, depth)
                if node.left.parent is not node or node.right.parent is not node:
                    raise ValueError(f"a child of the node at depth {depth} has another parent")
                stack += [(node.right, depth + 1), (node.left, depth + 1)]
            elif node.depth != depth:
                raise ValueError(f"leaf at depth {depth} says depth {node.depth!r}")
            elif node.frozen:
                counts = node.frozen_counts
                if (not isinstance(counts, np.ndarray) or counts.shape != (C,)
                        or (counts < 0).any()):
                    raise ValueError(f"frozen_counts must be {C} non-negative counts")
                frozen.append(node)
            else:
                live.append(node)
            deepest = max(deepest, depth)

        counters = (self.train_count, self.leaf_count, self.frozen_leaf_count, self.split_count,
                    self.freeze_count, self.trial_count, self.depth, stats.saturation_count)
        if any(type(c) is not int for c in counters):
            raise ValueError(f"counters {counters!r} are not all ints")
        leaves = len(live) + len(frozen)
        if (self.leaf_count, self.frozen_leaf_count) != (leaves, len(frozen)):
            raise ValueError(f"counters say {self.leaf_count} leaves ({self.frozen_leaf_count} "
                             f"frozen), the tree has {leaves} ({len(frozen)} frozen)")
        if leaves > cfg.max_leaves:
            raise ValueError(f"the tree has {leaves} leaves, max_leaves is {cfg.max_leaves}")
        if (self.split_count, self.freeze_count) != (leaves - 1, len(frozen)):
            raise ValueError(f"counters say {self.split_count} splits, {self.freeze_count} "
                             f"freezes; the tree has {leaves} leaves, {len(frozen)} frozen")
        if self.trial_count < self.split_count + self.freeze_count:
            raise ValueError(f"counters say {self.trial_count} trials, fewer than the "
                             f"{self.split_count + self.freeze_count} splits and freezes")
        if self.train_count < 0 or stats.saturation_count < 0:
            raise ValueError("the sample and saturation counters must be >= 0")
        if self.depth != deepest:
            raise ValueError(f"depth counter says {self.depth}, the deepest leaf is {deepest}")

        stats.validate(eids := [leaf.eid for leaf in live])
        frozen_counts = np.array([leaf.frozen_counts for leaf in frozen], dtype=np.int64)
        counts = np.concatenate([stats.n_fj[eids], frozen_counts.reshape(len(frozen), C)])
        majority = np.array([leaf.cached_majority for leaf in live + frozen])
        majority_count = np.array([leaf.majority_count for leaf in live + frozen])
        if majority.dtype.kind != "i" or ((majority < 0) | (majority >= C)).any():
            raise ValueError("a leaf's majority is not a class")
        if majority_count.dtype.kind != "i" or (majority_count != counts.max(axis=1)).any():
            raise ValueError("a leaf's majority_count is not its largest class count")
        # the tree's rule: ties go to the lower class
        if ((majority_count > 0) & (majority != counts.argmax(axis=1))).any():
            raise ValueError("a leaf's majority is not the lowest class with the largest count")

    def _check_test(self, node: InternalNode, depth: int) -> None:
        """Raise ValueError unless node tests an attribute of the schema, is
        flagged categorical exactly when that attribute is, and compares
        against an int code in range (categorical) or a finite float or int
        (numeric)."""
        a, t = node.attribute, node.threshold
        if type(a) is not int or not 0 <= a < self._attr_count:
            problem = f"tests attribute {a!r}, not an int in 0..{self._attr_count - 1}"
        else:
            spec = self.schema.attributes[a]
            if node.is_categorical is not (spec.kind == CATEGORICAL):
                problem = (f"says categorical is {node.is_categorical!r}, "
                           f"attribute {a} is {spec.kind}")
            elif node.is_categorical:
                if type(t) is int and 0 <= t < spec.cardinality:
                    return
                problem = f"tests code {t!r}, not an int in 0..{spec.cardinality - 1}"
            elif type(t) in (float, int) and math.isfinite(t):  # a bool's type is not int
                return
            else:
                problem = f"tests threshold {t!r}, not a finite float or int"
        raise ValueError(f"internal node at depth {depth} {problem}")

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> bytes:
        doc = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "config": vars(self.config),
            "schema": json.loads(schema_to_json(self.schema)),
            "tree": self._node_to_doc(self.root),
            **self.stats.snapshot_doc(),
            # the depth and pool counters follow from the tree and free list
            "counters": {k: v for k, v in self.counters().items()
                         if k not in ("depth", "pool_free", "pool_allocated")},
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")

    def _node_to_doc(self, node: Node) -> dict:
        if isinstance(node, InternalNode):
            return {
                "kind": "internal",
                "attribute": node.attribute,
                "threshold": node.threshold,
                "categorical": node.is_categorical,
                "left": self._node_to_doc(node.left),
                "right": self._node_to_doc(node.right),
            }
        doc = {
            "kind": "leaf",
            "depth": node.depth,
            "majority": node.cached_majority,
            "majority_count": node.majority_count,
        }
        if node.frozen:
            doc["frozen_counts"] = node.frozen_counts.tolist()
        else:
            doc["element"] = node.eid
        return doc


def new_tree(schema: DatasetSchema, config: TreeConfig = TreeConfig()) -> HoeffdingTree:
    return HoeffdingTree(schema, config)


def restore(payload: bytes) -> HoeffdingTree:
    """Rebuild a tree from `snapshot` bytes; raises SnapshotError for a
    payload that is not a valid snapshot (see `HoeffdingTree.validate`),
    before building the tree if its pool section is not `max_leaves` long."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as e:
        raise SnapshotError(f"snapshot payload is not valid JSON: {e}") from None
    if not isinstance(doc, dict) or doc.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError("payload is not a tree snapshot")
    if doc.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {doc.get('version')!r} not supported "
            f"(expected {SNAPSHOT_VERSION})"
        )
    try:
        schema = parse_schema(json.dumps(doc["schema"]))
        config = TreeConfig(**doc["config"])
        StatsPool.check_snapshot_size(doc, config.max_leaves)  # before allocating
        tree = HoeffdingTree(schema, config)
        tree.stats.load_snapshot_doc(doc)
        tree.root = _node_from_doc(doc["tree"], tree)
        counters = doc["counters"]
        tree.train_count = counters["trained"]
        tree.leaf_count = counters["leaves"]
        tree.frozen_leaf_count = counters["frozen_leaves"]
        tree.split_count = counters["splits"]
        tree.freeze_count = counters["freezes"]
        tree.trial_count = counters["trials"]
        tree.stats.saturation_count = counters["saturations"]
        tree.validate()
        if sorted(int(k) for k in doc["elements"]) != tree.stats.live_elements():
            raise ValueError("element statistics do not match the leaves' elements")
        return tree
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, RecursionError) as e:
        raise SnapshotError(f"snapshot payload is corrupt: {e}") from None


def _node_from_doc(doc: dict, tree: HoeffdingTree, depth: int = 0) -> Node:
    """The subtree `doc` describes, unchecked; raises `tree.depth` to its deepest leaf."""
    if doc["kind"] == "internal":
        return InternalNode(
            doc["attribute"],
            doc["threshold"],
            doc["categorical"],
            _node_from_doc(doc["left"], tree, depth + 1),
            _node_from_doc(doc["right"], tree, depth + 1),
        )
    if doc["kind"] != "leaf":
        raise ValueError(f"unknown node kind {doc['kind']!r}")
    tree.depth = max(tree.depth, depth)
    if "frozen_counts" in doc:
        leaf = LeafNode(None, doc["depth"], doc["majority"])
        leaf.frozen_counts = int_array(doc["frozen_counts"], "frozen_counts")
    else:
        leaf = LeafNode(doc["element"], doc["depth"], doc["majority"])
    leaf.majority_count = doc["majority_count"]
    return leaf
