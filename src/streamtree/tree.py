"""Online decision-tree induction over a bounded element pool.

Leaves own "elements": slots in flat statistics pools sized up front to
max_leaves. Splitting consumes two fresh elements for the children (they
must both be free before the parent's is recycled, so a split needs two
free slots at decision time) and returns the parent's. When the pool, the
leaf budget, or the depth cap cannot accommodate a decided split, the leaf
freezes instead: it keeps a plain class-count vector for prediction but
never re-enters split trials, so the tree degrades gracefully rather than
failing.

Training is strictly stream-ordered and deterministic: the same samples in
the same order with the same config produce the identical tree, split log,
and predictions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from . import split_eval
from .leaf_stats import (
    BACKEND_FIXED,
    BACKEND_FLOAT,
    METHOD_GAUSSIAN,
    METHOD_QUANTILE,
    LeafElement,
    StatsPool,
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
    __slots__ = ("element", "cached_majority", "majority_count", "depth",
                 "frozen_counts")

    def __init__(self, element: Optional[LeafElement], depth: int,
                 cached_majority: int = 0):
        self.element = element
        self.depth = depth
        self.cached_majority = cached_majority
        self.majority_count = 0
        self.frozen_counts: Optional[np.ndarray] = None

    @property
    def frozen(self) -> bool:
        return self.element is None


class InternalNode:
    __slots__ = ("attribute", "threshold", "is_categorical", "left", "right")

    def __init__(self, attribute: int, threshold, is_categorical: bool,
                 left: "Node", right: "Node"):
        self.attribute = attribute
        self.threshold = threshold
        self.is_categorical = is_categorical
        self.left = left
        self.right = right


Node = Union[LeafNode, InternalNode]


class ElementPool:
    """Dense element ids with a LIFO free list; conservation is exact."""

    def __init__(self, stats: StatsPool):
        self.stats = stats
        self.capacity = stats.capacity
        self.free_list = list(range(self.capacity - 1, -1, -1))  # pops 0,1,2,...

    @property
    def free_count(self) -> int:
        return len(self.free_list)

    @property
    def allocated_count(self) -> int:
        return self.capacity - len(self.free_list)

    def alloc(self) -> LeafElement:
        if not self.free_list:
            raise RuntimeError("element pool exhausted")
        return LeafElement(self.stats, self.free_list.pop())

    def release(self, el: LeafElement) -> None:
        self.stats.reset_element(el.eid)
        self.free_list.append(el.eid)


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
        self.stats = StatsPool(
            schema,
            capacity=config.max_leaves,
            method=config.method,
            quantile_count=config.quantile_count,
            lam=config.lam,
            backend=config.numeric_backend,
        )
        self.pool = ElementPool(self.stats)
        self.root: Node = LeafNode(self.pool.alloc(), depth=0)
        self.leaf_count = 1
        self.frozen_leaf_count = 0
        self.split_count = 0
        self.freeze_count = 0
        self.trial_count = 0
        self.train_count = 0
        self.split_log: list[SplitEvent] = []

    # ------------------------------------------------------------- routing

    def sort_to_leaf(self, s: Sample) -> LeafNode:
        node = self.root
        values = s.values
        while not isinstance(node, LeafNode):
            v = values[node.attribute]
            if node.is_categorical:
                node = node.left if v == node.threshold else node.right
            else:
                node = node.left if v <= node.threshold else node.right
        return node

    # ------------------------------------------------------------ training

    def train_one(self, s: Sample) -> Optional[SplitEvent]:
        if not math.isfinite(sum(s.values)):
            self._reject_non_finite(s)
        self.train_count += 1
        leaf = self.sort_to_leaf(s)
        if leaf.frozen:
            counts = leaf.frozen_counts
            counts[s.label] += 1
            c = counts[s.label]
            if (c > leaf.majority_count
                    or (c == leaf.majority_count and s.label < leaf.cached_majority)):
                leaf.cached_majority = s.label
                leaf.majority_count = int(c)
            return None
        el = leaf.element
        el.observe(s)
        c = int(el.pool.n_fj[el.eid, s.label])
        if (c > leaf.majority_count
                or (c == leaf.majority_count and s.label < leaf.cached_majority)):
            leaf.cached_majority = s.label
            leaf.majority_count = c
        n = el.n_f
        if n % self.config.n_min == 0:
            self.trial_count += 1
            decision = split_eval.evaluate_split_trial(el, self.config)
            if decision.taken:
                return self.apply_split(leaf, decision)
        return None

    def _reject_non_finite(self, s: Sample) -> None:
        """Raise naming the first non-finite numeric value; a finite sample
        whose sum overflowed passes."""
        for i in self.stats.numeric_idx:
            if not math.isfinite(s.values[i]):
                raise ValueError(f"attribute {i} ({self.schema.attributes[i].name!r}) "
                                 f"is not finite: {s.values[i]!r}")

    def apply_split(self, leaf: LeafNode, decision: split_eval.SplitDecision) -> SplitEvent:
        el = leaf.element
        n = el.n_f
        best = decision.best
        if (leaf.depth + 1 > self.config.max_depth
                or self.leaf_count + 1 > self.config.max_leaves
                or self.pool.free_count < 2):
            return self._freeze(leaf, decision)
        majority = leaf.cached_majority
        left = LeafNode(self.pool.alloc(), leaf.depth + 1, majority)
        right = LeafNode(self.pool.alloc(), leaf.depth + 1, majority)
        self.pool.release(el)
        is_cat = self.schema.attributes[best.attribute].kind == CATEGORICAL
        internal = InternalNode(best.attribute, best.split_point, is_cat, left, right)
        self._replace_node(leaf, internal)
        self.leaf_count += 1
        self.split_count += 1
        event = SplitEvent("split", leaf.depth, n, best.attribute,
                           best.split_point, decision.reason, decision.epsilon)
        self.split_log.append(event)
        return event

    def _freeze(self, leaf: LeafNode, decision: split_eval.SplitDecision) -> SplitEvent:
        el = leaf.element
        n = el.n_f
        leaf.frozen_counts = el.n_fj.copy()
        leaf.majority_count = int(leaf.frozen_counts.max())
        leaf.cached_majority = int(np.argmax(leaf.frozen_counts))
        self.pool.release(el)
        leaf.element = None
        self.frozen_leaf_count += 1
        self.freeze_count += 1
        event = SplitEvent("freeze", leaf.depth, n, None, None,
                           decision.reason, decision.epsilon)
        self.split_log.append(event)
        return event

    def _replace_node(self, old: Node, new: Node) -> None:
        if self.root is old:
            self.root = new
            return
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, InternalNode):
                if node.left is old:
                    node.left = new
                    return
                if node.right is old:
                    node.right = new
                    return
                stack.append(node.left)
                stack.append(node.right)
        raise RuntimeError("node to replace not found")

    def train(self, stream: Iterable[Sample]) -> int:
        count = 0
        for s in stream:
            self.train_one(s)
            count += 1
        return count

    # ----------------------------------------------------------- inference

    def predict(self, s: Sample) -> int:
        return self.sort_to_leaf(s).cached_majority

    # ------------------------------------------------------------- metrics

    @property
    def depth(self) -> int:
        best = 0
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            if isinstance(node, InternalNode):
                stack.append((node.left, d + 1))
                stack.append((node.right, d + 1))
            else:
                best = max(best, d)
        return best

    def counters(self) -> dict:
        return {
            "trained": self.train_count,
            "leaves": self.leaf_count,
            "frozen_leaves": self.frozen_leaf_count,
            "splits": self.split_count,
            "freezes": self.freeze_count,
            "trials": self.trial_count,
            "depth": self.depth,
            "pool_free": self.pool.free_count,
            "pool_allocated": self.pool.allocated_count,
            "saturations": self.stats.saturation_count,
        }

    # ------------------------------------------------------------ snapshot

    def snapshot(self) -> bytes:
        doc = {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "config": vars(self.config),
            "schema": json.loads(schema_to_json(self.schema)),
            "tree": self._node_to_doc(self.root),
            "elements": {
                str(e): self.stats.element_doc(e)
                for e in sorted(set(range(self.pool.capacity)) - set(self.pool.free_list))
            },
            "free_list": list(self.pool.free_list),
            "generations": self.stats.generation.tolist(),
            "counters": {
                "trained": self.train_count,
                "leaves": self.leaf_count,
                "frozen_leaves": self.frozen_leaf_count,
                "splits": self.split_count,
                "freezes": self.freeze_count,
                "trials": self.trial_count,
                "saturations": self.stats.saturation_count,
            },
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
            doc["element"] = node.element.eid
        return doc


def new_tree(schema: DatasetSchema, config: TreeConfig = TreeConfig()) -> HoeffdingTree:
    return HoeffdingTree(schema, config)


def restore(payload: bytes) -> HoeffdingTree:
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
        tree = HoeffdingTree(schema, config)
        stats = tree.stats
        stats.generation[:] = doc["generations"]
        tree.pool.free_list = [int(x) for x in doc["free_list"]]
        leaves: list[LeafNode] = []
        tree.root = _node_from_doc(doc["tree"], tree, leaves)
        counters = doc["counters"]
        tree.train_count = counters["trained"]
        tree.leaf_count = counters["leaves"]
        tree.frozen_leaf_count = counters["frozen_leaves"]
        tree.split_count = counters["splits"]
        tree.freeze_count = counters["freezes"]
        tree.trial_count = counters["trials"]
        stats.saturation_count = counters["saturations"]
        live = _check_restored(tree, leaves)
        if {int(k) for k in doc["elements"]} != live:
            raise SnapshotError("element statistics do not match the leaves' elements")
        for key, el_doc in doc["elements"].items():
            stats.load_element(int(key), el_doc)
        _check_leaf_counts(tree, leaves)
        return tree
    except SnapshotError:
        raise
    except (KeyError, TypeError, ValueError, IndexError, RecursionError) as e:
        raise SnapshotError(f"snapshot payload is corrupt: {e}") from None


def _node_from_doc(doc: dict, tree: HoeffdingTree, leaves: list[LeafNode],
                   depth: int = 0) -> Node:
    max_depth = tree.config.max_depth
    if doc["kind"] == "internal":
        # a split leaf is shallower than max_depth, so its children fit
        if depth >= max_depth:
            raise SnapshotError(f"internal node at depth {depth}, max_depth is {max_depth}")
        return InternalNode(
            doc["attribute"],
            doc["threshold"],
            doc["categorical"],
            _node_from_doc(doc["left"], tree, leaves, depth + 1),
            _node_from_doc(doc["right"], tree, leaves, depth + 1),
        )
    if doc["kind"] != "leaf":
        raise SnapshotError(f"unknown node kind {doc['kind']!r}")
    if doc["depth"] != depth:
        raise SnapshotError(f"leaf at depth {depth} says depth {doc['depth']!r}")
    if "frozen_counts" in doc:
        leaf = LeafNode(None, depth, doc["majority"])
        counts = np.asarray(doc["frozen_counts"], dtype=np.int64)
        if counts.shape != (tree.schema.class_count,) or (counts < 0).any():
            raise SnapshotError(
                f"frozen_counts must be {tree.schema.class_count} non-negative counts")
        leaf.frozen_counts = counts
    else:
        leaf = LeafNode(LeafElement(tree.stats, doc["element"]), depth, doc["majority"])
    leaf.majority_count = doc["majority_count"]
    leaves.append(leaf)
    return leaf


def _check_restored(tree: HoeffdingTree, leaves: list[LeafNode]) -> set[int]:
    """Check restored leaves against the element pool and the leaf
    counters; return the element ids the leaves hold."""
    capacity = tree.pool.capacity
    live = [leaf.element.eid for leaf in leaves if not leaf.frozen]
    # rules out ids out of range, held by two leaves, listed twice, or
    # both held and free
    if sorted(live + tree.pool.free_list) != list(range(capacity)):
        raise SnapshotError(
            f"leaf elements and the free list do not partition the pool 0..{capacity - 1}"
        )
    frozen = len(leaves) - len(live)
    if (tree.leaf_count, tree.frozen_leaf_count) != (len(leaves), frozen):
        raise SnapshotError(
            f"counters say {tree.leaf_count} leaves ({tree.frozen_leaf_count} frozen), "
            f"the tree has {len(leaves)} ({frozen} frozen)"
        )
    return set(live)


def _check_leaf_counts(tree: HoeffdingTree, leaves: list[LeafNode]) -> None:
    """Check each restored leaf's majority against its class counts (its
    element's, or its frozen ones), and each live element's n_f against
    its per-class counts."""
    stats = tree.stats
    live = [leaf for leaf in leaves if not leaf.frozen]
    frozen = [leaf for leaf in leaves if leaf.frozen]
    eids = np.array([leaf.element.eid for leaf in live], dtype=np.int64)
    if (stats.n_f[eids] != stats.n_fj[eids].sum(axis=1)).any():
        raise SnapshotError("an element's n_f is not the sum of its class counts")
    frozen_counts = np.array([leaf.frozen_counts for leaf in frozen], dtype=np.int64)
    counts = np.concatenate([stats.n_fj[eids],
                             frozen_counts.reshape(len(frozen), stats.class_count)])
    majority = np.array([leaf.cached_majority for leaf in live + frozen])
    majority_count = np.array([leaf.majority_count for leaf in live + frozen])
    if (majority.dtype.kind != "i"
            or ((majority < 0) | (majority >= stats.class_count)).any()):
        raise SnapshotError("a leaf's majority is not a class")
    if majority_count.dtype.kind != "i" or (majority_count != counts.max(axis=1)).any():
        raise SnapshotError("a leaf's majority_count is not its largest class count")
    # the tree's rule: ties go to the lower class
    if ((majority_count > 0) & (majority != counts.argmax(axis=1))).any():
        raise SnapshotError("a leaf's majority is not the lowest class with the largest count")
