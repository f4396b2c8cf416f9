"""A test-side walk over a tree that re-derives its invariants without the
library's help, then requires `HoeffdingTree.validate` to agree."""

import numpy as np

from streamtree.tree import HoeffdingTree, LeafNode


def check_tree(tree: HoeffdingTree) -> None:
    """Assert the parent links, the leaf and depth caps, the counters, pool
    conservation, per-class count totals and every leaf's majority, then
    validate."""
    config = tree.config
    pool = tree.pool
    stats = tree.stats
    leaves = frozen = deepest = 0
    seen = set()
    assert tree.root.parent is None
    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        if not isinstance(node, LeafNode):
            assert node.left.parent is node and node.right.parent is node
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
            continue
        assert node.depth == depth <= config.max_depth
        deepest = max(deepest, depth)
        leaves += 1
        if node.frozen:
            frozen += 1
            counts = node.frozen_counts
        else:
            eid = node.eid
            assert type(eid) is int
            assert eid not in seen, f"element {eid} shared by two leaves"
            seen.add(eid)
            counts = stats.n_fj[eid]
        assert node.majority_count == counts.max()
        if node.majority_count > 0:
            # ties go to the lower class
            assert node.cached_majority == int(np.argmax(counts))
    assert leaves == tree.leaf_count <= config.max_leaves
    assert tree.split_count == leaves - 1
    assert frozen == tree.frozen_leaf_count == tree.freeze_count
    assert tree.trial_count >= tree.split_count + tree.freeze_count
    assert deepest == tree.depth
    assert pool.allocated_count == leaves - frozen == len(seen)
    assert pool.allocated_count + pool.free_count == pool.capacity
    assert sorted(list(seen) + pool.free_list) == list(range(pool.capacity))
    if seen:
        ids = sorted(seen)
        assert np.array_equal(stats.n_f[ids], stats.n_fj[ids].sum(axis=1)), \
            "per-class counts do not sum to the element total"
    tree.validate()
