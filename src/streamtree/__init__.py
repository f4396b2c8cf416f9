"""Streaming decision-tree classifier with quantile-tracked numeric attributes."""

from .harness import (
    Metrics,
    compare_methods,
    export_cdf_comparison,
    interleaved_test_then_train,
    sweep_quantiles,
)
from .leaf_stats import default_targets
from .schema import (
    AttributeSpec,
    DatasetSchema,
    Sample,
    load_schema,
    normalize,
    open_stream,
    parse_schema,
)
from .split_eval import gini, gini_reduction, hoeffding_bound, split_quality
from .tree import HoeffdingTree, SnapshotError, TreeConfig, new_tree, restore

__version__ = "0.1.0"

__all__ = [
    "AttributeSpec",
    "DatasetSchema",
    "HoeffdingTree",
    "Metrics",
    "Sample",
    "SnapshotError",
    "TreeConfig",
    "compare_methods",
    "default_targets",
    "export_cdf_comparison",
    "gini",
    "gini_reduction",
    "hoeffding_bound",
    "interleaved_test_then_train",
    "load_schema",
    "new_tree",
    "normalize",
    "open_stream",
    "parse_schema",
    "restore",
    "split_quality",
    "sweep_quantiles",
]
