"""Per-leaf training statistics stored in flat shared pools.

All statistics for every leaf live in preallocated arrays indexed by
(element, attribute, class): element ids are dense integers handed out by
the tree's pool, so memory is bounded by capacity regardless of how the
tree grows, and recycling an element is a slice reset. A `generation`
counter per element tags handles so a stale reference to a recycled
element raises instead of silently reading another leaf's numbers.

Numeric attributes carry either a bank of quantile trackers per class or
an incremental Gaussian per class, never both. Categorical attributes
carry value-by-class count histograms. The per-sample update path is
vectorized across attributes (one sample touches every attribute of one
(element, class) slice).

Both numeric backends run one tracker kernel on one `trackers` array,
held in float64 reals or in int64 raw Q2.30 words; they differ only where
reals enter tracker units. Only `StatsPool` knows which arrays an element
owns: recycling and snapshots walk `element_arrays` and `hists`.

A split trial reads one element as whole-leaf tables over the A numeric
attributes that can split (min < max), P split points per attribute, |C|
classes and Q quantiles: `split_points` gives the mask of those
attributes and their points as one (A, P) array, and
`numeric_partition_table` gives dist_L as one (A, P, |C|) array, from one
(A, P, |C|, Q) tracker comparison or one array call to `normal_cdf`.
`categorical_partition_table` gives one attribute's (cardinality, |C|)
table.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from . import fixed_point as fx
from .gaussian import normal_cdf
from .quantiles import default_targets
from .schema import CATEGORICAL, NUMERIC, DatasetSchema, Sample

METHOD_QUANTILE = "quantile"
METHOD_GAUSSIAN = "gaussian"
BACKEND_FLOAT = "float"
BACKEND_FIXED = "fixed"


class StaleElementError(RuntimeError):
    """A LeafElement handle outlived the element's recycling."""


class ClassDistPair(NamedTuple):
    left: np.ndarray   # |C| reals
    right: np.ndarray  # |C| reals
    split_point: object


class StatsPool:
    """Flat statistics arrays for up to `capacity` live elements."""

    def __init__(self, schema: DatasetSchema, capacity: int,
                 method: str = METHOD_QUANTILE,
                 quantile_count: int = 8,
                 lam: float = 0.01,
                 backend: str = BACKEND_FLOAT):
        if method not in (METHOD_QUANTILE, METHOD_GAUSSIAN):
            raise ValueError(f"unknown method {method!r}")
        if backend not in (BACKEND_FLOAT, BACKEND_FIXED):
            raise ValueError(f"unknown backend {backend!r}")
        if method == METHOD_GAUSSIAN and backend == BACKEND_FIXED:
            raise ValueError("fixed backend applies to the quantile method only")
        self.schema = schema
        self.capacity = capacity
        self.method = method
        self.backend = backend
        C = schema.class_count
        self.class_count = C
        self.numeric_idx = tuple(
            i for i, a in enumerate(schema.attributes) if a.kind == NUMERIC
        )
        self.cat_idx = tuple(
            i for i, a in enumerate(schema.attributes) if a.kind == CATEGORICAL
        )
        self.num_sub = {i: k for k, i in enumerate(self.numeric_idx)}
        self.cat_sub = {i: k for k, i in enumerate(self.cat_idx)}
        A = len(self.numeric_idx)

        self.generation = np.zeros(capacity, dtype=np.int64)
        self.n_f = np.zeros(capacity, dtype=np.int64)
        self.n_fj = np.zeros((capacity, C), dtype=np.int64)
        self.min_a = np.full((capacity, A), np.inf)
        self.max_a = np.full((capacity, A), -np.inf)
        self.hists = [
            np.zeros((capacity, schema.attributes[i].cardinality, C), dtype=np.int64)
            for i in self.cat_idx
        ]
        # Every per-element statistic but `hists`, by snapshot key, with
        # the value a recycled element holds.
        self.element_arrays = {
            "n_f": (self.n_f, 0),
            "n_fj": (self.n_fj, 0),
            "min_a": (self.min_a, np.inf),
            "max_a": (self.max_a, -np.inf),
        }

        if method == METHOD_QUANTILE:
            self.targets = np.asarray(default_targets(quantile_count))
            Q = len(self.targets)
            self.quantile_count = Q
            if backend == BACKEND_FLOAT:
                key, dtype = "qvals", np.float64
                up = lam * self.targets
                down = lam * (1.0 - self.targets)
            else:
                key, dtype = "qraw", np.int64
                lam_raw = fx.float_to_raw(lam)
                up = [fx.mul_raw(lam_raw, fx.float_to_raw(a)) for a in self.targets]
                down = [fx.mul_raw(lam_raw, fx.float_to_raw(1.0 - a)) for a in self.targets]
            self.trackers = np.zeros((capacity, A, C, Q), dtype=dtype)
            self.step_up = np.asarray(up, dtype=dtype)
            self.step_down = np.asarray(down, dtype=dtype)
            self.element_arrays[key] = (self.trackers, 0)
        else:
            self.g_mean = np.zeros((capacity, A, C))
            self.g_vsum = np.zeros((capacity, A, C))
            self.element_arrays["g_mean"] = (self.g_mean, 0.0)
            self.element_arrays["g_vsum"] = (self.g_vsum, 0.0)

        self.saturation_count = 0

    def reset_element(self, e: int) -> None:
        """Recycle element e: clear its statistics and bump its generation."""
        self.generation[e] += 1
        for arr, empty in self.element_arrays.values():
            arr[e] = empty
        for h in self.hists:
            h[e] = 0

    def element_doc(self, e: int) -> dict:
        """Element e's statistics as JSON-ready lists, by snapshot key."""
        doc = {key: arr[e].tolist() for key, (arr, _) in self.element_arrays.items()}
        doc["hists"] = [h[e].tolist() for h in self.hists]
        return doc

    def load_element(self, e: int, doc: dict) -> None:
        """Overwrite element e's statistics from an `element_doc` dict."""
        for key, (arr, _) in self.element_arrays.items():
            arr[e] = doc[key]
        for h, vals in zip(self.hists, doc["hists"], strict=True):
            h[e] = vals

    def _to_tracker_units(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """Reals in tracker units, with how many saturated on the way."""
        if self.backend == BACKEND_FIXED:
            return fx.float_to_raw_array(x)
        return x, 0

    def observe(self, e: int, values: Sequence, label: int) -> None:
        self.n_f[e] += 1
        cj = self.n_fj[e, label] + 1
        self.n_fj[e, label] = cj

        if self.numeric_idx:
            xv = np.array([values[i] for i in self.numeric_idx])
            np.minimum(self.min_a[e], xv, out=self.min_a[e])
            np.maximum(self.max_a[e], xv, out=self.max_a[e])
            if self.method == METHOD_QUANTILE:
                xt, sat = self._to_tracker_units(xv)
                self.saturation_count += sat
                v = self.trackers[e, :, label, :]
                if cj == 1:
                    v[...] = xt[:, None]
                else:
                    v += np.where(v < xt[:, None], self.step_up, -self.step_down)
                    if self.backend == BACKEND_FIXED:
                        self.saturation_count += fx.saturate_raw_array(v)
            else:
                if cj == 1:
                    self.g_mean[e, :, label] = xv
                    self.g_vsum[e, :, label] = 0.0
                else:
                    m = self.g_mean[e, :, label]
                    d = xv - m
                    m2 = m + d / cj
                    self.g_vsum[e, :, label] += d * (xv - m2)
                    self.g_mean[e, :, label] = m2

        for i, h in zip(self.cat_idx, self.hists):
            h[e, values[i], label] += 1

    def split_points(self, e: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The (A,) mask of numeric attributes whose observed range is not
        empty (min < max), and count evenly spaced interior points of each
        of those ranges, shape (mask.sum(), count)."""
        lo = self.min_a[e]
        hi = self.max_a[e]
        valid = lo < hi
        lo = lo[valid]
        span = (hi[valid] - lo) / (count + 1)
        return valid, lo[:, None] + span[:, None] * np.arange(1, count + 1)

    def numeric_partition_table(self, e: int, valid: np.ndarray,
                                pts: np.ndarray) -> np.ndarray:
        """dist_L for every (attribute, split point, class) of the numeric
        attributes the (A,) mask `valid` selects, shape (n, P, |C|), given
        their split points, shape (n, P)."""
        counts = self.n_fj[e].astype(np.float64)
        if self.method == METHOD_QUANTILE:
            # a split point that saturates is not a saturated sample
            pt, _ = self._to_tracker_units(pts)
            q = self.trackers[e][valid]  # (n, C, Q)
            below = (q[:, None, :, :] < pt[:, :, None, None]).sum(axis=3)
            dist_l = below / self.quantile_count * counts
        else:
            vs = self.g_vsum[e][valid]  # (n, C)
            # fewer than two samples or no spread: variance 0, a step at the mean
            fitted = (counts > 1) & (vs > 0.0)
            var = np.divide(vs, counts - 1.0, out=np.zeros_like(vs), where=fitted)
            dist_l = counts * normal_cdf(pts[:, :, None], self.g_mean[e][valid][:, None, :],
                                         var[:, None, :])
        # zero-count classes contribute nothing regardless of method
        dist_l[..., counts == 0] = 0.0
        return dist_l

    def categorical_partition_table(self, e: int, attr: int) -> np.ndarray:
        """dist_L for every (code, class), shape (cardinality, |C|); the
        left branch of a categorical split holds the one code."""
        return self.hists[self.cat_sub[attr]][e].astype(np.float64)


class LeafElement:
    """Handle to one element's statistics; guards against recycling."""

    __slots__ = ("pool", "eid", "generation")

    def __init__(self, pool: StatsPool, eid: int):
        self.pool = pool
        self.eid = eid
        self.generation = int(pool.generation[eid])

    def _check(self) -> None:
        if self.pool.generation[self.eid] != self.generation:
            raise StaleElementError(
                f"element {self.eid} was recycled (generation "
                f"{self.pool.generation[self.eid]} != {self.generation})"
            )

    @property
    def n_f(self) -> int:
        self._check()
        return int(self.pool.n_f[self.eid])

    @property
    def n_fj(self) -> np.ndarray:
        self._check()
        return self.pool.n_fj[self.eid]

    def observe(self, s: Sample) -> None:
        self._check()
        self.pool.observe(self.eid, s.values, s.label)

    def split_points(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        self._check()
        return self.pool.split_points(self.eid, count)

    def numeric_partition_table(self, valid: np.ndarray, pts: np.ndarray) -> np.ndarray:
        self._check()
        return self.pool.numeric_partition_table(self.eid, valid, pts)

    def categorical_partition_table(self, attr: int) -> np.ndarray:
        self._check()
        return self.pool.categorical_partition_table(self.eid, attr)
