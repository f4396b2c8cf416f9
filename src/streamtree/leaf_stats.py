"""Per-leaf training statistics stored in flat shared pools.

All statistics for every leaf live in preallocated arrays indexed by
(element, attribute, class): element ids are dense integers handed out by
the tree's pool, so memory is bounded by capacity regardless of how the
tree grows, and recycling an element is a slice reset. A leaf holds
its element's id and nothing else: the tree reads and writes the arrays
directly, with no per-access guard. A `generation` counter per element
counts its recyclings; snapshots carry it. A pool is built from a
validated `TreeConfig`, which alone checks the settings, and a capacity.

Numeric attributes carry either a bank of quantile trackers per class or
an incremental Gaussian per class, never both. Each tracker follows the
constant-gain frugal-streaming rule (Ma, Muthukrishnan & Sandler 2013):
it moves up by ``lam * alpha`` when a sample lands above it and down by
``lam * (1 - alpha)`` otherwise, a sample equal to it included, so in
the long run the fraction of samples below it settles at its target
``alpha``; on the fixed backend both steps are Q2.30 products formed by
the array kernels of `fixed_point`. A bank doubles as a compact CDF
estimate: the mass below a point is the fraction of trackers strictly
below it, in 1/Q steps. The Gaussian is a one-pass unit-weight Welford
mean and variance sum (Pfahringer, Holmes & Kirkby 2008). Categorical
attributes carry code-by-class count histograms. The per-sample update
path is vectorized across attributes (one sample touches every attribute
of one (element, class) slice), and `observe` returns the element's
updated sample count and the sample's class count as Python ints, so the
tree reads neither back from the arrays.

Both numeric backends run one tracker kernel on one `trackers` array,
held in float64 reals or in int64 raw Q2.30 words; they differ only where
reals enter tracker units, and in saturation. On the fixed backend one
test per sample decides both: a sample whose values all lie in the safe
window, at least one step inside the Q2.30 edges (every sample in
[-1, 1] does), is rounded with no edge test and its tracker step is not
clipped; any other sample is converted with clipping and counting, and
its step is clipped and counted. The skipped clip could change nothing:
trackers start inside Q2.30 (they are seeded at converted samples, and
`restore` rejects a payload whose trackers do not), a step moves a
tracker up only while it is below the sample and down only while it is
not, by at most one step, so a step toward a sample in the window stays
inside Q2.30. Only `StatsPool` knows which arrays an element owns:
recycling and snapshots walk `element_arrays`.

Categorical counts live in one array, `hist`, of shape (capacity, sum of
cardinalities, |C|): attribute `cat_idx[k]` owns one row per code from
row `cat_start[k]` on. A sample bumps one scalar index per categorical
attribute, a split trial scores `hist[e]` whole, and a snapshot holds
one (cardinality, |C|) list per attribute under the key "hists".

A split trial reads one element as whole-leaf tables over the A numeric
attributes that can split (min < max), P split points per attribute, |C|
classes and Q quantiles: `split_points` gives the mask of those
attributes and their points as one (A, P) array, and
`numeric_partition_table` gives dist_L as one (A, P, |C|) array, from one
(A, P, |C|, Q) tracker comparison or one array call to `normal_cdf`.
"""

from __future__ import annotations

from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import fixed_point as fx
from .gaussian import normal_cdf
from .schema import CATEGORICAL, NUMERIC, DatasetSchema

if TYPE_CHECKING:  # tree imports this module
    from .tree import TreeConfig

METHOD_QUANTILE = "quantile"
METHOD_GAUSSIAN = "gaussian"
BACKEND_FLOAT = "float"
BACKEND_FIXED = "fixed"


def default_targets(count: int) -> tuple[float, ...]:
    """Evenly spaced interior probabilities k/(count+1), k = 1..count."""
    if count < 2:
        raise ValueError("quantile count must be >= 2")
    return tuple(k / (count + 1) for k in range(1, count + 1))


def int_array(values, what: str) -> np.ndarray:
    """JSON `values` (an int or nested lists of ints) as an int64 array.

    Raises ValueError naming `what` for any entry that is not an int; a
    float (even 2.0) or a bool would otherwise be truncated or coerced.
    """
    arr = np.array(values, dtype=object)
    if not set(map(type, arr.flat)) <= {int}:
        raise ValueError(f"{what} holds a value that is not an int")
    return arr.astype(np.int64)


class StatsPool:
    """Flat statistics arrays for up to `capacity` live elements."""

    def __init__(self, schema: DatasetSchema, config: "TreeConfig", capacity: int):
        self.schema = schema
        self.capacity = capacity
        self.method = method = config.method
        self.backend = backend = config.numeric_backend
        C = schema.class_count
        self.class_count = C
        self.numeric_idx = tuple(
            i for i, a in enumerate(schema.attributes) if a.kind == NUMERIC
        )
        self.cat_idx = tuple(
            i for i, a in enumerate(schema.attributes) if a.kind == CATEGORICAL
        )
        cards = [schema.attributes[i].cardinality for i in self.cat_idx]
        bounds = tuple(accumulate(cards, initial=0))
        self.cat_start = bounds[:-1]
        self._cat_rows = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        A = len(self.numeric_idx)

        self.generation = np.zeros(capacity, dtype=np.int64)
        self.n_f = np.zeros(capacity, dtype=np.int64)
        self.n_fj = np.zeros((capacity, C), dtype=np.int64)
        self.min_a = np.full((capacity, A), np.inf)
        self.max_a = np.full((capacity, A), -np.inf)
        self.hist = np.zeros((capacity, sum(cards), C), dtype=np.int64)
        # Every per-element statistic, by snapshot key, with the value a
        # recycled element holds.
        self.element_arrays = {
            "n_f": (self.n_f, 0),
            "n_fj": (self.n_fj, 0),
            "min_a": (self.min_a, np.inf),
            "max_a": (self.max_a, -np.inf),
            "hists": (self.hist, 0),
        }

        if method == METHOD_QUANTILE:
            self.targets = np.asarray(default_targets(config.quantile_count))
            Q = self.quantile_count = len(self.targets)
            gains = (self.targets, 1.0 - self.targets)  # up and down, per unit lam
            if backend == BACKEND_FLOAT:
                key, dtype = "qvals", np.float64
                self.step_up, self.step_down = (config.lam * g for g in gains)
            else:
                key, dtype = "qraw", np.int64
                lam_raw, _ = fx.float_to_raw_array([config.lam])
                self.step_up, self.step_down = (
                    fx.mul_raw_array(lam_raw, fx.float_to_raw_array(g)[0]) for g in gains)
            self.trackers = np.zeros((capacity, A, C, Q), dtype=dtype)
            self._neg_step_down = -self.step_down
            self.element_arrays[key] = (self.trackers, 0)
            if backend == BACKEND_FIXED:
                # no step toward a sample in [_safe_lo, _safe_hi] leaves the
                # window; the bounds are raw words scaled to exact float64s
                self._safe_hi = (fx.RAW_MAX - int(self.step_up.max())) / fx.SCALE
                self._safe_lo = (fx.RAW_MIN + int(self.step_down.max())) / fx.SCALE
        else:
            self.g_mean = np.zeros((capacity, A, C))
            self.g_vsum = np.zeros((capacity, A, C))
            self.element_arrays["g_mean"] = (self.g_mean, 0.0)
            self.element_arrays["g_vsum"] = (self.g_vsum, 0.0)

        self.saturation_count = 0

    def reset_element(self, e: int) -> None:
        """Recycle element e: clear its statistics and count the recycling."""
        self.generation[e] += 1
        for arr, empty in self.element_arrays.values():
            arr[e] = empty

    def element_doc(self, e: int) -> dict:
        """Element e's statistics as JSON-ready lists, by snapshot key;
        "hists" holds one (cardinality, |C|) list per attribute."""
        doc = {key: arr[e].tolist() for key, (arr, _) in self.element_arrays.items()}
        doc["hists"] = [doc["hists"][rows] for rows in self._cat_rows]
        return doc

    def load_element(self, e: int, doc: dict) -> None:
        """Overwrite element e's statistics from an `element_doc` dict; raises
        ValueError for a value whose type or shape does not fit its slot."""
        for key, (arr, _) in self.element_arrays.items():
            if key == "hists":
                slots = zip([arr[e, rows] for rows in self._cat_rows], doc[key], strict=True)
            else:
                slots = [(arr[e, ...], doc[key])]  # a view, 0-d for n_f
            for slot, vals in slots:
                v = (int_array(vals, key) if arr.dtype.kind == "i"
                     else np.asarray(vals, dtype=np.float64))
                if v.shape == slot.shape:
                    slot[...] = v
                elif slot.size or v.shape != (0,):  # tolist() writes an empty slot as []
                    raise ValueError(f"{key} has shape {v.shape}, expected {slot.shape}")

    def _to_tracker_units(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """Reals in tracker units, with how many saturated on the way."""
        if self.backend == BACKEND_FIXED:
            return fx.float_to_raw_array(x)
        return x, 0

    def observe(self, e: int, values: Sequence, label: int) -> tuple[int, int]:
        """Fold one sample into element e; returns (n_f, n_fj[label])."""
        n = self.n_f.item(e) + 1
        self.n_f[e] = n
        cj = self.n_fj.item(e, label) + 1
        self.n_fj[e, label] = cj

        if self.numeric_idx:
            xs = [values[i] for i in self.numeric_idx]
            xv = np.array(xs)
            lo = self.min_a[e]
            np.minimum(lo, xv, out=lo)
            hi = self.max_a[e]
            np.maximum(hi, xv, out=hi)
            if self.method == METHOD_QUANTILE:
                # inside the window no value saturates, on conversion or
                # in the step toward it
                edge = False
                if self.backend == BACKEND_FLOAT:
                    xt = xv
                elif self._safe_lo <= min(xs) and max(xs) <= self._safe_hi:
                    xt = fx.quantize_array(xv)
                else:
                    xt, sat = fx.float_to_raw_array(xv)
                    self.saturation_count += sat
                    edge = True
                v = self.trackers[e, :, label, :]
                if cj == 1:
                    v[...] = xt[:, None]
                else:
                    v += np.where(v < xt[:, None], self.step_up, self._neg_step_down)
                    if edge:
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

        for i, start in zip(self.cat_idx, self.cat_start):
            self.hist[e, start + values[i], label] += 1
        return n, cj

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
