"""Per-leaf training statistics stored in flat shared pools.

All statistics for every leaf live in preallocated arrays indexed by
element first, so memory is bounded by capacity however the tree grows.
The pool owns an element's lifecycle: `alloc` pops a dense integer id off
a LIFO free list; `release` resets the element's slices, counts the
recycling in `generation` and pushes the id back. A leaf holds its id and
nothing else: the tree reads the arrays directly, with no per-access
guard. The pool checks its live elements (`validate`) and writes and reads
its snapshot section; it is built from a validated `TreeConfig`.

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
attributes carry code-by-class count histograms.

Each (element, class) pair owns one contiguous bank with the numeric
attribute axis last: `trackers` is (capacity, |C|, Q, A) and `g_mean`,
`g_vsum` are (capacity, |C|, A), so one sample updates one block of
memory: its class's (Q, A) bank, stepped against whole (Q, A) up and
down planes with nothing to broadcast, or a Welford update on (A,) rows.
`observe` reaches an element's `min_a`/`max_a` rows and per-class banks
through views built on the element's first sample, not per capacity;
they stay valid because recycling and loading write in place. Snapshots
keep the (A, |C|, Q) and (A, |C|) nesting per element under the same
keys; `element_doc` and `load_element` transpose. `observe` takes the
sample's numeric values from the float64 row and its Q2.30 words that
`SampleStream` attaches, as one pair, to a parsed sample's values; a
list without them, as a library caller builds it, becomes one array. It
returns the element's updated sample count and the sample's class count
as Python ints, so the tree reads neither back from the arrays.

Both numeric backends run one tracker kernel on one `trackers` array,
held in float64 reals or in int64 raw Q2.30 words; they differ only where
reals enter tracker units, and in saturation. On the fixed backend a
sample whose values all lie in the safe window, at least one step inside
the Q2.30 edges, is rounded with no edge test and its tracker step is
not clipped; any other sample is converted with clipping and counting,
and its step is clipped and counted. A parsed row lies in [-1, 1], so
`__init__` decides once per pool whether all of them lie in the window
(every `lam` up to 1.0 at Q = 8; `forward_raw`); if so, an intact parsed
row is stepped from the words the parser rounded it to, with no test and
no conversion. Any other row takes one window test per sample, which
decides both. The skipped clip could change nothing:
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
`numeric_partition_table` gives dist_L as one (A, P, |C|) array. The
quantile table is one (|C|, Q, A, P) tracker comparison summed over Q.
The Gaussian table is a step at the mean everywhere, with the CDF
evaluated only at the fitted (attribute, class) pairs, those with at
least two samples and some spread: one `normal_cdf` call on a compact
(pairs, P) block, scattered into the table. The CDF thus costs one
`math.erf` per fitted entry, and nothing for a pair that is a step.
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


def load_slot(slot: np.ndarray, vals, key: str) -> None:
    """Write JSON `vals` into `slot`, or raise ValueError naming `key`."""
    v = (int_array(vals, key) if slot.dtype.kind == "i"
         else np.asarray(vals, dtype=np.float64))
    if v.shape == slot.shape:
        slot[...] = v
    elif slot.size or v.shape != (0,):  # tolist() writes an empty slot as []
        raise ValueError(f"{key} has shape {v.shape}, expected {slot.shape}")


class StatsPool:
    """Flat statistics arrays for up to `capacity` live elements."""

    def __init__(self, schema: DatasetSchema, config: "TreeConfig", capacity: int):
        self.schema = schema
        self.capacity = capacity
        self.method = method = config.method
        self.backend = backend = config.numeric_backend
        self.forward_raw = False  # step parsed rows from the parser's raw words
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
        # the split trial's per-attribute index arrays, built once
        self.numeric_cols = np.array(self.numeric_idx, dtype=np.intp)
        self.cat_cols = np.array(self.cat_idx, dtype=np.intp)
        self.cat_cards = np.array(cards, dtype=np.intp)
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
        # The axes that turn an element's class-first bank into its
        # snapshot nesting, for the keys that have one.
        doc_axes: dict[str, tuple[int, ...]] = {}

        if method == METHOD_QUANTILE:
            self.targets = np.asarray(default_targets(config.quantile_count))
            Q = self.quantile_count = len(self.targets)
            # up and down per unit lam, one entry per tracker
            gains = (self.targets[:, None], 1.0 - self.targets[:, None])
            if backend == BACKEND_FLOAT:
                key, dtype = "qvals", np.float64
                up, down = (config.lam * g for g in gains)
            else:
                key, dtype = "qraw", np.int64
                lam_raw, _ = fx.float_to_raw_array([config.lam])
                up, down = (fx.mul_raw_array(lam_raw, fx.float_to_raw_array(g)[0])
                            for g in gains)
                # no step toward a sample in [_safe_lo, _safe_hi] leaves the
                # window; the bounds are raw words scaled to exact float64s
                self._safe_hi = (fx.RAW_MAX - int(up.max())) / fx.SCALE
                self._safe_lo = (fx.RAW_MIN + int(down.max())) / fx.SCALE
                # a parsed row lies in [-1, 1]: inside the window, its raw
                # words are what the window test would round it to
                self.forward_raw = self._safe_lo <= -1.0 and 1.0 <= self._safe_hi
            # whole (Q, A) planes, the shape of a bank, so that a step picks
            # between them element by element with nothing to broadcast
            self.step_up, self.step_down = (np.repeat(g, A, axis=1) for g in (up, down))
            self._neg_step_down = -self.step_down
            self.trackers = np.zeros((capacity, C, Q, A), dtype=dtype)
            self.element_arrays[key] = (self.trackers, 0)
            doc_axes[key] = (2, 0, 1)  # (|C|, Q, A) -> (A, |C|, Q)
        else:
            self.g_mean = np.zeros((capacity, C, A))
            self.g_vsum = np.zeros((capacity, C, A))
            for key, arr in (("g_mean", self.g_mean), ("g_vsum", self.g_vsum)):
                self.element_arrays[key] = (arr, 0.0)
                doc_axes[key] = (1, 0)  # (|C|, A) -> (A, |C|)
        # every statistic but "hists", which the snapshot splits per attribute
        self._doc_keys = [(key, arr, doc_axes.get(key))
                          for key, (arr, _) in self.element_arrays.items() if key != "hists"]

        self.saturation_count = 0
        # element -> views of its rows (`_element_views`), built on its first
        # sample: never per capacity, as `restore` builds a pool per snapshot
        self._views: dict[int, tuple] = {}
        self.free_list = list(range(capacity - 1, -1, -1))  # pops 0, 1, 2, ...

    @property
    def allocated_count(self) -> int:
        return self.capacity - len(self.free_list)

    def alloc(self) -> int:
        if not self.free_list:
            raise RuntimeError("element pool exhausted")
        return self.free_list.pop()

    def release(self, e: int) -> None:
        """Recycle element e: reset its statistics in place, count it, free its id."""
        self.generation[e] += 1
        for arr, empty in self.element_arrays.values():
            arr[e] = empty
        self.free_list.append(e)

    def live_elements(self) -> list[int]:
        return sorted(set(range(self.capacity)) - set(self.free_list))

    def validate(self, live: list) -> None:
        """Check the live leaves' ids, the free list and the live elements'
        statistics (README "Library use"); raise ValueError at the first fault."""
        ids = live + self.free_list
        for e in ids:
            if type(e) is not int:
                raise ValueError(f"element id {e!r} is not an int")
        # rules out ids out of range, held by two leaves, listed twice, or
        # both held and free
        if sorted(ids) != list(range(self.capacity)):
            raise ValueError("leaf elements and the free list do not partition the pool "
                             f"0..{self.capacity - 1}")
        idx = np.array(live, dtype=np.int64)
        n_f, n_fj, hist = self.n_f[idx], self.n_fj[idx], self.hist[idx]
        if (n_fj < 0).any() or (hist < 0).any():
            raise ValueError("an element's class or categorical count is negative")
        if (n_f != n_fj.sum(axis=1)).any():
            raise ValueError("an element's n_f is not the sum of its class counts")
        if self.cat_start and (np.add.reduceat(hist, self.cat_start, axis=1)
                               != n_fj[:, None, :]).any():
            raise ValueError("an element's categorical counts, summed over an attribute's "
                             "codes, are not its class counts")
        lo, hi = self.min_a[idx], self.max_a[idx]
        ranged = (-np.inf < lo) & (lo <= hi) & (hi < np.inf)  # finite; False for NaN
        empty = (lo == np.inf) & (hi == -np.inf)
        if not np.where((n_f > 0)[:, None], ranged, empty).all():
            raise ValueError("an element's min_a..max_a is not (inf, -inf) before its first "
                             "sample, or finite with min_a <= max_a after it")
        if self.backend == BACKEND_FIXED:
            # observe clips a step only toward a sample near the Q2.30 edge,
            # so it relies on every tracker starting inside Q2.30
            q = self.trackers[idx]
            if ((q < fx.RAW_MIN) | (q > fx.RAW_MAX)).any():
                raise ValueError("a raw tracker lies outside Q2.30")
        else:
            moments = ((self.trackers,) if self.method == METHOD_QUANTILE
                       else (self.g_mean, self.g_vsum))
            if not all(np.isfinite(a[idx]).all() for a in moments):
                raise ValueError("an element's tracker or gaussian statistics are not finite")

    def snapshot_doc(self) -> dict:
        """The pool's snapshot section, by key."""
        return {"elements": {str(e): self.element_doc(e) for e in self.live_elements()},
                "free_list": list(self.free_list), "generations": self.generation.tolist()}

    @staticmethod
    def check_snapshot_size(doc: dict, capacity: int) -> None:
        """The shape check `load_snapshot_doc` makes of doc's generations, one
        per element, made before a pool of `capacity` elements is allocated."""
        generations = doc["generations"]
        if type(generations) is not list or len(generations) != capacity:
            raise ValueError(f"generations has shape {np.shape(generations)}, "
                             f"expected ({capacity},)")

    def load_snapshot_doc(self, doc: dict) -> None:
        """Load doc's pool section; `load_slot` checks types and shapes, `validate` the rest."""
        load_slot(self.generation, doc["generations"], "generations")
        self.free_list = list(doc["free_list"])
        if type(doc["elements"]) is not dict:
            raise ValueError("elements is not an object")
        for key, el_doc in doc["elements"].items():
            self.load_element(int(key), el_doc)

    def element_doc(self, e: int) -> dict:
        """Element e's statistics as JSON-ready lists, by snapshot key;
        "hists" holds one (cardinality, |C|) list per attribute."""
        doc = {key: (arr[e] if axes is None else arr[e].transpose(axes)).tolist()
               for key, arr, axes in self._doc_keys}
        doc["hists"] = [self.hist[e, rows].tolist() for rows in self._cat_rows]
        return doc

    def load_element(self, e: int, doc: dict) -> None:
        """Overwrite element e's statistics from an `element_doc` dict; raises
        ValueError for a value whose type or shape does not fit its slot."""
        for key, arr, axes in self._doc_keys:
            # a view in the snapshot's nesting, 0-d for n_f
            load_slot(arr[e, ...] if axes is None else arr[e].transpose(axes), doc[key], key)
        for rows, table in zip(self._cat_rows, doc["hists"], strict=True):
            load_slot(self.hist[e, rows], table, "hists")

    def _to_tracker_units(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """Reals in tracker units, with how many saturated on the way."""
        if self.backend == BACKEND_FIXED:
            return fx.float_to_raw_array(x)
        return x, 0

    def _element_views(self, e: int) -> tuple:
        """Element e's (min_a row, max_a row, per-class banks) as views: a
        bank is the class's (Q, A) trackers or its (g_mean, g_vsum) rows.
        They stay valid while the arrays do, since `release` and
        `load_element` write in place."""
        if self.method == METHOD_QUANTILE:
            banks = list(self.trackers[e])
        else:
            banks = list(zip(self.g_mean[e], self.g_vsum[e]))
        views = self._views[e] = (self.min_a[e], self.max_a[e], banks)
        return views

    def observe(self, e: int, values: Sequence, label: int) -> tuple[int, int]:
        """Fold one sample into element e; returns (n_f, n_fj[label])."""
        n = self.n_f.item(e) + 1
        self.n_f[e] = n
        cj = self.n_fj.item(e, label) + 1
        self.n_fj[e, label] = cj

        if self.numeric_idx:
            # the parser's float64 row and its chunk's words, or one array built here
            xv, words, at = getattr(values, "forwarded", None) or (
                np.array([values[i] for i in self.numeric_idx], dtype=np.float64), None, 0)
            views = self._views.get(e)
            if views is None:
                views = self._element_views(e)
            lo, hi, banks = views
            np.minimum(lo, xv, out=lo)
            np.maximum(hi, xv, out=hi)
            if self.method == METHOD_QUANTILE:
                # inside the window no value saturates, on conversion or
                # in the step toward it
                edge = False
                if self.backend == BACKEND_FLOAT:
                    xt = xv
                elif words is not None and self.forward_raw:
                    xt = words.row(at)
                else:
                    xs = xv.tolist()  # Python min and max beat numpy's on a short row
                    if self._safe_lo <= min(xs) and max(xs) <= self._safe_hi:
                        xt = fx.quantize_array(xv)
                    else:
                        xt, sat = fx.float_to_raw_array(xv)
                        self.saturation_count += sat
                        edge = True
                v = banks[label]
                if cj == 1:
                    v[...] = xt
                else:
                    v += np.where(v < xt, self.step_up, self._neg_step_down)
                    if edge:
                        self.saturation_count += fx.saturate_raw_array(v)
            else:
                m, vs = banks[label]
                if cj == 1:
                    m[...] = xv
                    vs[...] = 0.0
                else:
                    d = xv - m
                    m += d / cj
                    vs += d * (xv - m)

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
            # compared as (|C|, Q, n, P) and summed over Q, whole (n, P)
            # blocks at a time; dist_L is laid out (n, P, |C|) again, so
            # the trial sums each row's classes along a contiguous axis,
            # in the same float order as ever
            q = self.trackers[e].compress(valid, axis=2)
            below = (q[:, :, :, None] < pt).sum(axis=1).transpose(1, 2, 0)
            dist_l = np.divide(below, self.quantile_count, order="C")
            dist_l *= counts
        else:
            mean = self.g_mean[e].T[valid]  # (n, C)
            vs = self.g_vsum[e].T[valid]
            # a step at the mean everywhere, then the fitted (attribute,
            # class) pairs overwritten by their CDF as one (k, P) block;
            # fewer than two samples or no spread leaves a pair a step
            cdf = np.where(pts[:, :, None] < mean[:, None, :], 0.0, 1.0)
            a, j = np.nonzero((counts > 1) & (vs > 0.0))
            var = vs[a, j] / (counts[j] - 1.0)
            cdf[a, :, j] = normal_cdf(pts[a], mean[a, j][:, None], var[:, None])
            dist_l = counts * cdf
        # a class with no samples has count 0, so its column is 0.0: every
        # fraction above lies in [0, 1]
        return dist_l
