"""Per-leaf training statistics stored in flat shared pools.

All statistics for every leaf live in preallocated arrays indexed by
element first, so memory is bounded by capacity however the tree grows.
The pool owns an element's lifecycle: `alloc` pops a dense integer id off
a LIFO free list and sets the element's `min_a`/`max_a` rows to (inf,
-inf); `release` resets the element's slices, counts the recycling in
`generation` and pushes the id back. Every array, the range rows
included, is allocated as zeros that the OS maps on first write, so a
pool costs memory for the elements handed out, not for its capacity. A
leaf holds its id and nothing else: the tree reads the arrays directly,
with no per-access guard. The pool checks its live elements (`validate`)
and writes and reads its snapshot section; it is built from a validated
`TreeConfig`.

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
down planes, or a Welford update on (A,) rows. A parsed sample's step
compares the bank with the sample already repeated over the Q rows, a
(Q, A) view of its chunk's sample bank (below), not with the (A,) row:
the booleans are the same, and numpy compares two (Q, A) arrays in well
under half the time it takes to broadcast the row. A hand-built row is
broadcast. The select between the up and down planes is written into a
per-pool (Q, A) buffer, the down plane copied in (an `[...]` store,
which meets no dispatch layer, unlike `np.copyto`) and the up plane put
where the compare holds (`np.putmask`), then added to the bank: the
lanes and bits of `np.where`, without the array it allocates.

A quantile pool builds one sample bank per parsed chunk, the first time
one of its rows arrives: the chunk in tracker units, each row repeated
over Q, shape (rows, Q, A), 32 x Q x A x 8 bytes (110,592 at A = 54 and
Q = 8). It keeps the last chunk and its bank, compared by identity, so a
stream read in order builds each chunk's bank once; samples out of chunk
order, or from two streams, build it again at each switch, to the same
values. The gaussian method builds none.

`observe` reaches an element's per-class banks through views built on
the element's first sample, not per capacity; they stay valid because
loading writes in place, and `release` drops them, so only live elements
hold views. The range is written behind: `observe` appends the sample's
numeric row to the element's list of pending rows, a view into the
parser's chunk (a hand-built row's own array), and the list is folded
into `min_a`/`max_a`, with one `np.array` and one reduction per extreme,
when it holds RANGE_BLOCK_ROWS (32) rows and before every read:
`split_points` (the trial), `element_doc` and `snapshot_doc`,
`validate`, and the `min_a`/`max_a` properties. A view keeps its whole
chunk alive (32 x A x 8 bytes, 13,824 at A = 54) until its element
folds, so the pending rows pin at most one chunk per row, and only the
chunks that rows of unfolded elements came from: up to 31 chunks for an
element visited once in 32 samples or more rarely, more than its
tracker banks on a wide schema. Only elements with
pending rows are folded; `release` and `load_element` discard an
element's pending rows. No row holds -0.0, so min and max are
order-free and the fold has the bits a np.minimum/np.maximum per sample
gives.

Snapshots keep the (A, |C|, Q) and (A, |C|) nesting per element under the
same keys. `snapshot_doc` writes all live elements at once: per key, one
block of their rows, transposed into that nesting, and one `tolist()`.
`load_snapshot_doc` reads them back with one conversion, one shape check
and one store per key; `element_doc` and `load_element` are the
one-element case of the same code.

`observe` takes numeric values in [-1, 1]. On a parsed sample it reads its
row of the normalized float64 chunk that `SampleStream` forwards in the
values' private slot, and it trusts that slot only on the parser's own
row type, parsed under this pool's schema object; any other list, as a
library caller builds it (its range checked by the caller), becomes one
array, plus 0.0, so that a hand-built -0.0 learns as the 0.0 the parser
would yield. What the config fixes (method, backend, whether any
attribute is categorical, `clip_steps`) is decided once per pool.
`observe` returns the element's updated sample count and the sample's
class count as Python ints, so the tree reads neither back from the
arrays.

Both numeric backends run one tracker kernel on one `trackers` array,
held in float64 reals or in int64 raw Q2.30 words; they differ only where
reals enter tracker units, and in saturation. On the fixed backend no
value in [-1, 1] saturates on conversion: the pool alone rounds with
`fx.quantize_array`, a parsed chunk whole when its sample bank is built,
any other row on its own. Trackers start inside Q2.30 (seeded at a
sample's word; `restore` rejects a payload whose trackers
do not), and a step moves a tracker toward the sample by at most one
step, so only a step of about 1.0 or longer can leave Q2.30: then
(`clip_steps`, decided once per pool, `lam` past ~1.1 at Q = 8) every
step is clipped and `saturation_count` counts the lanes clipped;
otherwise it stays 0. Only `StatsPool` knows which arrays an element
owns: recycling and snapshots walk `element_arrays`.

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
from .schema import CATEGORICAL, NUMERIC, DatasetSchema, _Row

if TYPE_CHECKING:  # tree imports this module
    from .tree import TreeConfig

METHOD_QUANTILE = "quantile"
METHOD_GAUSSIAN = "gaussian"
BACKEND_FLOAT = "float"
BACKEND_FIXED = "fixed"
# rows of an element's write-behind range block (`StatsPool.observe`)
RANGE_BLOCK_ROWS = 32


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


def json_block(vals, shape: tuple, key: str, is_int: bool) -> np.ndarray:
    """JSON `vals` as an int64 or float64 array of `shape`, or raise
    ValueError naming `key`."""
    v = int_array(vals, key) if is_int else np.asarray(vals, dtype=np.float64)
    if v.shape != shape:
        # tolist() writes an empty array's nesting down to its first 0 axis
        if 0 not in shape or v.shape != shape[:shape.index(0) + 1]:
            raise ValueError(f"{key} has shape {v.shape}, expected {shape}")
        v = v.reshape(shape)
    return v


def json_column(vals: list, shape: tuple, key: str, is_int: bool) -> np.ndarray:
    """The JSON values of len(vals) elements, each of `shape`, as one array;
    a value that does not fit raises `json_block`'s error for that element."""
    try:
        return json_block(vals, (len(vals), *shape), key, is_int)
    except ValueError:
        # ragged or mistyped: element by element, so the error names the
        # element's own shape
        return np.stack([json_block(v, shape, key, is_int) for v in vals])


class StatsPool:
    """Flat statistics arrays for up to `capacity` live elements."""

    def __init__(self, schema: DatasetSchema, config: "TreeConfig", capacity: int):
        self.schema = schema
        self.capacity = capacity
        self.method = method = config.method
        backend = config.numeric_backend
        # what the config fixes, decided once for `observe`
        self._quantile = method == METHOD_QUANTILE
        self._fixed = backend == BACKEND_FIXED
        self.clip_steps = False  # a tracker step can leave Q2.30
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
        # set element by element by `alloc`; read through `min_a`/`max_a`
        self._min_a = np.zeros((capacity, A))
        self._max_a = np.zeros((capacity, A))
        self.hist = np.zeros((capacity, sum(cards), C), dtype=np.int64)
        # Every per-element statistic, by snapshot key, with the value a
        # recycled element holds.
        self.element_arrays = {
            "n_f": (self.n_f, 0),
            "n_fj": (self.n_fj, 0),
            "min_a": (self._min_a, np.inf),
            "max_a": (self._max_a, -np.inf),
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
                # toward a word in [-SCALE, SCALE] only a step of ~1.0 or more leaves Q2.30
                self.clip_steps = bool(up.max() > fx.RAW_MAX - fx.SCALE
                                       or down.max() > -fx.SCALE - fx.RAW_MIN)
            # whole (Q, A) planes, the shape of a bank, so that a step picks
            # between them element by element with nothing to broadcast
            self.step_up, self.step_down = (np.repeat(g, A, axis=1) for g in (up, down))
            self._neg_step_down = -self.step_down
            # a tracker starts at a sample in [-1, 1] and steps toward each
            # later one, so it stays within one step of [-1, 1]; rounding is
            # monotone, so the float sums bound the float trackers too
            one = fx.SCALE if self._fixed else 1.0
            self._tracker_lo = -one - self.step_down
            self._tracker_hi = one + self.step_up
            # a step's per-lane select is written here: a copy and a putmask
            # cost less than the array np.where allocates
            self._step = np.zeros((Q, A), dtype=dtype)
            self.trackers = np.zeros((capacity, C, Q, A), dtype=dtype)
            self.element_arrays[key] = (self.trackers, 0)
            doc_axes[key] = (2, 0, 1)  # (|C|, Q, A) -> (A, |C|, Q)
        else:
            self.g_mean = np.zeros((capacity, C, A))
            self.g_vsum = np.zeros((capacity, C, A))
            for key, arr in (("g_mean", self.g_mean), ("g_vsum", self.g_vsum)):
                self.element_arrays[key] = (arr, 0.0)
                doc_axes[key] = (1, 0)  # (|C|, A) -> (A, |C|)
        # Every statistic but "hists", which the snapshot splits per
        # attribute: its key and array, the axes that turn a block of
        # elements' rows into the snapshot nesting and back, and one
        # element's shape in that nesting.
        self._doc_keys = []
        for key, (arr, _) in self.element_arrays.items():
            if key != "hists":
                axes = doc_axes.get(key, range(arr.ndim - 1))
                to_doc = (0, *(a + 1 for a in axes))
                from_doc = tuple(to_doc.index(a) for a in range(arr.ndim))
                shape = tuple(arr.shape[a] for a in to_doc[1:])
                self._doc_keys.append((key, arr, to_doc, from_doc, shape))

        self.saturation_count = 0
        # element -> its per-class banks (`_element_views`), built on its
        # first sample: never per capacity, as `restore` builds a pool per
        # snapshot
        self._views: dict[int, list] = {}
        # element -> its numeric rows not yet folded into its range
        self._pending: dict[int, list] = {}
        # the parser's last chunk seen and its sample bank (quantile method)
        self._bank_chunk = self._bank = None
        self.free_list = list(range(capacity - 1, -1, -1))  # pops 0, 1, 2, ...

    @property
    def allocated_count(self) -> int:
        return self.capacity - len(self.free_list)

    @property
    def min_a(self) -> np.ndarray:
        """Each element's lowest numeric values, shape (capacity, A)."""
        self._fold_all()
        return self._min_a

    @property
    def max_a(self) -> np.ndarray:
        """Each element's highest numeric values, shape (capacity, A)."""
        self._fold_all()
        return self._max_a

    def alloc(self) -> int:
        if not self.free_list:
            raise RuntimeError("element pool exhausted")
        e = self.free_list.pop()
        self._min_a[e] = np.inf
        self._max_a[e] = -np.inf
        return e

    def release(self, e: int) -> None:
        """Recycle element e: reset its statistics in place, drop its views,
        count it, free its id."""
        self.generation[e] += 1
        self._pending.pop(e, None)
        self._views.pop(e, None)
        for arr, empty in self.element_arrays.values():
            arr[e] = empty
        self.free_list.append(e)

    def live_elements(self) -> list[int]:
        """The allocated ids, ascending."""
        live = np.ones(self.capacity, dtype=bool)
        live[self.free_list] = False
        return np.flatnonzero(live).tolist()

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
        ranged = (-1.0 <= lo) & (lo <= hi) & (hi <= 1.0)  # False for NaN
        empty = (lo == np.inf) & (hi == -np.inf)
        if not np.where((n_f > 0)[:, None], ranged, empty).all():
            raise ValueError("an element's min_a..max_a is not (inf, -inf) before its first "
                             "sample, or in [-1, 1] with min_a <= max_a after it")
        if self._fixed:
            # observe clips no step unless `clip_steps`, so it relies on
            # every tracker starting inside Q2.30
            q = self.trackers[idx]
            if ((q < fx.RAW_MIN) | (q > fx.RAW_MAX)).any():
                raise ValueError("a raw tracker lies outside Q2.30")
        else:
            moments = ((self.trackers,) if self._quantile else (self.g_mean, self.g_vsum))
            if not all(np.isfinite(a[idx]).all() for a in moments):
                raise ValueError("an element's tracker or gaussian statistics are not finite")
            # the mean of values in [-1, 1], and a sum of squares
            if not self._quantile and not ((abs(self.g_mean[idx]) <= 1.0).all()
                                           and (self.g_vsum[idx] >= 0.0).all()):
                raise ValueError("an element's gaussian mean is not in [-1, 1], "
                                 "or its variance sum is negative")
        if self._quantile:
            q = self.trackers[idx]
            if ((q < self._tracker_lo) | (q > self._tracker_hi)).any():
                raise ValueError("an element's tracker lies further than one of its steps "
                                 "outside [-1, 1]")

    def snapshot_doc(self) -> dict:
        """The pool's snapshot section, by key."""
        live = self.live_elements()
        return {"elements": dict(zip(map(str, live), self._element_docs(live))),
                "free_list": list(self.free_list), "generations": self.generation.tolist()}

    @staticmethod
    def check_snapshot_size(doc: dict, capacity: int) -> None:
        """The shape check `load_snapshot_doc` makes of doc's generations, one
        per element, made before a pool of `capacity` elements is allocated."""
        generations = doc["generations"]
        if type(generations) is not list or len(generations) != capacity:
            raise ValueError(f"generations has shape {np.shape(generations)}, "
                             f"expected ({capacity},)")

    def load_snapshot_doc(self, doc: dict) -> list[int]:
        """Load doc's pool section and return the element ids its statistics
        are keyed by; `json_block` checks types and shapes, `validate` the rest."""
        self.generation[...] = json_block(doc["generations"], self.generation.shape,
                                          "generations", True)
        self.free_list = list(doc["free_list"])
        elements = doc["elements"]
        if type(elements) is not dict:
            raise ValueError("elements is not an object")
        ids = []
        for key in elements:
            e = int(key) if key.isascii() and key.isdigit() else None
            # only str(e) names e, so no two keys name one element
            if e is None or str(e) != key or e >= self.capacity:
                raise ValueError(f"element key {key!r} is not an element id "
                                 f"in 0..{self.capacity - 1}")
            ids.append(e)
        self._load_elements(ids, list(elements.values()))
        return ids

    def element_doc(self, e: int) -> dict:
        """Element e's statistics as JSON-ready lists, by snapshot key."""
        return self._element_docs([e])[0]

    def load_element(self, e: int, doc: dict) -> None:
        """Overwrite element e's statistics from an `element_doc` dict."""
        self._load_elements([e], [doc])

    def _element_docs(self, live: list[int]) -> list[dict]:
        """The statistics of elements `live` as JSON-ready dicts by snapshot
        key, one `tolist()` per key; "hists" holds one (cardinality, |C|)
        list per attribute."""
        self._fold_all()
        keys = [key for key, *_ in self._doc_keys]
        columns = [arr[live].transpose(to_doc).tolist() for _, arr, to_doc, _, _ in self._doc_keys]
        hists = [self.hist[live, rows].tolist() for rows in self._cat_rows]
        return [dict(zip(keys, values), hists=tables)
                for values, *tables in zip(zip(*columns), *hists)]

    def _load_elements(self, ids: list[int], docs: list) -> None:
        """Overwrite elements `ids` from their `element_doc` dicts, one
        conversion, shape check and store per key; raises ValueError naming
        the key for a value whose type or shape does not fit its slot."""
        for e in ids:
            self._pending.pop(e, None)
        for key, arr, _, from_doc, shape in self._doc_keys:
            arr[ids] = json_column([d[key] for d in docs], shape, key,
                                   arr.dtype.kind == "i").transpose(from_doc)
        hists = (d["hists"] for d in docs)
        for rows, *tables in zip(self._cat_rows, *hists, strict=True):
            shape = (rows.stop - rows.start, self.class_count)
            self.hist[ids, rows] = json_column(tables, shape, "hists", True)

    def _to_tracker_units(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        """Reals in tracker units, with how many saturated on the way."""
        if self._fixed:
            return fx.float_to_raw_array(x)
        return x, 0

    def _element_views(self, e: int) -> list:
        """Element e's per-class banks: a bank is the class's (Q, A)
        trackers or its (g_mean, g_vsum) rows, as views that stay valid
        while the arrays do, since `load_element` writes in place;
        `release` drops them."""
        if self._quantile:
            banks = self._views[e] = list(self.trackers[e])
        else:
            banks = self._views[e] = list(zip(self.g_mean[e], self.g_vsum[e]))
        return banks

    def _fold(self, e: int, rows: list) -> None:
        """Fold element e's pending numeric rows into its min_a/max_a rows
        with one array and one reduction per extreme: no row holds -0.0,
        so the order numpy reduces in cannot change the bits."""
        block = np.array(rows)
        for ufunc, out in ((np.minimum, self._min_a[e]), (np.maximum, self._max_a[e])):
            ufunc(out, ufunc.reduce(block), out=out)

    def _fold_all(self) -> None:
        """Fold every element's pending range rows."""
        pending = self._pending
        while pending:
            self._fold(*pending.popitem())

    def observe(self, e: int, values: Sequence, label: int) -> tuple[int, int]:
        """Fold one sample, its numeric values in [-1, 1] (its callers check
        them), into element e; returns (n_f, n_fj[label])."""
        n = self.n_f.item(e) + 1
        self.n_f[e] = n
        cj = self.n_fj.item(e, label) + 1
        self.n_fj[e, label] = cj

        if self.numeric_idx:
            # the parser's chunk and row under this pool's schema object, or
            # one array built here, -0.0 made 0.0
            fwd = values._fwd if type(values) is _Row else None
            if fwd is not None and fwd[2] is self.schema:
                chunk, at, _ = fwd
                xv = chunk[at]
            else:
                chunk = None
                xv = np.array([values[i] for i in self.numeric_idx], dtype=np.float64)
                xv += 0.0
            banks = self._views.get(e)
            if banks is None:
                banks = self._element_views(e)
            # the range is written behind: the row now, min_a/max_a at a fold
            rows = self._pending.get(e)
            if rows is None:
                self._pending[e] = [xv]
            else:
                rows.append(xv)
                if len(rows) == RANGE_BLOCK_ROWS:
                    del self._pending[e]
                    self._fold(e, rows)
            if self._quantile:
                if chunk is None:
                    # an (A,) row, broadcast over the bank's Q trackers;
                    # values in [-1, 1] never saturate on conversion
                    xb = fx.quantize_array(xv) if self._fixed else xv
                else:
                    if chunk is not self._bank_chunk:
                        # the chunk in tracker units, each row repeated over
                        # a bank's Q trackers: (rows, Q, A)
                        units = fx.quantize_array(chunk) if self._fixed else chunk
                        self._bank = units[:, None, :].repeat(self.quantile_count, axis=1)
                        self._bank_chunk = chunk
                    xb = self._bank[at]
                v = banks[label]
                if cj == 1:
                    v[...] = xb
                else:
                    step = self._step
                    step[...] = self._neg_step_down
                    np.putmask(step, v < xb, self.step_up)
                    v += step
                    if self.clip_steps:
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

        if self.cat_idx:
            for i, start in zip(self.cat_idx, self.cat_start):
                self.hist[e, start + values[i], label] += 1
        return n, cj

    def split_points(self, e: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The (A,) mask of numeric attributes whose observed range is not
        empty (min < max), and count evenly spaced interior points of each
        of those ranges, shape (mask.sum(), count)."""
        rows = self._pending.pop(e, None)
        if rows:
            self._fold(e, rows)
        lo = self._min_a[e]
        hi = self._max_a[e]
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
        if self._quantile:
            # split points lie in [-1, 1], so none saturates
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
