"""Q2.30 saturating fixed-point arithmetic.

32-bit two's-complement words with a 30-bit fraction: value = raw / 2**30,
range [-2, 2 - 2**-30], resolution 2**-30. Overflow saturates to the range
edge instead of wrapping, at any finite magnitude (2.5, 1e10 and 1e300
all give RAW_MAX). Raw words are int64 arrays, read back as `raw / SCALE`;
there are no scalar copies. The fixed numeric backend keeps its quantile
trackers as raw words and steps them toward samples in [-1, 1], whose
words never saturate: `quantize_array` rounds those with no edge test.
Only `leaf_stats.StatsPool` calls it on samples: a parsed chunk's
normalized float64 block whole, once, when the pool builds that chunk's
sample bank (the words repeated over the Q trackers of a bank), and a
hand-built row on its own; the CSV parser knows no backend and forwards
the block as is. `float_to_raw_array`
brings split points and gains into tracker units, clipping only when a
value saturates. `mul_raw_array` forms the tracker steps, and
`saturate_raw_array` clips a step when the gain makes steps long enough
to leave Q2.30 (see `leaf_stats`).
"""

from __future__ import annotations

import numpy as np

FRAC_BITS = 30
SCALE = 1 << FRAC_BITS
RAW_MIN = -(1 << 31)
RAW_MAX = (1 << 31) - 1
HALF = 1 << (FRAC_BITS - 1)
# x * SCALE rounds (half to even) above RAW_MAX exactly when x >= _X_MAX,
# and below RAW_MIN exactly when x < _X_MIN: RAW_MAX + 1/2 rounds to the
# even 2**31, RAW_MIN - 1/2 to the even RAW_MIN. Both are exact float64s.
_X_MAX = (RAW_MAX + 0.5) / SCALE
_X_MIN = (RAW_MIN - 0.5) / SCALE


def float_to_raw_array(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Quantize reals (round-half-even, saturating); returns (int64 raw
    array, saturation count). Only a saturating input is clipped, in float
    before the scaling, so huge values neither overflow nor wrap."""
    x = np.asarray(x, dtype=np.float64)
    saturated = int(np.count_nonzero((x >= _X_MAX) | (x < _X_MIN)))
    if saturated:
        x = np.clip(x, RAW_MIN / SCALE, RAW_MAX / SCALE)
    return quantize_array(x), saturated


def quantize_array(x: np.ndarray) -> np.ndarray:
    """Raw words of float64 reals the caller knows lie inside Q2.30: the
    rounding of `float_to_raw_array` without its edge test."""
    # x * 2**30 is exact (a power-of-two scaling only shifts the
    # exponent), so rint sees the true rational value
    scaled = x * SCALE
    return np.rint(scaled, out=scaled).astype(np.int64)


def mul_raw_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of raw words, reduced back to Q2.30 with
    round-half-even and saturated."""
    # |a * b| <= 2**62 fits in int64; divmod floors, so 0 <= r < SCALE
    q, r = np.divmod(np.multiply(a, b, dtype=np.int64), SCALE)
    q += (r > HALF) | ((r == HALF) & (q & 1 == 1))
    saturate_raw_array(q)
    return q


def saturate_raw_array(raw: np.ndarray) -> int:
    """In-place clip of an int64 array to the 32-bit window; returns lanes clipped."""
    saturated = int(np.count_nonzero((raw > RAW_MAX) | (raw < RAW_MIN)))
    if saturated:
        np.clip(raw, RAW_MIN, RAW_MAX, out=raw)
    return saturated
