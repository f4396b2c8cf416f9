"""Q2.30 saturating fixed-point arithmetic.

32-bit two's-complement words with a 30-bit fraction: value = raw / 2**30,
range [-2, 2 - 2**-30], resolution 2**-30. Overflow saturates to the range
edge instead of wrapping, at any finite magnitude (2.5, 1e10 and 1e300
all give RAW_MAX). Raw words are plain Python ints or int64 numpy arrays;
there is no boxed scalar type. The fixed numeric backend keeps its
quantile trackers as raw words: `float_to_raw_array` brings samples and
split points into tracker units, clipping only when a value saturates
(`quantize_array` rounds a sample already known to lie inside), and
`saturate_raw_array` clips a tracker step toward a sample within one
step of the edge (see `leaf_stats`).
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


def saturate_raw(v: int) -> int:
    if v > RAW_MAX:
        return RAW_MAX
    if v < RAW_MIN:
        return RAW_MIN
    return v


def float_to_raw(x: float) -> int:
    """Quantize a real to a raw Q2.30 word (round-half-even, saturating)."""
    # x * 2**30 is exact for any float64 that does not overflow: scaling
    # by a power of two only shifts the exponent, so round() sees the true
    # rational value. Saturating values are settled before the product.
    if x >= _X_MAX:
        return RAW_MAX
    if x < _X_MIN:
        return RAW_MIN
    return round(x * SCALE)


def raw_to_float(raw: int) -> float:
    return raw / SCALE


def mul_raw(a: int, b: int) -> int:
    """Full-width product reduced back to Q2.30 with round-half-even."""
    q, r = divmod(a * b, SCALE)
    if r > HALF or (r == HALF and q & 1):
        q += 1
    return saturate_raw(q)


def float_to_raw_array(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Vectorized quantization. Returns (int64 raw array, saturation count).

    Agrees with `float_to_raw` on every finite input. Only an input with a
    saturating value is clipped, in float before the scaling, so huge
    values neither overflow the product nor wrap in the int64 cast.
    """
    x = np.asarray(x, dtype=np.float64)
    saturated = int(np.count_nonzero((x >= _X_MAX) | (x < _X_MIN)))
    if saturated:
        x = np.clip(x, RAW_MIN / SCALE, RAW_MAX / SCALE)
    return quantize_array(x), saturated


def quantize_array(x: np.ndarray) -> np.ndarray:
    """Raw words of float64 reals the caller knows lie inside Q2.30: the
    rounding of `float_to_raw_array` without its edge test."""
    scaled = x * SCALE
    return np.rint(scaled, out=scaled).astype(np.int64)


def raw_to_float_array(raw: np.ndarray) -> np.ndarray:
    return raw.astype(np.float64) / SCALE


def saturate_raw_array(raw: np.ndarray) -> int:
    """In-place clip of an int64 array to the 32-bit window; returns lanes clipped."""
    saturated = int(np.count_nonzero((raw > RAW_MAX) | (raw < RAW_MIN)))
    if saturated:
        np.clip(raw, RAW_MIN, RAW_MAX, out=raw)
    return saturated
