"""Normal CDF for the Gaussian comparison baseline.

The mean and variance sum it reads are accumulated in `StatsPool`. The
CDF at a split point comes from the fitted normal; a degenerate fit
(fewer than two samples, or zero spread) collapses to a step function at
the mean. `normal_cdf` serves scalar callers and whole split-trial
blocks alike. `math.erf` itself is mapped over the entries straight into
a float64 buffer, so array and scalar callers get the same bits, and a
block whose entries are all fitted is evaluated with no gather.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)


def _phi(z: np.ndarray) -> np.ndarray:
    """0.5 * (1 + erf(z / sqrt 2)) per entry, with math.erf's bits."""
    w = (z / _SQRT2).ravel().tolist()
    erf = np.fromiter(map(math.erf, w), np.float64, len(w)).reshape(z.shape)
    return 0.5 * (1.0 + erf)


def normal_cdf(pt, mean, variance):
    """Phi((pt - mean)/sqrt(variance)), a step at the mean where variance <= 0.

    Scalars give a float; arrays broadcast together and give an array.
    """
    pt, mean, variance = (np.asarray(x, dtype=np.float64) for x in (pt, mean, variance))
    if not (variance <= 0.0).any():
        out = _phi((pt - mean) / np.sqrt(variance))
    else:
        pt, mean, variance = np.broadcast_arrays(pt, mean, variance)
        out = np.where(pt < mean, 0.0, 1.0)
        fit = ~(variance <= 0.0)
        out[fit] = _phi((pt[fit] - mean[fit]) / np.sqrt(variance[fit]))
    return float(out) if out.ndim == 0 else out
