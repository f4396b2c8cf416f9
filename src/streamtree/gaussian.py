"""Normal CDF for the Gaussian comparison baseline.

The mean and variance sum it reads are accumulated in `StatsPool`. The
CDF at a split point comes from the fitted normal; a degenerate fit
(fewer than two samples, or zero spread) collapses to a step function at
the mean. `normal_cdf` serves scalar callers and whole split-trial
tables alike.
"""

from __future__ import annotations

import math

import numpy as np

# math.erf itself, lifted elementwise over arrays, so array and scalar
# callers get the same bits
_erf = np.frompyfunc(math.erf, 1, 1)


def normal_cdf(pt, mean, variance):
    """Phi((pt - mean)/sqrt(variance)), a step at the mean where variance <= 0.

    Scalars give a float; arrays broadcast together and give an array.
    """
    pt, mean, variance = np.broadcast_arrays(
        *(np.asarray(x, dtype=np.float64) for x in (pt, mean, variance)))
    out = np.where(pt < mean, 0.0, 1.0)
    fit = ~(variance <= 0.0)
    z = (pt[fit] - mean[fit]) / np.sqrt(variance[fit])
    out[fit] = 0.5 * (1.0 + _erf(z / math.sqrt(2.0)).astype(np.float64))
    return float(out) if out.ndim == 0 else out
