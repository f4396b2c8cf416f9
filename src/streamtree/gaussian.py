"""Incremental Gaussian attribute model used as the comparison baseline.

Mean and variance accumulate in a single pass (Welford update). The CDF at
a split point comes from the fitted normal; a degenerate fit (fewer than
two samples, or zero spread) collapses to a step function at the mean.
`normal_cdf` serves scalar callers and whole split-trial tables alike.
"""

from __future__ import annotations

import math

import numpy as np

# math.erf itself, lifted elementwise over arrays, so array and scalar
# callers get the same bits
_erf = np.frompyfunc(math.erf, 1, 1)


class GaussianStats:
    __slots__ = ("weight_sum", "mean", "variance_sum", "initialized")

    def __init__(self):
        self.weight_sum = 0.0
        self.mean = 0.0
        self.variance_sum = 0.0
        self.initialized = False

    def update(self, x: float, weight: float = 1.0) -> None:
        if weight <= 0:
            raise ValueError("weight must be > 0")
        if not self.initialized:
            self.mean = x
            self.weight_sum = weight
            self.variance_sum = 0.0
            self.initialized = True
            return
        self.weight_sum += weight
        prior = self.mean
        self.mean += weight * (x - prior) / self.weight_sum
        self.variance_sum += weight * (x - prior) * (x - self.mean)

    @property
    def variance(self) -> float:
        """Sample variance; defined only after two or more observations."""
        if self.weight_sum <= 1.0:
            raise ValueError("variance undefined for weight_sum <= 1")
        return self.variance_sum / (self.weight_sum - 1.0)

    def cdf(self, pt: float) -> float:
        """P(X < pt) under the fitted normal, step function if degenerate."""
        if self.weight_sum <= 1.0 or self.variance_sum <= 0.0:
            return 0.0 if pt < self.mean else 1.0
        return normal_cdf(pt, self.mean, self.variance)


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
