"""Scalar references for the two numeric kernels of `StatsPool`.

The learner runs one quantile-tracker kernel and one Welford update,
vectorized over a pool's (element, attribute, class) slices. These are
the same two rules written one sample at a time in plain Python, so the
tests can compare the pool against them with `==`.
"""


def track_quantiles(xs, targets, lam):
    """Stream xs through a fresh tracker bank with step size lam and return
    the final tracker values. The first sample seeds every tracker; after
    that a tracker below the sample moves up by lam * alpha, and any other
    moves down by lam * (1 - alpha). Runs quantile-major, each tracker in
    a local through the whole scan."""
    xs = [float(x) for x in xs]
    values = []
    for alpha in targets:
        up = lam * alpha
        down = lam * (1.0 - alpha)
        v = xs[0]
        for x in xs[1:]:
            if v < x:
                v += up
            else:
                v -= down
        values.append(v)
    return values


def welford(xs):
    """Unit-weight one-pass (mean, variance sum) of xs; the sample variance
    is the sum over len(xs) - 1."""
    mean = vsum = 0.0
    for n, x in enumerate(xs, 1):
        if n == 1:
            mean = x
            continue
        d = x - mean
        new = mean + d / n
        vsum += d * (x - new)
        mean = new
    return mean, vsum
