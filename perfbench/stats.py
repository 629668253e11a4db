"""Order statistics used by the benchmark's reports."""

import math
import statistics


def percentile(values, q):
    """The q-th percentile (0..100), interpolating between closest ranks.

    Matches numpy's default ("linear") method; 0.0 for no values.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def spread(values):
    """Quartile distance as a share of the median, as the run gate takes it.

    Uses ``statistics.quantiles(values, n=4)``; 0.0 when the median is 0.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def change_share(base, new):
    """How far ``new`` lies from ``base``, either way, as a share of ``base``."""
    if not base:
        return 0.0 if new == base else math.inf
    return abs(new - base) / abs(base)


def scaled(values, references, nominal):
    """Mean of ``values`` on a machine that runs the reference in ``nominal``.

    ``references`` are times of one fixed computation taken in the same
    run. The host alternates between a fast and a slow state, so a mean
    moves in proportion to the share of the run spent slow, for the
    values and the references alike, and the ratio of the two means
    cancels that share; a median jumps between the two states instead.
    0.0 for no values or no references.
    """
    if not values or not references:
        return 0.0
    return mean(values) * nominal / mean(references)
