"""The benchmark's arithmetic: percentiles, the tail rule, recovery time and
ratios that carry their base.  Kept apart from run.py so the self-tests
(test_benchmath.py) exercise exactly what the benchmark reports."""

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)


def percentile(samples, p):
    """Linear-interpolated percentile (p in [0, 100]) of a non-empty list."""
    if not samples:
        raise ValueError("percentile of no samples")
    xs = sorted(samples)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    frac = pos - lo
    return xs[lo] + (xs[hi] - xs[lo]) * frac


def beyond(n, p):
    """Samples strictly above the p-th percentile of n samples."""
    return n - math.ceil(n * p / 100.0)


def tail(samples, wanted=99.0):
    """The tail percentile the sample count supports.

    Returns (p, value, n_beyond): `wanted` when at least ten samples lie
    beyond it, otherwise the highest of TAIL_PERCENTILES below `wanted`
    that has ten beyond it (None when not even the median has)."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if p > wanted:
            continue
        k = beyond(n, p)
        if k >= 10:
            return p, percentile(samples, p), k
    return None, None, 0


def recovery_s(rate, warmup_s, fault_s, heal_s):
    """Seconds from the heal until the 1 s section rate first returns to its
    pre-fault median.

    `rate[k]` counts sections completed in simulated second [k, k+1).  The
    pre-fault median is taken over whole seconds in [warmup_s, fault_s);
    the answer is the end of the first second at or after the heal whose
    count reaches it, minus the heal time, so it is never below the bucket
    width.  Returns (seconds, recovered)."""
    pre = rate[int(math.ceil(warmup_s)):int(math.floor(fault_s))]
    if not pre:
        raise ValueError("no pre-fault seconds")
    target = statistics.median(pre)
    for k in range(int(math.floor(heal_s)), len(rate)):
        if rate[k] >= target:
            return (k + 1) - heal_s, True
    return len(rate) - heal_s, False


class Ratio:
    """A ratio that remembers its numerator and denominator, so every
    printed ratio shows its base."""

    def __init__(self, num, den, num_label, den_label):
        self.num = num
        self.den = den
        self.num_label = num_label
        self.den_label = den_label

    @property
    def value(self):
        return self.num / self.den if self.den else 0.0

    def __str__(self):
        return "%.6g (= %s %s / %s %s)" % (
            self.value, _fmt(self.num), self.num_label, _fmt(self.den),
            self.den_label)


def _fmt(x):
    return ("%d" % x) if float(x).is_integer() else ("%.6g" % x)


def quietest(phases, share):
    """The `share` of sub-phases (at least one) in which the host stole the
    least CPU time, ties going to the earlier one.  Each phase is a dict
    with a `steal_ticks` count; the result keeps run order."""
    k = max(1, int(len(phases) * share))
    ranked = sorted(range(len(phases)),
                    key=lambda i: (phases[i]["steal_ticks"], i))
    return [phases[i] for i in sorted(ranked[:k])]


def spread(values):
    """Inter-quartile range over the median, as the acceptance rule uses."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")
