"""Fixed-policy statistical tests for the verification harness.

Every test emits a TestReport whose json form has a fixed seven-key
schema, so reports from different criteria can be concatenated and
audited uniformly.  The levels are module constants, which no caller
sets: the per-test significance DEFAULT_ALPHA of the KS and chi-square
tests, the expected count _MIN_EXPECTED that every chi-square bin
reaches, and the sigma bound _Z_MAX of the atom test.  KS tests refuse
small samples rather than silently losing power; the chi-square helper
merges sparse tail bins; atom masses are checked by a normal
approximation to the binomial and independence claims by a hard
correlation bound.

Samples must be finite and one-dimensional: the KS and correlation
helpers raise ValueError on a NaN or an infinity, and on a stack of
samples or a scalar, naming its shape.  NaN breaks the total order the empirical cdfs
rest on and has no correlation, and an infinity is no draw from the
continuous laws these tests compare.

The two-sample statistic is computed from one stable merge of the two
sorted samples.  Walking the merge, the counts c_a and c_b of points from
each sample seen so far are the two empirical cdfs times n and m.  At the
last member of each tie group (equal values, -0.0 and +0.0 together) they
are exactly the counts of points <= that value, and the sup is read at
those group ends only.  They are the integer pairs a binary search of
every point into both samples (searchsorted, side="right") would give, and
c_a/n - c_b/m is rounded the same way, so the statistic is that search's
bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DEFAULT_ALPHA",
    "KS_MIN_N",
    "TestReport",
    "ks_distance",
    "ks_one_sample",
    "ks_two_sample",
    "chi_square_pmf",
    "binomial_atom_test",
    "correlation_test",
]

DEFAULT_ALPHA = 0.001
_MIN_EXPECTED = 5.0
_Z_MAX = 3.0
# below this a KS test at our alpha cannot resolve the deviations we care about
KS_MIN_N = 2000


@dataclass(eq=False)
class TestReport:
    """Outcome of one statistical test.

    statistic is compared against threshold (reject when it exceeds);
    claim names the verified statement; metadata carries diagnostics that
    are not part of the serialized record.
    """

    __test__ = False  # bare name looks like a pytest class

    name: str
    statistic: float
    threshold: float
    n: int
    seed: int
    passed: bool
    claim: str = ""
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "n": int(self.n),
            "seed": int(self.seed),
            "pass": bool(self.passed),
            "paper_ref": self.claim,
        }

    def __str__(self):
        tag = "PASS" if self.passed else "FAIL"
        return (f"{tag} {self.name}: statistic={self.statistic:.5g} "
                f"threshold={self.threshold:.5g} n={self.n}")


# the Kolmogorov-Smirnov critical value at DEFAULT_ALPHA
_KS_CRITICAL = math.sqrt(-math.log(DEFAULT_ALPHA / 2.0) / 2.0)


def _finite(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("the test needs a finite sample")
    return x


def _sample(x) -> np.ndarray:
    """x as a finite one-dimensional sample; a stack or a scalar is refused
    by its shape."""
    x = _finite(x)
    if x.ndim != 1:
        raise ValueError(f"the test needs a one-dimensional sample, got shape {x.shape}")
    return x


def ks_distance(sample, cdf) -> float:
    """Sup distance between the empirical cdf of sample and a cdf."""
    x = np.sort(_sample(sample))
    n = len(x)
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(x), dtype=np.float64)
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / n))))


def ks_one_sample(sample, cdf, name: str, seed: int, claim: str = "") -> TestReport:
    """Kolmogorov-Smirnov test of sample against a continuous cdf."""
    sample = _sample(sample)
    n = len(sample)
    if n < KS_MIN_N:
        raise ValueError(f"KS test needs at least {KS_MIN_N} points, got {n}")
    d = ks_distance(sample, cdf)
    threshold = _KS_CRITICAL / math.sqrt(n)
    return TestReport(name, d, threshold, n, seed, d < threshold, claim,
                      {"alpha": DEFAULT_ALPHA})


def ks_two_sample(a, b, name: str, seed: int, claim: str = "") -> TestReport:
    """Two-sample Kolmogorov-Smirnov test for equality of continuous laws."""
    a, b = _sample(a), _sample(b)
    n, m = len(a), len(b)
    if min(n, m) < KS_MIN_N:
        raise ValueError(f"KS test needs at least {KS_MIN_N} points per sample")
    # Both samples sorted in one buffer; a stable sort of two sorted runs
    # is a single linear merge (numpy's timsort finds the runs).
    merged = np.concatenate([a, b])
    merged[:n].sort()
    merged[n:].sort()
    order = merged.argsort(kind="stable")
    merged.sort(kind="stable")
    # the last member of each tie group
    last = np.empty(n + m, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=last[:-1])
    last[-1] = True
    from_a = order < n
    cdf_a = np.divide(np.cumsum(from_a, out=order), n, out=merged)
    cdf_b = np.cumsum(np.logical_not(from_a, out=from_a), out=order) / m
    gap = np.abs(np.subtract(cdf_a, cdf_b, out=cdf_a), out=cdf_a)
    d = float(np.max(gap, where=last, initial=0.0))
    threshold = _KS_CRITICAL * math.sqrt((n + m) / (n * m))
    return TestReport(name, d, threshold, n + m, seed, d < threshold, claim,
                      {"alpha": DEFAULT_ALPHA, "n_a": n, "n_b": m})


def chi_square_pmf(counts, probs, name: str, seed: int, claim: str = "") -> TestReport:
    """Chi-square goodness of fit of observed bin counts to a pmf.

    probs must cover all mass of the binning (include the tail as its own
    bin); bins are merged from the right until every expected count
    reaches _MIN_EXPECTED.  A binning that merges into one bin, which
    leaves no degree of freedom, is refused.
    """
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    if counts.shape != probs.shape:
        raise ValueError("counts and probs must have matching shapes")
    total_p = float(np.sum(probs))
    if not math.isclose(total_p, 1.0, abs_tol=1e-9):
        raise ValueError("bin probabilities must sum to one")
    total = float(np.sum(counts))
    expected = total * probs
    obs = list(counts)
    exp = list(expected)
    while len(exp) > 1 and exp[-1] < _MIN_EXPECTED:
        exp[-2] = exp[-2] + exp[-1]
        exp.pop()
        obs[-2] = obs[-2] + obs[-1]
        obs.pop()
    if exp[0] < _MIN_EXPECTED:
        raise ValueError("sample too small for the requested binning")
    if len(exp) < 2:
        raise ValueError("the binning merges into one bin, which leaves no "
                         "degree of freedom")
    obs_a = np.asarray(obs)
    exp_a = np.asarray(exp)
    stat = float(np.sum((obs_a - exp_a) ** 2 / exp_a))
    df = len(exp) - 1
    # Imported here, not at module level: only this test needs scipy, and
    # importing it would cost every other user of cgmlab (the CLI included).
    from scipy.stats import chi2
    threshold = float(chi2.ppf(1.0 - DEFAULT_ALPHA, df))
    return TestReport(name, stat, threshold, int(total), seed, stat < threshold,
                      claim, {"alpha": DEFAULT_ALPHA, "df": df,
                              "p_value": float(chi2.sf(stat, df)),
                              "bins": len(exp)})


def binomial_atom_test(hits: int, n: int, p0: float, name: str, seed: int,
                       claim: str = "") -> TestReport:
    """Normal-approximation test that an event frequency matches p0.

    The z-score of the observed count is judged against the fixed sigma
    bound _Z_MAX, three, rather than an alpha level.
    """
    if n <= 0:
        raise ValueError("need a positive sample size")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie strictly inside (0, 1)")
    z = (hits - n * p0) / math.sqrt(n * p0 * (1.0 - p0))
    return TestReport(name, abs(z), _Z_MAX, n, seed, abs(z) < _Z_MAX,
                      claim, {"hits": int(hits), "p0": p0})


def correlation_test(x, y, name: str, seed: int, claim: str = "") -> TestReport:
    """Sample correlation of two supposedly independent sequences, judged
    against the hard bound 4/sqrt(n)."""
    x, y = _finite(x), _finite(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("need two equal-length vectors")
    n = len(x)
    if n < 16:
        raise ValueError("too few replicas for a correlation check")
    sx = float(np.std(x))
    sy = float(np.std(y))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("degenerate sample in correlation test")
    r = float(np.corrcoef(x, y)[0, 1])
    threshold = 4.0 / math.sqrt(n)
    return TestReport(name, abs(r), threshold, n, seed, abs(r) < threshold, claim)
