"""Closed-form laws used as references by the simulation checks.

Catalan numbers and the Catalan triangle feed the run-length
distributions; the Poisson competition probabilities give the race
interpretation of the same sums; the atom-plus-exponential increment law
and the multiplicative marked point process describe how the stationary
horizontal increment varies with its mean parameter.  One sampler,
sample_X_blocks, draws every marked process: criterion 11 reads its blocks
of rows, sample_X_process is its one-row case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .rng import ExpFieldRows, RngSpec

__all__ = [
    "catalan_number",
    "catalan_triangle",
    "initial_run_pmf",
    "poisson_competition_A",
    "poisson_competition_B",
    "AtomTailLaw",
    "increment_law",
    "MarkedPointProcess",
    "sample_X_blocks",
    "sample_X_process",
    "X_value",
    "rho_star_cdf",
]

# rows beyond this are not built by the additive recurrence: their entries
# come from the closed form, exact in integers or in log-gamma form
_EXACT_ROW_LIMIT = 300


def catalan_number(n: int) -> int:
    """The n-th Catalan number, exact."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


@lru_cache(maxsize=None)
def _triangle_row(n: int) -> tuple[int, ...]:
    if n == 0:
        return (1,)
    prev = _triangle_row(n - 1)
    row = [1]
    for k in range(1, n + 1):
        above = prev[k] if k < n else 0
        row.append(row[k - 1] + above)
    return tuple(row)


def catalan_triangle(n: int, k: int) -> int:
    """Catalan triangle entry: paths with n rises and k falls, never
    more falls than rises.  Zero when k exceeds n."""
    if n < 0 or k < 0:
        raise ValueError("indices must be nonnegative")
    if k > n:
        return 0
    if n > _EXACT_ROW_LIMIT:
        return math.comb(n + k, k) * (n - k + 1) // (n + 1)
    return _triangle_row(n)[k]


def _log_triangle(n: int, k: int) -> float:
    # (n+k)! (n-k+1) / (k! (n+1)!)
    return (math.lgamma(n + k + 1) + math.log(n - k + 1)
            - math.lgamma(k + 1) - math.lgamma(n + 2))


def _triangle_weighted_sum(n: int, log_hi: float, log_lo: float) -> float:
    """sum_{k<=n} C(n,k) * exp(k*log_hi - (n+k)*log_lo), stably."""
    if n <= _EXACT_ROW_LIMIT:
        row = _triangle_row(n)
        logs = [math.log(row[k]) + k * log_hi - (n + k) * log_lo
                for k in range(n + 1)]
    else:
        logs = [_log_triangle(n, k) + k * log_hi - (n + k) * log_lo
                for k in range(n + 1)]
    peak = max(logs)
    return math.exp(peak) * math.fsum(math.exp(v - peak) for v in logs)


def initial_run_pmf(rho: float, n: int) -> float:
    """Length law of the initial straight run of the stationary geodesic
    at mean parameter rho > 1: atom 1 - 1/rho at zero, Catalan-weighted
    tail, the chance (rho - 1) / rho of the atom times
    poisson_competition_A(n, 1, rho)."""
    if not rho > 1:
        raise ValueError("rho must exceed 1")
    return (rho - 1) / rho * poisson_competition_A(n, 1.0, rho)


def poisson_competition_A(n: int, alpha: float, beta: float) -> float:
    """Probability that each of the first n points of the rate-alpha
    Poisson stream arrives before the matching point of the rate-beta
    stream."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError("rates must be positive and finite")
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1.0
    total = _triangle_weighted_sum(n - 1, math.log(beta), math.log(alpha + beta))
    return total * math.exp(n * math.log(alpha) - math.log(alpha + beta))


def poisson_competition_B(n: int, alpha: float, beta: float) -> float:
    """Probability that the rate-alpha stream leads the first n-1 paired
    comparisons and loses the n-th, its first dropped point."""
    if not (0 < alpha < math.inf and 0 < beta < math.inf):
        raise ValueError("rates must be positive and finite")
    if n < 1:
        raise ValueError("n must be at least 1")
    log_c = math.log(catalan_number(n - 1)) if n - 1 <= _EXACT_ROW_LIMIT \
        else _log_triangle(n - 1, n - 1)
    return math.exp(log_c + (n - 1) * math.log(alpha) + n * math.log(beta)
                    - (2 * n - 1) * math.log(alpha + beta))


@dataclass(frozen=True)
class AtomTailLaw:
    """Mixture of an atom at zero and an exponential tail."""

    atom: float
    tail_mean: float

    def __post_init__(self):
        if not 0.0 <= self.atom <= 1.0:
            raise ValueError("atom mass must lie in [0, 1]")
        if not 0 < self.tail_mean < math.inf:
            raise ValueError("tail mean must be positive and finite")

    def cdf(self, s):
        s = np.asarray(s, dtype=np.float64)
        out = np.where(s < 0, 0.0,
                       self.atom + (1.0 - self.atom) * -np.expm1(-s / self.tail_mean))
        return out if out.ndim else float(out)

    def sf(self, s):
        s = np.asarray(s, dtype=np.float64)
        out = np.where(s < 0, 1.0,
                       (1.0 - self.atom) * np.exp(-s / self.tail_mean))
        return out if out.ndim else float(out)

    def laplace(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = self.atom + (1.0 - self.atom) / (1.0 + self.tail_mean * t)
        return out if out.ndim else float(out)

    def sample(self, count: int, spec: RngSpec) -> np.ndarray:
        """Inverse-cdf draw; pure function of the RngSpec."""
        u = spec.generator().random(count)
        with np.errstate(divide="ignore"):
            tail = -self.tail_mean * np.log((1.0 - u) / (1.0 - self.atom)) \
                if self.atom < 1.0 else np.zeros(count)
        return np.where(u < self.atom, 0.0, tail)


def increment_law(lam: float, rho: float) -> AtomTailLaw:
    """Law of the increment between the marked-process values at means
    lam <= rho: atom lam/rho at zero, exponential tail of mean rho."""
    if not 0 < lam <= rho:
        raise ValueError("need 0 < lam <= rho")
    return AtomTailLaw(lam / rho, rho)


@dataclass(frozen=True)
class MarkedPointProcess:
    """Atoms of the mean-parameter process on [1, rho_max] (1-D), or a
    (k, cols + 1) block of k processes from sample_X_blocks, each row
    running past rho_max.  points[..., 0] is 1; later points follow the
    ds/s intensity, each with an exponential mark of mean its location.
    The readers work along the last axis.
    """

    points: np.ndarray
    marks: np.ndarray
    rho_max: float

    def count_in(self, lo: float, hi: float):
        """Number of points in the half-open interval (lo, hi]: an int for
        one process, one count per row for a block."""
        counts = np.sum((self.points > lo) & (self.points <= hi), axis=-1)
        return int(counts) if counts.ndim == 0 else counts


def sample_X_blocks(m: int, rho_max: float, spec: RngSpec, cols: int, rows: int):
    """An iterator over m marked processes as blocks of `rows` rows (the
    last may be shorter), each a view of buffers that the next block
    overwrites.

    A row draws a budget of `cols` unit gaps from spec.sub("gaps") through
    rng.ExpFieldRows: its points are 1, then exp(cumsum(gaps)), and its
    marks are unit exponentials from spec.sub("marks") times the points.
    Raises ValueError at once on a rho_max outside [1, inf) or an m, cols
    or rows below 1, and RuntimeError, once iterated, if a row's budget
    ends at or before rho_max.
    """
    if not 1.0 <= rho_max < math.inf:
        raise ValueError("rho_max must be finite and at least 1")
    if min(m, cols, rows) < 1:
        raise ValueError("m, cols and rows must be at least 1")
    gap_rows = ExpFieldRows(m, cols, 1.0, spec.sub("gaps")).blocks(buf=np.empty((rows, cols)))
    mark_rows = ExpFieldRows(m, cols + 1, 1.0, spec.sub("marks")).blocks(
        buf=np.empty((rows, cols + 1)))
    return _X_blocks(gap_rows, mark_rows, np.empty((rows, cols + 1)), rho_max)


def _X_blocks(gap_rows, mark_rows, loc_buf: np.ndarray, rho_max: float):
    """sample_X_blocks' blocks, from its gap and mark row blocks, with the
    locations in loc_buf."""
    limit = math.log(rho_max)
    for gaps, marks in zip(gap_rows, mark_rows):
        locs = loc_buf[:len(gaps)]
        locs[:, 0] = 0.0
        np.cumsum(gaps, axis=1, out=locs[:, 1:])  # the log-locations
        if not np.all(locs[:, -1] > limit):
            raise RuntimeError("point budget exhausted before the range end")
        np.exp(locs, out=locs)
        yield MarkedPointProcess(locs, np.multiply(marks, locs, out=marks), rho_max)


def sample_X_process(rho_max: float, spec: RngSpec) -> MarkedPointProcess:
    """Draw the marked point process up to rho_max.

    The one-row case of sample_X_blocks, cut to the points <= rho_max.
    Row 0 of a budget of c gaps is the first c draws of each stream, so
    when a budget ends short of rho_max it is doubled and row 0 drawn
    again.  Deterministic in the RngSpec.
    """
    cols = 64
    while True:
        try:
            proc = next(sample_X_blocks(1, rho_max, spec, cols, 1))
            break
        except RuntimeError:
            cols *= 2
    keep = proc.points[0] <= rho_max
    return MarkedPointProcess(proc.points[0, keep], proc.marks[0, keep], rho_max)


def X_value(process: MarkedPointProcess, rho: float):
    """Sum of marks at points not exceeding rho: a float for one process,
    one sum per row for a block."""
    if not 1.0 <= rho <= process.rho_max:
        raise ValueError("rho outside the sampled range")
    total = np.sum(process.marks * (process.points <= rho), axis=-1)
    return float(total) if total.ndim == 0 else total


def rho_star_cdf(lam):
    """Distribution function of the threshold parameter: 1 - 1/lam on
    [1, infinity), zero below 1."""
    lam = np.asarray(lam, dtype=np.float64)
    out = np.where(lam < 1.0, 0.0, 1.0 - 1.0 / np.maximum(lam, 1.0))
    return out if out.ndim else float(out)
