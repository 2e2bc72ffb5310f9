"""Multiclass configurations driven by queueing maps.

A MultiConfig is a stack of aligned increment windows, one per class line,
optionally tagged with the mean of each line: the stack form of
rng.SeqWindow, whose offset, end and suffix it shares, so a config cut by
BoundaryPolicy.trim keeps its rates.  Two Markov dynamics act on it.  The
multiline step feeds the shared service window through the lines in
order, each line seeing the unused input of the one before.  The
coupled step applies the departure map with the same service window to
every line.  The iterated departure map (line i folded through lines
i-1, ..., 0) intertwines the two dynamics and pushes independent
exponential lines forward to the coupled stationary law, which is how
sample_mu_rho draws it.  check_intertwining checks that identity, one
report per line order, from one multiline step.  The triangular arrays
expose every intermediate departure/unused pair of that fold; their
columns are multiline steps, their diagonal reproduces the fold, and
selected entries satisfy exact independence properties that
check_independence_structure estimates by correlation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .rng import RngSpec, SeqWindow, sample_exp_window, same_window
from .queueing import (BoundaryPolicy, DEFAULT_POLICY, IdentityReport, lindley_iterate,
                       _check, _fold, _unused_chain)

__all__ = [
    "MultiConfig",
    "TriArray",
    "IndependenceReport",
    "multiline_step",
    "coupled_step",
    "dmap",
    "sample_mu_rho",
    "build_triangular_arrays",
    "check_intertwining",
    "check_independence_structure",
]


@dataclass(eq=False)
class MultiConfig(SeqWindow):
    """Aligned increment windows for n class lines: a SeqWindow stack.

    values has shape (n_lines, length); line i covers the same index
    window offset .. offset + length - 1, and offset, end and suffix are
    the window's.  rates, when present, records the nominal mean of each
    line, and a suffix keeps it.
    """

    rates: tuple[float, ...] | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.values.ndim != 2:
            raise ValueError("MultiConfig values must be 2-dimensional")
        if self.values.shape[1] == 0:
            raise ValueError("empty window")
        if self.rates is not None:
            self.rates = tuple(float(r) for r in self.rates)
            if len(self.rates) != self.values.shape[0]:
                raise ValueError("rates length must match the number of lines")
            # Written so that a NaN rate fails it too.
            if not all(0 < r < np.inf for r in self.rates):
                raise ValueError("rates must be positive and finite")

    @property
    def n_lines(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def line(self, i: int) -> SeqWindow:
        return SeqWindow(self.offset, self.values[i])

    @staticmethod
    def from_lines(lines: list[SeqWindow], rates=None) -> "MultiConfig":
        same_window(*lines)
        return MultiConfig(lines[0].offset, np.vstack([w.values for w in lines]), rates)


def multiline_step(config: MultiConfig, services: SeqWindow,
                   policy: BoundaryPolicy = DEFAULT_POLICY) -> MultiConfig:
    """One multiline update: line i departs against the unused input of line i-1.

    The bottom line sees the given service window; each following line sees
    what the previous line left unused.  Burn-in trimming happens once at
    the end so the chained stages stay aligned.
    """
    same_window(config.line(0), services)
    lines = [config.line(i) for i in range(config.n_lines)]
    chain = _unused_chain(lines, services, policy.j_left)
    return policy.trim(MultiConfig.from_lines([dep for dep, _ in chain], config.rates))


def coupled_step(config: MultiConfig, services: SeqWindow,
                 policy: BoundaryPolicy = DEFAULT_POLICY) -> MultiConfig:
    """One coupled update: every line departs against the same service window."""
    same_window(config.line(0), services)
    out_lines = [lindley_iterate(policy.j_left, config.line(i), services).departures
                 for i in range(config.n_lines)]
    return policy.trim(MultiConfig.from_lines(out_lines, config.rates))


def _fold_lines(lines: list[SeqWindow], j_left: float) -> list[SeqWindow]:
    """Line i folded through lines i-1, ..., 0 as services, line 0 as it
    is, untrimmed; every queue starts from the left sojourn value j_left."""
    return [lines[0]] + [_fold(lines[i::-1], j_left) for i in range(1, len(lines))]


def dmap(config: MultiConfig, policy: BoundaryPolicy = DEFAULT_POLICY) -> MultiConfig:
    """The iterated departure map across lines.

    Output line i is line i folded through lines i-1, ..., 0 as services;
    line 0 passes through unchanged.  Means should increase with the line
    index for the queues to be stable.
    """
    means = config.values.mean(axis=1)
    if np.any(np.diff(means) <= 0):
        warnings.warn("line means should be strictly increasing for a stable fold")
    lines = [config.line(i) for i in range(config.n_lines)]
    return policy.trim(MultiConfig.from_lines(_fold_lines(lines, policy.j_left),
                                              config.rates))


def sample_mu_rho(rates, offset: int, length: int, spec: RngSpec,
                  policy: BoundaryPolicy = DEFAULT_POLICY) -> MultiConfig:
    """Draw the coupled stationary configuration for the given line means.

    Independent exponential lines at the sorted distinct means are pushed
    through the iterated departure map; tied means (exact float equality)
    share one computed line, and unsorted inputs are sorted for the
    computation and unsorted on output.  Different draws must use different
    RngSpec labels, the sampler is a pure function of its spec.
    Each rate is a draw mean, so one outside (0, inf), or a NaN, is refused.
    """
    rates = tuple(float(r) for r in rates)
    if not rates:
        raise ValueError("need at least one rate")
    if length <= 0:
        raise ValueError("window length must be positive")
    distinct = sorted(set(rates))
    group = {r: g for g, r in enumerate(distinct)}
    lines = [sample_exp_window(offset, length, r, spec.sub(f"line{g}"))
             for g, r in enumerate(distinct)]
    # Each line is folded over its own draw, the top line first: line i is
    # read as a service only by the folds of the lines above it.
    for i in range(len(lines) - 1, 0, -1):
        _fold(lines[i::-1], policy.j_left, lines[i].values)
    # each line trimmed before the stack is built, so the stack holds only
    # the slots the config keeps
    return MultiConfig.from_lines([policy.trim(lines[group[r]]) for r in rates], rates)


@dataclass(eq=False)
class TriArray:
    """Departure/unused triangular arrays of the iterated departure fold.

    eta[i][j] (0-indexed, j <= i) is the j-th departure stage of line i;
    xi[i][j] is the unused input handed to stage j+1.  The diagonal
    eta[i][i] is the iterated departure map of the input lines.
    """

    offset: int
    eta: list[list[SeqWindow]]
    xi: list[list[SeqWindow]]
    rates: tuple[float, ...] | None = None

    @property
    def n_lines(self) -> int:
        return len(self.eta)

    def diagonal(self) -> MultiConfig:
        return MultiConfig.from_lines([self.eta[i][i] for i in range(self.n_lines)],
                                      self.rates)


def build_triangular_arrays(config: MultiConfig,
                            policy: BoundaryPolicy = DEFAULT_POLICY) -> TriArray:
    """All intermediate departure/unused stages of the iterated departure map.

    Row i starts from line i and is driven stage by stage through the
    unused outputs of row i-1, so column j is one multiline step: lines
    j, ..., n-1 at stage j-1 against the diagonal entry eta[j-1][j-1].  The
    diagonal is checked against the direct fold, both started from the
    policy's left sojourn value, over the whole window.
    """
    n = config.n_lines
    eta = [[config.line(i)] for i in range(n)]
    xi = [[] for _ in range(n)]
    for j in range(1, n):
        chain = _unused_chain([row[j - 1] for row in eta[j:]], eta[j - 1][j - 1],
                              policy.j_left)
        for i, (dep, rel) in enumerate(chain, j):
            eta[i].append(dep)
            xi[i].append(rel)
    for i in range(n):
        xi[i].append(eta[i][i])
    arr = TriArray(config.offset, eta, xi, config.rates)
    if n > 1:
        direct = _fold_lines([config.line(i) for i in range(n)], policy.j_left)
        err = np.max(np.abs(arr.diagonal().values - MultiConfig.from_lines(direct).values))
        if err > 1e-9:
            raise AssertionError(
                f"triangular array diagonal deviates from the departure fold by {err:.3e}")
    return arr


def check_intertwining(lines: list[SeqWindow],
                       services: SeqWindow) -> tuple[IdentityReport, ...]:
    """The intertwining reports of orders 2, ..., n for n lines.

    lines are in config order, bottom line first, each one window or a
    stack of K aligned windows; services is the bottom service sequence.
    Order k compares line k-1 of the coupled step after the departure
    fold with line k-1 of the fold after the multiline step.  With lines
    [I^1, ..., I^n] and services w^1 that is D^(k+1)(I^k, ..., I^1, w^1) =
    D^(k)(D(I^k, w^k), ..., D(I^1, w^1)), each w^(j+1) the unused input
    R(I^j, w^j); order 2 is the bracket exchange identity for nested
    departure maps, and order 1 holds by construction, unchecked.  One
    multiline step serves every order.  Every queue starts empty at the
    west edge, so agreement is asserted, at 1e-9, on the interior that
    DEFAULT_POLICY keeps.
    """
    if not lines:
        raise ValueError("need at least one line")
    same_window(*lines, services)
    j = DEFAULT_POLICY.j_left
    stepped = [dep for dep, _ in _unused_chain(lines, services, j)]
    interior = len(DEFAULT_POLICY.trim(services))

    def error(k):
        # line k-1 folded through lines k-2, ..., 0 and then the services,
        # against the multiline step's line k-1 folded the same way; only
        # the difference outlives this line
        yield (DEFAULT_POLICY.trim(_fold([*lines[k - 1::-1], services], j)).values
               - DEFAULT_POLICY.trim(_fold(stepped[k - 1::-1], j)).values)

    return tuple(_check(f"intertwining-{k}", error(k), 1e-9, order=k, interior=interior)
                 for k in range(2, len(lines) + 1))


@dataclass(eq=False)
class IndependenceReport:
    """Cross-group correlation summary for the triangular-array variables."""

    labels: list[str]
    groups: list[int]
    matrix: np.ndarray
    bound: float
    max_cross_corr: float
    passed: bool

    def __str__(self):
        tag = "ok" if self.passed else "FAIL"
        return (f"independence: max cross-group |r| = {self.max_cross_corr:.4f} "
                f"(bound {self.bound:.4f}) {tag}")


def check_independence_structure(arrays: list[TriArray], k: int) -> IndependenceReport:
    """Estimate correlations among variables that are exactly independent.

    For each replica array the extracted variables are: two entries (at k-1
    and k) of every unused-input row of the last line, the last line's
    fold output at k-1, the successive fold differences at k, and the first
    line at k.  Variables from different groups are independent, so their
    sample correlations over replicas must stay within 4/sqrt(replicas).
    """
    if not arrays:
        raise ValueError("need at least one replica array")
    n = arrays[0].n_lines
    if n < 2:
        raise ValueError("independence structure needs at least two lines")
    offset = arrays[0].offset
    pos = offset + k
    labels: list[str] = []
    groups: list[int] = []
    gid = 0
    for j in range(n - 1):
        labels += [f"xi[{n},{j + 1}]_{{k-1}}", f"xi[{n},{j + 1}]_k"]
        groups += [gid, gid]
        gid += 1
    labels.append("eta[n]_{k-1}")
    groups.append(gid)
    gid += 1
    for i in range(n - 1):
        labels.append(f"diff eta[{i + 2}]-eta[{i + 1}] at k")
        groups.append(gid)
        gid += 1
    labels.append("eta[1]_k")
    groups.append(gid)

    rows = []
    for arr in arrays:
        if arr.n_lines != n or arr.offset != offset:
            raise ValueError("replica arrays are not aligned")
        a = pos - offset
        if a < 1 or a >= len(arr.eta[0][0]):
            raise ValueError("index k outside the replica window")
        diag = [arr.eta[i][i].values for i in range(n)]
        row = []
        for j in range(n - 1):
            vals = arr.xi[n - 1][j].values
            row += [vals[a - 1], vals[a]]
        row.append(diag[n - 1][a - 1])
        for i in range(n - 1):
            row.append(diag[i + 1][a] - diag[i][a])
        row.append(diag[0][a])
        rows.append(row)
    data = np.asarray(rows)
    matrix = np.corrcoef(data, rowvar=False)
    bound = 4.0 / np.sqrt(len(arrays))
    worst = 0.0
    g = np.asarray(groups)
    for p in range(len(labels)):
        for q in range(p + 1, len(labels)):
            if g[p] != g[q]:
                worst = max(worst, abs(float(matrix[p, q])))
    return IndependenceReport(labels, groups, matrix, bound, worst, worst < bound)
