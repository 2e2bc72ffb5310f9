"""The thirteen acceptance criteria as runnable, seeded suites.

Each criterion function draws everything it needs from a master seed and
returns the statistical or exact reports plus small CSV-ready artifacts.
The seed policy for statistical suites: a criterion counts as passing
when all of its reports pass at the primary seed or, failing that, at one
of two fixed backup seeds; the aggregate primary-seed pass rate must stay
at 95 percent or higher.

The sample-heavy fast criteria hold a bounded working set.  Criteria 10
and 11 draw their sample rows through rng.ExpFieldRows into fixed block
buffers of about 800 KB per array, and transform and reduce them a block
at a time; criterion 11 reads the blocks of exact.sample_X_blocks, the
one sampler of the marked point process.  Each stream is carried on by
one generator from block to block, so their results are bit for bit those
of one whole-array draw.  Criterion 2 draws each block of instances
straight into stacks of windows: the block's queues, which its sweep
checks read and which are freed before its four lines are drawn.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .rng import (ExpFieldRows, RngSpec, SeqWindow, _draw_exp, sample_exp_field,
                  sample_exp_window)
from .lpp import brute_force_table, corner_fill, lpp_grid
from .queueing import DEFAULT_POLICY, check_strip_identities, check_sweep_identities
from .multiclass import (MultiConfig, check_intertwining, coupled_step, multiline_step,
                         sample_mu_rho)
from .busemann import (estimate_busemann_level, estimate_nested_levels,
                       geodesic_initial_runs, initial_run_statistics,
                       rho_star_threshold)
from .exact import (X_value, catalan_number, catalan_triangle, increment_law,
                    initial_run_pmf, poisson_competition_A, poisson_competition_B,
                    rho_star_cdf, sample_X_blocks)
from .stats import (TestReport, binomial_atom_test, chi_square_pmf,
                    correlation_test, ks_distance, ks_one_sample, ks_two_sample)

__all__ = [
    "DEFAULT_MASTER_SEED",
    "BACKUP_SEED_OFFSETS",
    "CRITERIA",
    "CriterionResult",
    "run_criterion",
    "seed_ladder",
]

DEFAULT_MASTER_SEED = 20260822
BACKUP_SEED_OFFSETS = (0, 1, 2)


@dataclass(eq=False)
class CriterionResult:
    """Reports plus CSV-ready artifacts for one criterion run."""

    index: int
    seed: int
    reports: list[TestReport]
    artifacts: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _exp_cdf(mean: float):
    return lambda x: -np.expm1(-np.asarray(x) / mean)


def _strict_report(name: str, statistic: float, threshold: float, n: int,
                   seed: int, claim: str, **meta) -> TestReport:
    """The report of a statistic that passes when strictly below its threshold."""
    return TestReport(name, float(statistic), threshold, n, seed,
                      statistic < threshold, claim, meta)


def criterion_1(seed: int, instances: int = 100) -> CriterionResult:
    """Grid recursion against the exhaustive-path oracle on small fields."""
    spec = RngSpec(seed, "criterion1")
    worst = 0.0
    checks = 0
    for r in range(instances):
        field = sample_exp_field(6, 6, 1.0, spec.sub(f"f{r}"))
        ref = brute_force_table(field, (0, 0), (5, 5))
        worst = max(worst, float(np.max(np.abs(lpp_grid(field).values - ref))))
        checks += ref.size
    rep = _strict_report("lpp-oracle-equivalence", worst, 1e-9, checks, seed,
                         "grid recursion equals exhaustive path maximum")
    return CriterionResult(1, seed, [rep])


# Criteria 2 and 3 check their instances in stacks of at most this many, so
# that memory stays bounded whatever the instance count.
_STACK_BLOCK = 256


def _queue_instance(s: RngSpec, rows: np.ndarray) -> tuple[float, np.random.Generator]:
    """Draw one random stable queue into rows (arrivals, services) and
    return its j0 and its generator, carried on for further parameters."""
    gen = s.generator()
    rho = 1.5 + 2.5 * gen.random()
    lam = rho * (0.35 + 0.5 * gen.random())
    j0 = float(_draw_exp(gen, np.empty(()), 1.0))
    # sample_exp_window's draws, written into the rows of a stack
    _draw_exp(s.sub("I").generator(), rows[0], rho)
    _draw_exp(s.sub("w").generator(), rows[1], lam)
    return j0, gen


def _spec_blocks(spec: RngSpec, instances: int):
    """The instances' specs in blocks of at most _STACK_BLOCK, in order."""
    for start in range(0, instances, _STACK_BLOCK):
        yield [spec.sub(f"i{r}") for r in range(start, min(start + _STACK_BLOCK, instances))]


def _queue_stack(specs: list[RngSpec], window: int):
    """One block of queues: its instances' generators and j0 (an array),
    and its arrival and service stacks."""
    stack = np.empty((2, len(specs), window))
    drawn = [_queue_instance(s, stack[:, r]) for r, s in enumerate(specs)]
    j0 = np.array([j for j, _ in drawn])
    return [gen for _, gen in drawn], j0, SeqWindow(1, stack[0]), SeqWindow(1, stack[1])


def _line_stack(specs: list[RngSpec], gens: list, window: int) -> list[SeqWindow]:
    """One block's four line stacks for criterion 2; each instance's line
    means come next from its own generator, after its queue's parameters."""
    lines = np.empty((4, len(specs), window))
    for r, (s, gen) in enumerate(zip(specs, gens)):
        base = 0.7 + 0.6 * gen.random()
        means = base * np.array([1.0, 1.8 + 0.4 * gen.random(),
                                 3.0 + 0.8 * gen.random(), 4.6 + gen.random()])
        for k in range(4):
            _draw_exp(s.sub(f"L{k}").generator(), lines[k, r], means[k])
    return [SeqWindow(1, rows) for rows in lines]


def criterion_2(seed: int, instances: int = 200, window: int = 1000) -> CriterionResult:
    """Queueing identities on random stable instances, checked a block of
    instances at a time as stacks of windows: the sweep identities on the
    block's queues, then, once those are freed, the intertwining on its
    four lines."""
    spec = RngSpec(seed, "criterion2")
    worst: dict[str, float] = {}
    threshold: dict[str, float] = {}
    for specs in _spec_blocks(spec, instances):
        gens, j0, arr, svc = _queue_stack(specs, window)
        reps = list(check_sweep_identities(j0, arr, svc))
        del arr, svc
        seqs = _line_stack(specs, gens, window)
        reps += check_intertwining(seqs[1:], seqs[0])
        for rep in reps:
            worst[rep.name] = max(worst.get(rep.name, 0.0), rep.max_abs_error)
            threshold[rep.name] = rep.tolerance
    claims = {
        "conservation": "per-slot conservation and exchange identities",
        "duality": "reversed outputs regenerate the inputs",
        "T-identity": "split maxima agree between input and output roles",
        "intertwining-2": "nested departure maps exchange with two streams",
        "intertwining-3": "nested departure maps exchange with three streams",
    }
    # Each identity is held, strictly, to the tolerance its check uses.
    reps = [_strict_report(f"queueing-{k}", v, threshold[k], instances,
                           seed, claims[k])
            for k, v in worst.items()]
    return CriterionResult(2, seed, reps)


def criterion_3(seed: int, instances: int = 100, window: int = 1000) -> CriterionResult:
    """Strip passage-time representations on random instances, checked a
    block of instances at a time as stacks of windows."""
    spec = RngSpec(seed, "criterion3")
    worst = 0.0
    for specs in _spec_blocks(spec, instances):
        check = check_strip_identities(*_queue_stack(specs, window)[1:])
        worst = max(worst, check.max_abs_error)
    rep = _strict_report("strip-identities", worst, check.tolerance, instances, seed,
                         "split, reversed-role, and dual strip values agree")
    return CriterionResult(3, seed, [rep])


def criterion_4(seed: int) -> CriterionResult:
    """Product-exponential invariance of one multiline update."""
    spec = RngSpec(seed, "criterion4")
    rates = (1.5, 2.0, 4.0)
    length = 125000
    lines = [sample_exp_window(1, length, r, spec.sub(f"line{i}"))
             for i, r in enumerate(rates)]
    config = MultiConfig.from_lines(lines, rates)
    del lines  # the config holds their one copy
    svc = sample_exp_window(1, length, 1.0, spec.sub("svc"))
    out = multiline_step(config, svc, DEFAULT_POLICY)
    reps = []
    for i, r in enumerate(rates):
        reps.append(ks_one_sample(out.values[i], _exp_cdf(r),
                                  f"multiline-line{i + 1}", seed,
                                  "updated line keeps its exponential law"))
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        reps.append(correlation_test(out.values[a], out.values[b],
                                     f"multiline-cross-{a + 1}{b + 1}", seed,
                                     "updated lines stay uncorrelated"))
    return CriterionResult(4, seed, reps)


def criterion_5(seed: int) -> CriterionResult:
    """Invariance of the coupled stationary law under one shared update."""
    spec = RngSpec(seed, "criterion5")
    rates = (1.5, 2.0, 4.0)
    base = sample_mu_rho(rates, 1, 125000, spec.sub("base"), DEFAULT_POLICY)
    pre = sample_mu_rho(rates, 1, 156250, spec.sub("pre"), DEFAULT_POLICY)
    svc = sample_exp_window(pre.offset, pre.length, 1.0, spec.sub("svc"))
    step = coupled_step(pre, svc, DEFAULT_POLICY)
    reps = []
    for i in range(3):
        reps.append(ks_two_sample(base.values[i], step.values[i],
                                  f"coupled-line{i + 1}", seed,
                                  "updated coupled line matches the stationary line"))
    for i in range(2):
        d_base = (base.values[i + 1] - base.values[i])[::4]
        d_step = (step.values[i + 1] - step.values[i])[::4]
        reps.append(ks_two_sample(d_base, d_step, f"coupled-diff{i + 1}", seed,
                                  "line differences keep their law under the update"))
    return CriterionResult(5, seed, reps)


def _busemann_harvest(rho: float, n: int, target: int, spec: RngSpec):
    hs, vs, rows = [], [], []
    t = 0
    got = 0
    while got < target:
        est = estimate_busemann_level(rho, n, spec.sub(f"t{t}"))
        hs.append(est.horizontal)
        vs.append(est.vertical)
        for k in range(est.window):
            rows.append((k, t, rho, float(est.horizontal[k]), float(est.vertical[k])))
        got += est.window
        t += 1
    h = np.concatenate(hs)[:target]
    v = np.concatenate(vs)[:target]
    return h, v, rows


def criterion_6(seed: int) -> CriterionResult:
    """Exponential marginals of the directional increment estimates.

    The KS bound of 0.04 at n = 2000 sees a bias in an estimate's mean of
    about 3-7% at the least: the sup distance between exponentials whose
    means differ by a fraction eps is about eps/e, and at the primary
    seed the distances already sit at 0.016-0.031.
    """
    spec = RngSpec(seed, "criterion6")
    reps = []
    edge_rows = []
    for rho in (1.5, 2.0, 4.0):
        h, v, rows = _busemann_harvest(rho, 1500, 2000, spec.sub(f"rho{rho}"))
        edge_rows += rows
        for side, sample, mean in (("horizontal", h, rho),
                                   ("vertical", v, rho / (rho - 1.0))):
            reps.append(_strict_report(f"busemann-{side}-{rho}",
                                       ks_distance(sample, _exp_cdf(mean)), 0.04,
                                       len(sample), seed,
                                       f"{side} increment close to its exponential law"))
    # Doubling probe: nested corners on shared fields.  The sup distance at
    # either scale sits at its sampling floor, so the doubled scale is
    # measured on four times the edges; a diverging estimator would still
    # push the full-scale distance above the half-scale one.
    # Each shared 1501x1501 field is drawn and filled a block of rows at a
    # time, together with its nested 751x751 corner when that is read.
    h15, v15, h30, v30 = [], [], [], []
    for r in range(268):
        e30, *e15 = estimate_nested_levels(2.0, (3000, 1500) if r < 67 else (3000,),
                                           spec.sub(f"probe{r}"), window=30)
        h30.append(e30.horizontal)
        v30.append(e30.vertical)
        for e in e15:
            h15.append(e.horizontal)
            v15.append(e.vertical)
    d15 = max(ks_distance(np.concatenate(h15), _exp_cdf(2.0)),
              ks_distance(np.concatenate(v15), _exp_cdf(2.0)))
    d30 = max(ks_distance(np.concatenate(h30), _exp_cdf(2.0)),
              ks_distance(np.concatenate(v30), _exp_cdf(2.0)))
    reps.append(TestReport("busemann-doubling-probe", d30, d15, 8040, seed,
                           d30 <= d15,
                           "doubled scale does not increase the KS distance",
                           {"distance_half_scale": d15, "distance_full_scale": d30}))
    artifacts = {"edges": (["k", "t", "rho", "horizontal", "vertical"], edge_rows)}
    return CriterionResult(6, seed, reps, artifacts)


def criterion_7(seed: int) -> CriterionResult:
    """Atom mass and conditional tail of the two-line increment."""
    spec = RngSpec(seed, "criterion7")
    lam, rho = 1.5, 3.0
    cfg = sample_mu_rho((lam, rho), 1, 525000, spec.sub("mu"), DEFAULT_POLICY)
    d = (cfg.values[1] - cfg.values[0])[::4]
    hits = int(np.sum(d == 0.0))
    reps = [binomial_atom_test(hits, len(d), lam / rho, "increment-atom", seed,
                               "zero-increment frequency matches the atom mass")]
    tail = d[d > 0.0]
    reps.append(ks_one_sample(tail, _exp_cdf(rho), "increment-tail", seed,
                              "positive increments follow the exponential tail"))
    return CriterionResult(7, seed, reps)


def _pmf_total(rho: float, cap: int = 20000) -> float:
    total = initial_run_pmf(rho, 0)
    for n in range(1, cap):
        term = initial_run_pmf(rho, n)
        total += term
        if term < 1e-15 and n > 8:
            break
    return total


def criterion_8(seed: int) -> CriterionResult:
    """Run-length law of walks toward the corner, against the exact pmf."""
    spec = RngSpec(seed, "criterion8")
    max_run = 9
    runs = geodesic_initial_runs(2.0, 800, 10000, spec.sub("runs"),
                                 max_run=max_run)
    counts, probs = initial_run_statistics(runs, 2.0, max_run)
    reps = [chi_square_pmf(counts, probs, "run-length-chisq", seed,
                           "initial straight runs follow the ballot-sum pmf")]
    worst = max(abs(1.0 - _pmf_total(r)) for r in (1.5, 2.0, 5.0))
    reps.append(_strict_report("run-pmf-normalization", worst, 1e-10, 3, seed,
                               "exact run-length pmf sums to one"))
    pmf_rows = [(n, float(counts[n] / counts.sum()), float(probs[n]))
                for n in range(max_run + 1)]
    artifacts = {"pmf": (["n", "empirical", "exact"], pmf_rows)}
    return CriterionResult(8, seed, reps, artifacts)


def criterion_9(seed: int) -> CriterionResult:
    """Distribution of the interface threshold parameter across sites."""
    spec = RngSpec(seed, "criterion9")
    sites = 2000
    est = np.empty(sites)
    for s in range(sites):
        field = sample_exp_field(1001, 1001, 1.0, spec.sub(f"site{s}"),
                                 origin=(-1000, -1000))
        est[s] = rho_star_threshold(field).estimate
    reps = []
    for lam in (1.25, 2.0, 4.0):
        f_hat = float(np.mean(est <= lam))
        gap = abs(f_hat - rho_star_cdf(lam))
        reps.append(_strict_report(f"rho-star-cdf-{lam}", gap, 0.03, sites, seed,
                                   "threshold parameter follows the inverse law",
                                   empirical=f_hat))
    return CriterionResult(9, seed, reps)


# Criteria 10 and 11 take their rows in blocks of about this many doubles
# (800 KB) per array.  A Philox stream drawn in consecutive blocks gives the
# same numbers as one whole-array draw, so no result depends on it.
_DRAW_BLOCK = 100_000


def criterion_10(seed: int) -> CriterionResult:
    """Poisson race closed forms against direct simulation."""
    spec = RngSpec(seed, "criterion10")
    alpha, beta = 1.0, 2.0
    m = 10 ** 6
    # the event compares the streams at every index up to n, so the race
    # needs the full jump-time paths, not just the n-th points
    size = max(1, _DRAW_BLOCK // 3)
    sig_rows, tau_rows = (ExpFieldRows(m, 3, 1.0 / rate, spec.sub(label))
                          .blocks(np.empty((size, 3)))
                          for label, rate in (("alpha", alpha), ("beta", beta)))
    wins = [0, 0, 0]
    for sig, tau in zip(sig_rows, tau_rows):
        for x in (sig, tau):  # the jump times: cumsum's sums, a column at a time
            np.add(x[:, 0], x[:, 1], out=x[:, 1])
            np.add(x[:, 1], x[:, 2], out=x[:, 2])
        run = np.ones(len(sig), dtype=bool)
        for n in (1, 2, 3):
            run &= sig[:, n - 1] < tau[:, n - 1]
            wins[n - 1] += int(np.count_nonzero(run))
    reps = []
    for n in (1, 2, 3):
        p_hat = wins[n - 1] / m
        p = poisson_competition_A(n, alpha, beta)
        z = abs(p_hat - p) / math.sqrt(p * (1.0 - p) / m)
        reps.append(_strict_report(f"competition-A{n}", z, 3.0, m, seed,
                                   "race win probability matches the closed form",
                                   exact=p, empirical=p_hat))
    for a, b in ((1.0, 2.0), (2.0, 1.0)):
        s = sum(poisson_competition_B(n, a, b) for n in range(1, 401))
        target = min(1.0, b / a)
        reps.append(_strict_report(f"competition-B-sum-{a:g}-{b:g}",
                                   abs(s - target), 1e-6, 400, seed,
                                   "tie probabilities sum to the crossing mass"))
    return CriterionResult(10, seed, reps)


def criterion_11(seed: int) -> CriterionResult:
    """Marked-process value at 1, its increments, and its point count."""
    spec = RngSpec(seed, "criterion11")
    m = 100000
    cols = 24
    x1, x2, x4 = np.empty(m), np.empty(m), np.empty(m)
    counts = np.empty(m, dtype=np.int64)
    start = 0
    for block in sample_X_blocks(m, 4.0, spec, cols, max(1, _DRAW_BLOCK // (cols + 1))):
        stop = start + len(block.points)
        for rho, values in ((1.0, x1), (2.0, x2), (4.0, x4)):
            values[start:stop] = X_value(block, rho)
        counts[start:stop] = block.count_in(1.0, math.e)
        start = stop
    reps = [ks_one_sample(x1, _exp_cdf(1.0), "xproc-value-at-1", seed,
                          "value at the base point is unit exponential")]
    ref12 = increment_law(1.0, 2.0).sample(m, spec.sub("ref12"))
    reps.append(ks_two_sample(x2 - x1, ref12, "xproc-incr-1-2", seed,
                              "increment over [1,2] matches the atom-tail law"))
    ref24 = increment_law(2.0, 4.0).sample(m, spec.sub("ref24"))
    reps.append(ks_two_sample(x4 - x2, ref24, "xproc-incr-2-4", seed,
                              "increment over [2,4] matches the atom-tail law"))
    z = abs(float(np.mean(counts)) - 1.0) * math.sqrt(m)
    reps.append(_strict_report("xproc-count", z, 3.0, m, seed,
                               "point count over (1, e] has unit mean",
                               mean=float(np.mean(counts))))
    return CriterionResult(11, seed, reps)


def criterion_12(seed: int) -> CriterionResult:
    """Exact integer identities of the ballot triangle."""
    partial_bad = rowsum_bad = 0
    partial_n = rowsum_n = 0
    for n in range(31):
        acc = 0
        for i in range(n + 1):
            acc += catalan_triangle(n, i)
            partial_n += 1
            if acc != catalan_triangle(n + 1, i):
                partial_bad += 1
        rowsum_n += 1
        if acc != catalan_number(n + 1):
            rowsum_bad += 1
    formula_bad = formula_n = 0
    for n in range(26):
        for k in range(n + 1):
            formula_n += 1
            lhs = catalan_triangle(n, k) * math.factorial(k) * math.factorial(n + 1)
            rhs = math.factorial(n + k) * (n - k + 1)
            if lhs != rhs:
                formula_bad += 1
    reps = [
        _strict_report("catalan-partial-sums", partial_bad, 0.5, partial_n, seed,
                       "row partial sums climb to the next row"),
        _strict_report("catalan-row-sums", rowsum_bad, 0.5, rowsum_n, seed,
                       "row sums give the next Catalan number"),
        _strict_report("catalan-closed-form", formula_bad, 0.5, formula_n, seed,
                       "additive recurrence equals the factorial closed form"),
    ]
    return CriterionResult(12, seed, reps)


def criterion_13(seed: int) -> CriterionResult:
    """Diagonal growth constant at desk scale."""
    spec = RngSpec(seed, "criterion13")
    n = 1500
    vals = []
    for r in range(20):
        corner = corner_fill(ExpFieldRows(n + 1, n + 1, 1.0, spec.sub(f"s{r}")), 1)
        vals.append(float(corner[-1, -1]) / n)
    vals = np.asarray(vals)
    low = int(np.sum(vals < 3.8))
    if low:
        warnings.warn(f"{low} of 20 diagonal growth values fell below 3.8")
    rep = _strict_report("shape-diagonal-trend", float(np.max(vals)), 4.05, 20, seed,
                         "diagonal growth sits just under its limit",
                         mean=float(np.mean(vals)), min=float(np.min(vals)),
                         below_band=low)
    return CriterionResult(13, seed, [rep])


CRITERIA = {
    1: criterion_1, 2: criterion_2, 3: criterion_3, 4: criterion_4,
    5: criterion_5, 6: criterion_6, 7: criterion_7, 8: criterion_8,
    9: criterion_9, 10: criterion_10, 11: criterion_11, 12: criterion_12,
    13: criterion_13,
}


def run_criterion(index: int, seed: int = DEFAULT_MASTER_SEED,
                  **overrides) -> CriterionResult:
    """Run one criterion; overrides (instances, window) go to criteria
    that accept them and error out on ones that do not."""
    if index not in CRITERIA:
        raise ValueError(f"unknown criterion {index}")
    if overrides.get("instances", 1) < 1:
        raise ValueError("instances must be at least 1")
    return CRITERIA[index](seed, **overrides)


def seed_ladder(index: int, seed: int = DEFAULT_MASTER_SEED, **overrides):
    """Run one criterion up its seed ladder, seed + each BACKUP_SEED_OFFSETS.

    Yields (result, wall seconds) for each attempt and stops after the
    first that passes; a caller that wants to stop sooner (say, at a wall
    budget) stops iterating.
    """
    for off in BACKUP_SEED_OFFSETS:
        t0 = time.perf_counter()
        result = run_criterion(index, seed + off, **overrides)
        yield result, time.perf_counter() - t0
        if result.passed:
            return
