"""Closed-form reference laws: ballot counts, run lengths, races, increments."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gammaln

from cgmlab import exact
from cgmlab.exact import (AtomTailLaw, MarkedPointProcess, X_value,
                          catalan_number, catalan_triangle, increment_law,
                          initial_run_pmf,
                          poisson_competition_A, poisson_competition_B,
                          rho_star_cdf, sample_X_blocks, sample_X_process)
from cgmlab.rng import RngSpec
from cgmlab import verification
from cgmlab.stats import TestReport, ks_one_sample, ks_two_sample
from cgmlab.verification import criterion_10, criterion_11
from test_rng import exp_from_uniform


def test_catalan_numbers():
    assert [catalan_number(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]
    assert catalan_number(60) == math.comb(120, 60) // 61
    with pytest.raises(ValueError):
        catalan_number(-1)


def test_catalan_triangle_entries():
    assert catalan_triangle(4, 2) == 9
    assert catalan_triangle(3, 5) == 0
    for n in range(51):
        assert catalan_triangle(n, 0) == 1
    for n in range(31):
        assert catalan_triangle(n, n) == catalan_number(n)
    with pytest.raises(ValueError):
        catalan_triangle(-1, 0)


def test_catalan_triangle_identities():
    for n in range(31):
        acc = 0
        for i in range(n + 1):
            acc += catalan_triangle(n, i)
            assert acc == catalan_triangle(n + 1, i)
        assert acc == catalan_number(n + 1)
    for n in range(26):
        for k in range(n + 1):
            lhs = catalan_triangle(n, k) * math.factorial(k) * math.factorial(n + 1)
            assert lhs == math.factorial(n + k) * (n - k + 1)


def test_catalan_triangle_past_the_recurrence_rows():
    # Rows past the recurrence's limit, which once recursed a level per row
    # (a RecursionError at n = 1500), against the factorial closed form.
    limit = exact._EXACT_ROW_LIMIT
    for n in (limit - 1, limit, limit + 1, 1500):
        for k in sorted({0, 1, 3, n // 2, n - 1, n}):
            want = math.factorial(n + k) * (n - k + 1) // (
                math.factorial(k) * math.factorial(n + 1))
            assert catalan_triangle(n, k) == want
    # The partial sums of the last recurrence row climb to the first
    # closed-form row.
    acc = 0
    for i in range(limit + 1):
        acc += catalan_triangle(limit, i)
        assert acc == catalan_triangle(limit + 1, i)


def log_triangle_gammaln(n, k):
    """exact._log_triangle in its scipy gammaln form, kept as the oracle."""
    return (gammaln(n + k + 1) + math.log(n - k + 1)
            - gammaln(k + 1) - gammaln(n + 2))


def test_log_triangle_matches_the_gammaln_form(monkeypatch):
    # Every (n, k) that criteria 8 and 10 read in log form: the three
    # run-pmf normalization sums and the two tie-probability sums.
    seen = set()
    log_triangle = exact._log_triangle

    def spy(n, k):
        seen.add((n, k))
        return log_triangle(n, k)

    monkeypatch.setattr(exact, "_log_triangle", spy)
    for rho in (1.5, 2.0, 5.0):
        verification._pmf_total(rho)
    for a, b in ((1.0, 2.0), (2.0, 1.0)):
        for n in range(1, 401):
            poisson_competition_B(n, a, b)
    assert (exact._EXACT_ROW_LIMIT + 1, 0) in seen and (399, 399) in seen
    # Within a few ulps of the largest term, lgamma(n + k + 1); the two
    # forms differed by at most 5 of them when this was written.
    for n, k in seen:
        scale = math.ulp(math.lgamma(n + k + 1))
        assert abs(log_triangle(n, k) - log_triangle_gammaln(n, k)) <= 8 * scale


def test_run_pmf_values_and_normalization():
    for rho in (1.5, 2.0, 5.0):
        assert initial_run_pmf(rho, 0) == pytest.approx(1.0 - 1.0 / rho)
    assert initial_run_pmf(2.0, 1) == pytest.approx(1.0 / 6.0, rel=1e-14)
    for rho, depth in ((1.5, 800), (2.0, 400), (5.0, 200)):
        total = math.fsum(initial_run_pmf(rho, n) for n in range(depth + 1))
        assert abs(total - 1.0) < 1e-10
    for rho in (1.0, 0.5, -2.0, math.nan):
        with pytest.raises(ValueError):
            initial_run_pmf(rho, 1)
    with pytest.raises(ValueError):
        initial_run_pmf(2.0, -1)


def _ballot_survival(a: Fraction, b: Fraction, n: int) -> Fraction:
    """P{sum of n rate-b gaps stays below the matching rate-a sums at every
    index}, by exact integration of the surviving walk density.

    The walk step is the difference of an Exp(rate a) and an Exp(rate b)
    variable; the density of the walk at z >= 0, on the event that it
    never went negative, keeps the form exp(-a z) * P_m(z) with P_m a
    polynomial, and each step updates P_m by exact integration.
    """
    K = a * b / (a + b)
    s = a + b
    fact = [Fraction(math.factorial(i)) for i in range(n + 2)]
    poly = [K]
    for _ in range(n - 1):
        integ = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(poly)]
        upper = [Fraction(0)] * len(poly)
        for j, c in enumerate(poly):
            for i in range(j + 1):
                upper[i] += c * fact[j] / fact[i] / s ** (j + 1 - i)
        width = max(len(integ), len(upper))
        integ += [Fraction(0)] * (width - len(integ))
        upper += [Fraction(0)] * (width - len(upper))
        poly = [K * (integ[i] + upper[i]) for i in range(width)]
    return sum(c * fact[j] / a ** (j + 1) for j, c in enumerate(poly))


def _run_pmf_oracle(lam: Fraction, rho: Fraction, n: int) -> float:
    head = (rho - lam) / rho
    if n == 0:
        return float(head)
    return float(head * _ballot_survival(1 / lam, 1 / rho, n))


def test_run_pmf_against_ballot_oracle():
    # independent route: the pmf tail is the survival probability of the
    # exponential-difference walk, computed in exact rational arithmetic
    assert _run_pmf_oracle(Fraction(1), Fraction(2), 1) == pytest.approx(1.0 / 6.0)
    for rho in (Fraction(2), Fraction(3, 2), Fraction(5)):
        for n in range(13):
            assert initial_run_pmf(float(rho), n) == pytest.approx(
                _run_pmf_oracle(Fraction(1), rho, n), rel=1e-12)
    # the law for service mean 3/2 against arrival mean 3: the atom's
    # chance (3 - 3/2) / 3 = 1/2 times the Poisson race
    lam, rho = Fraction(3, 2), Fraction(3)
    for n in range(13):
        assert 0.5 * poisson_competition_A(n, 1.5, 3.0) == pytest.approx(
            _run_pmf_oracle(lam, rho, n), rel=1e-12)


def test_competition_base_cases_and_recursion():
    alpha, beta = 1.3, 0.7
    assert poisson_competition_A(0, alpha, beta) == 1.0
    assert poisson_competition_A(1, alpha, beta) == pytest.approx(
        alpha / (alpha + beta), rel=1e-14)
    assert poisson_competition_B(1, alpha, beta) == pytest.approx(
        beta / (alpha + beta), rel=1e-14)
    for n in range(1, 40):
        lhs = poisson_competition_A(n, alpha, beta)
        rhs = poisson_competition_A(n - 1, alpha, beta) \
            - poisson_competition_B(n, alpha, beta)
        assert lhs == pytest.approx(rhs, rel=1e-12)
    with pytest.raises(ValueError):
        poisson_competition_B(0, 1.0, 1.0)
    # a rate outside (0, inf), NaN included, is refused by both laws
    for bad in (0.0, -1.0, math.nan, math.inf):
        for rates in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError):
                poisson_competition_A(2, *rates)
            with pytest.raises(ValueError):
                poisson_competition_B(2, *rates)


def test_competition_crossing_mass():
    s = math.fsum(poisson_competition_B(n, 1.0, 2.0) for n in range(1, 201))
    assert abs(s - 1.0) < 1e-6
    s = math.fsum(poisson_competition_B(n, 2.0, 1.0) for n in range(1, 201))
    assert abs(s - 0.5) < 1e-6


def criterion_10_empirical_before(seed):
    """Criterion 10's race frequencies as computed before its paths were
    built in place and drawn in row blocks, kept as the oracle."""
    spec = RngSpec(seed, "criterion10")
    m = 10 ** 6
    sig = np.cumsum(exp_from_uniform(
        spec.sub("alpha").generator().random((m, 3)), 1.0), axis=1)
    tau = np.cumsum(exp_from_uniform(
        spec.sub("beta").generator().random((m, 3)), 0.5), axis=1)
    lead = sig < tau
    return [float(np.mean(lead[:, :n].all(axis=1))) for n in (1, 2, 3)]


# 70_001 doubles make blocks of 23_333 race rows and 2800 marked-process
# rows, neither of which divides its sample size.
@pytest.mark.parametrize("seed, block", [
    pytest.param(20260822, None, id="20260822"), pytest.param(7, None, id="7"),
    pytest.param(7, 70_001, id="7-block70001")])
def test_criterion_10_race_frequencies_match_the_cumsum_paths(seed, block, monkeypatch):
    if block:
        monkeypatch.setattr(verification, "_DRAW_BLOCK", block)
    reps = criterion_10(seed).reports[:3]
    assert [r.metadata["empirical"] for r in reps] == criterion_10_empirical_before(seed)


def criterion_11_whole_array(seed):
    """Criterion 11's reports as computed before its rows were drawn in
    blocks, from whole (m, 25) arrays, kept as the oracle."""
    spec = RngSpec(seed, "criterion11")
    m, cols, rho_max = 100000, 24, 4.0
    gaps = exp_from_uniform(spec.sub("gaps").generator().random((m, cols)), 1.0)
    logs = np.concatenate([np.zeros((m, 1)), np.cumsum(gaps, axis=1)], axis=1)
    assert np.all(logs[:, -1] > math.log(rho_max))
    locs = np.exp(logs)
    u = spec.sub("marks").generator().random((m, cols + 1))
    marks = exp_from_uniform(u, 1.0) * locs
    x1 = marks[:, 0]
    x2 = np.sum(marks * (locs <= 2.0), axis=1)
    x4 = np.sum(marks * (locs <= rho_max), axis=1)
    counts = np.sum((locs > 1.0) & (locs <= math.e), axis=1)
    reps = [ks_one_sample(x1, lambda x: -np.expm1(-np.asarray(x)),
                          "xproc-value-at-1", seed,
                          "value at the base point is unit exponential")]
    ref12 = increment_law(1.0, 2.0).sample(m, spec.sub("ref12"))
    reps.append(ks_two_sample(x2 - x1, ref12, "xproc-incr-1-2", seed,
                              "increment over [1,2] matches the atom-tail law"))
    ref24 = increment_law(2.0, 4.0).sample(m, spec.sub("ref24"))
    reps.append(ks_two_sample(x4 - x2, ref24, "xproc-incr-2-4", seed,
                              "increment over [2,4] matches the atom-tail law"))
    z = abs(float(np.mean(counts)) - 1.0) * math.sqrt(m)
    reps.append(TestReport("xproc-count", z, 3.0, m, seed, z < 3.0,
                           "point count over (1, e] has unit mean",
                           {"mean": float(np.mean(counts))}))
    return reps


@pytest.mark.parametrize("seed, block", [
    pytest.param(20260822, None, id="20260822"), pytest.param(99, None, id="99"),
    pytest.param(99, 70_001, id="99-block70001")])
def test_criterion_11_blocks_match_the_whole_array(seed, block, monkeypatch):
    if block:
        monkeypatch.setattr(verification, "_DRAW_BLOCK", block)
    got = criterion_11(seed).reports
    want = criterion_11_whole_array(seed)
    assert [dataclasses.asdict(r) for r in got] == [dataclasses.asdict(r) for r in want]


def test_competition_against_simulation():
    # the event tracks every paired comparison up to n, so the simulation
    # races the cumulative jump-time paths
    alpha, beta, m = 1.3, 0.7, 100000
    gen = RngSpec(50, "race").generator()
    sig = np.cumsum(exp_from_uniform(gen.random((m, 3)), 1.0 / alpha), axis=1)
    tau = np.cumsum(exp_from_uniform(gen.random((m, 3)), 1.0 / beta), axis=1)
    lead = sig < tau
    for n in (1, 2, 3):
        p = poisson_competition_A(n, alpha, beta)
        p_hat = float(np.mean(lead[:, :n].all(axis=1)))
        assert abs(p_hat - p) < 3.0 * math.sqrt(p * (1.0 - p) / m)


def test_atom_tail_closed_forms():
    law = increment_law(1.5, 3.0)
    assert law.atom == pytest.approx(0.5)
    assert law.tail_mean == 3.0
    assert law.cdf(-1.0) == 0.0
    assert law.cdf(0.0) == pytest.approx(law.atom)
    assert law.sf(2.0) == pytest.approx(1.0 - law.cdf(2.0), rel=1e-12)
    s = np.array([-1.0, 0.0, 0.5, 4.0])
    np.testing.assert_allclose(law.cdf(s) + law.sf(s), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        increment_law(3.0, 1.5)
    with pytest.raises(ValueError):
        AtomTailLaw(1.5, 1.0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            AtomTailLaw(0.5, bad)
        with pytest.raises(ValueError):
            increment_law(1.0, bad)


def test_degenerate_increment_law():
    law = increment_law(2.0, 2.0)
    assert law.atom == 1.0
    assert law.cdf(0.0) == 1.0
    assert np.all(law.sample(50, RngSpec(51, "deg")) == 0.0)


def test_laplace_transform_forms():
    lam, rho = 1.5, 3.0
    law = increment_law(lam, rho)
    for t in (0.1, 0.7, 2.3):
        assert law.laplace(t) == pytest.approx(
            (1.0 + lam * t) / (1.0 + rho * t), rel=1e-12)
        numeric = law.atom + quad(
            lambda x: math.exp(-t * x) * (1.0 - law.atom) / rho
            * math.exp(-x / rho), 0.0, np.inf)[0]
        assert law.laplace(t) == pytest.approx(numeric, abs=1e-10)


def test_atom_tail_sampling():
    law = increment_law(1.5, 3.0)
    x = law.sample(20000, RngSpec(52, "mix"))
    hits = int(np.sum(x == 0.0))
    z = abs(hits - 20000 * law.atom) / math.sqrt(20000 * law.atom * (1 - law.atom))
    assert z < 3.0
    tail = x[x > 0.0]
    rep = ks_one_sample(tail, lambda s: -np.expm1(-np.asarray(s) / 3.0),
                        "tail", 52)
    assert rep.passed, rep


def test_marked_process_structure():
    proc = sample_X_process(6.0, RngSpec(53, "mp"))
    assert proc.points[0] == 1.0
    assert np.all(np.diff(proc.points) > 0.0)
    assert proc.points[-1] <= 6.0
    assert len(proc.marks) == len(proc.points)
    again = sample_X_process(6.0, RngSpec(53, "mp"))
    np.testing.assert_array_equal(proc.points, again.points)
    np.testing.assert_array_equal(proc.marks, again.marks)
    assert proc.count_in(1.0, 6.0) == len(proc.points) - 1
    for rho_max in (0.5, float("nan"), math.inf):
        with pytest.raises(ValueError):
            sample_X_process(rho_max, RngSpec(53, "mp"))
    for rho in (0.5, 7.0, float("nan")):
        with pytest.raises(ValueError):
            X_value(proc, rho)


def sample_X_process_before(rho_max, spec):
    """sample_X_process as it was before it became the one-row case of
    sample_X_blocks: 64 gaps at a time until the range end, kept as the
    oracle."""
    gap_gen = spec.sub("gaps").generator()
    limit = math.log(rho_max)
    logs = [0.0]
    total = 0.0
    while True:
        chunk = exp_from_uniform(gap_gen.random(64), 1.0)
        for g in chunk:
            total += g
            if total > limit:
                break
            logs.append(total)
        if total > limit:
            break
    points = np.exp(np.asarray(logs))
    points[0] = 1.0
    u = spec.sub("marks").generator().random(len(points))
    marks = exp_from_uniform(u, 1.0) * points
    return MarkedPointProcess(points, marks, rho_max)


def assert_same_bits(got, want):
    for a, b in ((got.points, want.points), (got.marks, want.marks)):
        assert a.shape == b.shape
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


def test_one_row_sampler_matches_the_previous_draw():
    for seed in range(300):
        for rho_max in (4.0, 6.0):
            spec = RngSpec(seed, "mp-oracle")
            assert_same_bits(sample_X_process(rho_max, spec),
                             sample_X_process_before(rho_max, spec))


def test_one_row_sampler_doubles_its_budget():
    # about 100 points: past the first budget of 64 gaps
    for seed in range(5):
        spec = RngSpec(seed, "mp-long")
        proc = sample_X_process(math.exp(100.0), spec)
        assert len(proc.points) > 65
        assert_same_bits(proc, sample_X_process_before(math.exp(100.0), spec))


def test_batched_sampler_refuses_a_short_budget():
    with pytest.raises(RuntimeError, match="budget"):
        list(sample_X_blocks(50, math.exp(30.0), RngSpec(55, "mp-short"), 4, 16))
    # bad arguments are refused by the call itself, before any block is drawn
    for m, rho_max, cols, rows in ((1, float("nan"), 24, 1), (1, math.inf, 24, 1),
                                   (1, 0.5, 24, 1), (0, 4.0, 24, 1), (1, 4.0, 0, 1),
                                   (1, 4.0, 24, 0)):
        with pytest.raises(ValueError):
            sample_X_blocks(m, rho_max, RngSpec(55, "mp-args"), cols, rows)


def test_block_readers_match_each_row():
    # 103 rows in blocks of 20: a short last block
    m, rho_max, cols = 103, 4.0, 24
    rows = 0
    for block in sample_X_blocks(m, rho_max, RngSpec(56, "mp-block"), cols, 20):
        k = len(block.points)
        assert block.points.shape == block.marks.shape == (k, cols + 1)
        assert np.all(block.points[:, 0] == 1.0) and np.all(block.points[:, -1] > rho_max)
        cuts = [MarkedPointProcess(p[p <= rho_max], w[p <= rho_max], rho_max)
                for p, w in zip(block.points, block.marks)]
        for lo, hi in ((1.0, math.e), (1.5, 4.0)):
            np.testing.assert_array_equal(block.count_in(lo, hi),
                                          [c.count_in(lo, hi) for c in cuts])
        for rho in (1.0, 2.0, 3.3, 4.0):
            np.testing.assert_array_max_ulp(X_value(block, rho),
                                            [X_value(c, rho) for c in cuts], maxulp=1)
        rows += k
    assert rows == m


def test_marked_process_laws():
    spec = RngSpec(54, "mplaw")
    m = 3000
    x1 = np.empty(m)
    incr = np.empty(m)
    counts_e = np.empty(m)
    counts_4 = np.empty(m)
    for i in range(m):
        proc = sample_X_process(4.0, spec.sub(f"r{i}"))
        x1[i] = X_value(proc, 1.0)
        incr[i] = X_value(proc, 2.0) - X_value(proc, 1.0)
        counts_e[i] = proc.count_in(1.0, math.e)
        counts_4[i] = proc.count_in(1.0, 4.0)
    rep = ks_one_sample(x1, lambda s: -np.expm1(-np.asarray(s)), "X1", 54)
    assert rep.passed, rep
    ref = increment_law(1.0, 2.0).sample(m, spec.sub("ref"))
    rep = ks_two_sample(incr, ref, "increment", 54)
    assert rep.passed, rep
    # log-uniform intensity: the count on (1, r] is Poisson with mean ln r
    assert abs(counts_e.mean() - 1.0) < 3.0 / math.sqrt(m)
    assert abs(counts_4.mean() - math.log(4.0)) < \
        3.0 * math.sqrt(math.log(4.0) / m)


def test_threshold_parameter_cdf():
    assert rho_star_cdf(0.5) == 0.0
    assert rho_star_cdf(1.0) == 0.0
    assert rho_star_cdf(2.0) == pytest.approx(0.5)
    assert rho_star_cdf(100.0) == pytest.approx(0.99)
    grid = np.linspace(0.5, 50.0, 200)
    vals = rho_star_cdf(grid)
    assert vals.shape == grid.shape
    assert np.all(np.diff(vals) >= 0.0)
