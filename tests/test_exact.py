"""Closed-form reference laws: ballot counts, run lengths, races, increments."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from cgmlab.exact import (AtomTailLaw, MarkedPointProcess, X_value,
                          catalan_number, catalan_triangle, increment_law,
                          initial_run_pmf, initial_run_pmf2,
                          poisson_competition_A, poisson_competition_B,
                          rho_star_cdf, sample_X_process)
from cgmlab.rng import RngSpec, exp_from_uniform
from cgmlab import verification
from cgmlab.stats import TestReport, ks_one_sample, ks_two_sample
from cgmlab.verification import criterion_10, criterion_11


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


def test_run_pmf_values_and_normalization():
    for rho in (1.5, 2.0, 5.0):
        assert initial_run_pmf(rho, 0) == pytest.approx(1.0 - 1.0 / rho)
    assert initial_run_pmf(2.0, 1) == pytest.approx(1.0 / 6.0, rel=1e-14)
    for rho, depth in ((1.5, 800), (2.0, 400), (5.0, 200)):
        total = math.fsum(initial_run_pmf(rho, n) for n in range(depth + 1))
        assert abs(total - 1.0) < 1e-10
    assert initial_run_pmf2(1.0, 3.0, 4) == pytest.approx(
        initial_run_pmf(3.0, 4), rel=1e-14)
    with pytest.raises(ValueError):
        initial_run_pmf2(2.0, 2.0, 1)
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
    lam, rho = Fraction(3, 2), Fraction(3)
    for n in range(13):
        assert initial_run_pmf2(1.5, 3.0, n) == pytest.approx(
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
        poisson_competition_A(1, 0.0, 1.0)
    with pytest.raises(ValueError):
        poisson_competition_B(0, 1.0, 1.0)


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
    with pytest.raises(ValueError):
        AtomTailLaw(0.5, 0.0)


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
    with pytest.raises(ValueError):
        sample_X_process(0.5, RngSpec(53, "mp"))
    with pytest.raises(ValueError):
        X_value(proc, 7.0)


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
