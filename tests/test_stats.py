"""Behavior of the fixed-policy statistical test helpers."""

import re

import numpy as np
import pytest

from cgmlab.rng import RngSpec
from cgmlab.stats import (DEFAULT_ALPHA, KS_MIN_N, binomial_atom_test,
                          chi_square_pmf, correlation_test, ks_distance,
                          ks_one_sample, ks_two_sample)
from test_rng import exp_from_uniform, replica_generator


def exp1_cdf(x):
    return -np.expm1(-np.asarray(x))


def test_report_json_schema_is_fixed():
    rep = ks_one_sample(np.linspace(0.001, 5.0, 2500), exp1_cdf, "demo", 7,
                        claim="ref")
    d = rep.to_json_dict()
    assert set(d) == {"name", "statistic", "threshold", "n", "seed", "pass",
                      "paper_ref"}
    assert d["name"] == "demo"
    assert d["seed"] == 7
    assert d["paper_ref"] == "ref"
    assert isinstance(d["pass"], bool)
    assert "PASS" in str(rep) or "FAIL" in str(rep)


def test_ks_distance_known_value():
    # empirical cdf of a single point mass at the median of Exp(1)
    d = ks_distance(np.full(100, np.log(2.0)), exp1_cdf)
    assert d == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        ks_distance(np.array([]), exp1_cdf)


def test_ks_refuses_small_samples():
    with pytest.raises(ValueError):
        ks_one_sample(np.ones(KS_MIN_N - 1), exp1_cdf, "small", 0)
    with pytest.raises(ValueError):
        ks_two_sample(np.ones(10), np.ones(5000), "small", 0)


def test_ks_self_calibration():
    # correct-law samples must pass essentially always at alpha 0.001
    passed = 0
    for s in range(100):
        u = replica_generator(60, "cal", s).random(3000)
        rep = ks_one_sample(exp_from_uniform(u, 1.0), exp1_cdf, "cal", s)
        passed += rep.passed
    assert passed >= 99


def test_ks_detects_wrong_scale():
    u = RngSpec(61, "wrong").generator().random(10000)
    sample = exp_from_uniform(u, 1.0)
    rep = ks_one_sample(sample, lambda x: -np.expm1(-np.asarray(x) / 2.0),
                        "wrong-scale", 61)
    assert not rep.passed
    assert rep.statistic > 2.0 * rep.threshold


def test_ks_two_sample_calibration_and_power():
    gen = RngSpec(62, "two").generator()
    a = exp_from_uniform(gen.random(5000), 1.0)
    b = exp_from_uniform(gen.random(5000), 1.0)
    c = exp_from_uniform(gen.random(5000), 1.3)
    assert ks_two_sample(a, b, "same", 62).passed
    assert not ks_two_sample(a, c, "shifted", 62).passed


def searchsorted_ks_statistic(a, b):
    """The two-sample statistic from binary searches of every point in both
    samples: the implementation the merge replaced, kept as its oracle."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / len(a)
    cdf_b = np.searchsorted(b, allv, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


@pytest.mark.parametrize("n, m", [(KS_MIN_N, KS_MIN_N), (2000, 3001), (4999, 2003)])
def test_ks_two_sample_equals_the_searchsorted_statistic(n, m):
    gen = RngSpec(66, f"merge{n}/{m}").generator()
    signed_zero = lambda k: np.where(gen.random(k) < 0.5, -0.0, 0.0)
    cases = [
        # continuous samples, one shifted
        (exp_from_uniform(gen.random(n), 1.0), exp_from_uniform(gen.random(m), 1.2)),
        # heavy ties: a handful of half-integers, shared by both samples
        (gen.integers(0, 6, n) / 2.0, gen.integers(0, 8, m) / 2.0),
        # an atom at zero made of -0.0 and +0.0, then an exponential tail
        (np.where(gen.random(n) < 0.4, signed_zero(n), gen.exponential(1.0, n)),
         np.where(gen.random(m) < 0.6, signed_zero(m), gen.exponential(1.0, m))),
        # every point in one tie group, and one sample all below the other
        (np.zeros(n), signed_zero(m)),
        (gen.random(n) - 2.0, gen.random(m)),
    ]
    for a, b in cases:
        want = searchsorted_ks_statistic(a, b)
        assert ks_two_sample(a, b, "merge", 66).statistic == want
        assert ks_two_sample(b, a, "merge", 66).statistic == \
            searchsorted_ks_statistic(b, a)
    assert ks_two_sample(np.zeros(n), signed_zero(m), "atom", 66).statistic == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ks_refuses_non_finite_samples(bad):
    gen = RngSpec(67, "finite").generator()
    x = exp_from_uniform(gen.random(3000), 1.0)
    y = exp_from_uniform(gen.random(3000), 1.0)
    x[1234] = bad
    with pytest.raises(ValueError, match="finite"):
        ks_distance(x, exp1_cdf)
    with pytest.raises(ValueError, match="finite"):
        ks_one_sample(x, exp1_cdf, "bad", 67)
    with pytest.raises(ValueError, match="finite"):
        ks_two_sample(x, y, "bad", 67)
    with pytest.raises(ValueError, match="finite"):
        ks_two_sample(y, x, "bad", 67)


@pytest.mark.parametrize("shape", [(1, 5000), (3000, 2), (2, 2500), ()])
def test_ks_refuses_a_sample_that_is_not_one_dimensional(shape):
    # a stack of samples is not a sample: the refusal names its shape, not
    # its first axis as a count or numpy's broadcast of it against the cdf
    gen = RngSpec(68, "shape").generator()
    bad = exp_from_uniform(gen.random(shape), 1.0)
    good = exp_from_uniform(gen.random(5000), 1.0)
    named = re.escape(f"one-dimensional sample, got shape {shape}")
    with pytest.raises(ValueError, match=named):
        ks_distance(bad, exp1_cdf)
    with pytest.raises(ValueError, match=named):
        ks_one_sample(bad, exp1_cdf, "stack", 68)
    with pytest.raises(ValueError, match=named):
        ks_two_sample(bad, good, "stack", 68)
    with pytest.raises(ValueError, match=named):
        ks_two_sample(good, bad, "stack", 68)


def test_chi_square_merges_sparse_tail():
    gen = RngSpec(63, "chi").generator()
    probs = np.array([0.5, 0.3, 0.15, 0.04, 0.009, 0.001])
    draws = gen.choice(len(probs), size=2000, p=probs)
    counts = np.bincount(draws, minlength=len(probs))
    rep = chi_square_pmf(counts, probs, "merge", 63)
    assert rep.passed, rep
    # expected counts [1000, 600, 300, 80, 18, 2]: exactly one merge
    assert rep.metadata["bins"] == 5
    assert rep.metadata["df"] == rep.metadata["bins"] - 1
    assert 0.0 <= rep.metadata["p_value"] <= 1.0


def test_chi_square_validation():
    with pytest.raises(ValueError):
        chi_square_pmf([10, 20], [0.5, 0.4], "bad-sum", 0)
    with pytest.raises(ValueError):
        chi_square_pmf([10, 20, 30], [0.5, 0.5], "shape", 0)
    with pytest.raises(ValueError):
        chi_square_pmf([1, 1], [0.5, 0.5], "tiny", 0)


def test_chi_square_refuses_one_merged_bin():
    # expected counts [9.9, 0.1] merge into one bin, which leaves no degree
    # of freedom: the report's threshold and p-value would be NaN
    with pytest.raises(ValueError, match="one bin"):
        chi_square_pmf([10, 0], [0.99, 0.01], "x", 1)
    # two bins left after the merge still make a report, with df = 1
    rep = chi_square_pmf([10, 10, 0], [0.5, 0.49, 0.01], "y", 1)
    assert rep.metadata["df"] == 1
    assert np.isfinite(rep.threshold) and np.isfinite(rep.metadata["p_value"])


def test_chi_square_detects_wrong_pmf():
    gen = RngSpec(64, "chibad").generator()
    draws = gen.choice(3, size=5000, p=[0.5, 0.3, 0.2])
    counts = np.bincount(draws, minlength=3)
    rep = chi_square_pmf(counts, np.array([0.4, 0.4, 0.2]), "off", 64)
    assert not rep.passed


def test_binomial_atom_bounds():
    rep = binomial_atom_test(5000, 10000, 0.5, "fair", 0)
    assert rep.passed and rep.threshold == 3.0
    assert rep.metadata["hits"] == 5000
    rep = binomial_atom_test(5300, 10000, 0.5, "biased", 0)
    assert not rep.passed
    with pytest.raises(ValueError):
        binomial_atom_test(1, 0, 0.5, "n", 0)
    with pytest.raises(ValueError):
        binomial_atom_test(1, 10, 1.0, "p", 0)


def test_correlation_bound_and_errors():
    gen = RngSpec(65, "corr").generator()
    x = gen.random(10000)
    y = gen.random(10000)
    rep = correlation_test(x, y, "indep", 65)
    assert rep.passed
    assert rep.threshold == pytest.approx(4.0 / np.sqrt(10000))
    rep = correlation_test(x, 0.5 * x + 0.5 * y, "coupled", 65)
    assert not rep.passed
    with pytest.raises(ValueError):
        correlation_test(x[:10], y[:10], "few", 65)
    with pytest.raises(ValueError):
        correlation_test(np.ones(100), y[:100], "flat", 65)
    with pytest.raises(ValueError):
        correlation_test(x[:100], y[:200], "shape", 65)
    # a NaN would make a failing report whose statistic json.dumps writes
    # as the bare token NaN, which is not JSON; an infinity is no draw
    for bad in (np.nan, np.inf, -np.inf):
        z = x.copy()
        z[1234] = bad
        with pytest.raises(ValueError, match="finite"):
            correlation_test(z, y, "bad", 65)
        with pytest.raises(ValueError, match="finite"):
            correlation_test(y, z, "bad", 65)
