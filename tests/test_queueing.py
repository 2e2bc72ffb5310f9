"""FIFO operator identities, pathwise and on random stable instances."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgmlab.rng import RngSpec, SeqWindow, exp_from_uniform, sample_exp_window
from cgmlab.queueing import (BoundaryPolicy, check_conservation, check_duality,
                             check_intertwining_identity, check_strip_identities,
                             check_T_identity, lindley_iterate, queue_D,
                             queue_Dn, queue_R, queue_S, strip_lpp_H)


def branch_sweep(j_left, arrivals, services):
    """The definitional per-slot branch loop: (departures, sojourn, unused)."""
    arr = arrivals.values.tolist()
    svc = services.values.tolist()
    dep = [0.0] * len(arr)
    soj = [0.0] * len(arr)
    rel = [0.0] * len(arr)
    j_prev = float(j_left)
    for k in range(len(arr)):
        i_k = arr[k]
        w_k = svc[k]
        if i_k >= j_prev:
            dep[k] = w_k + (i_k - j_prev)
            soj[k] = w_k
            rel[k] = j_prev
        else:
            dep[k] = w_k
            soj[k] = w_k + (j_prev - i_k)
            rel[k] = i_k
        j_prev = soj[k]
    return np.array(dep), np.array(soj), np.array(rel)


def assert_sweep_is_branch_sweep(j_left, arrivals, services):
    out = lindley_iterate(j_left, arrivals, services)
    dep, soj, rel = branch_sweep(j_left, arrivals, services)
    assert np.array_equal(out.departures.values, dep)
    assert np.array_equal(out.sojourn.values, soj)
    assert np.array_equal(out.unused.values, rel)
    assert out.departures.offset == out.sojourn.offset == out.unused.offset \
        == arrivals.offset
    return out


@pytest.mark.parametrize("length", [1000, 125_000])
def test_sweep_matches_branch_oracle_on_seeded_windows(length):
    spec = RngSpec(31, f"oracle{length}")
    for r, (rho, lam) in enumerate([(2.0, 1.0), (1.5, 1.4), (1.0, 3.0)]):
        arr = sample_exp_window(1, length, rho, spec.sub(f"I{r}"))
        svc = sample_exp_window(1, length, lam, spec.sub(f"w{r}"))
        assert_sweep_is_branch_sweep(0.0, arr, svc)
        assert_sweep_is_branch_sweep(0.75 * r, arr, svc)


# Half-integers make exact ties I_k == J_{k-1} and zero inputs common.
tie_prone = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.0, 5.0)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 40), st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0), st.data())
def test_sweep_matches_branch_oracle_with_ties_and_zeros(n, j0, data):
    arr = SeqWindow(1, data.draw(st.lists(tie_prone, min_size=n, max_size=n)))
    svc = SeqWindow(1, data.draw(st.lists(tie_prone, min_size=n, max_size=n)))
    assert_sweep_is_branch_sweep(j0, arr, svc)


def test_sweep_oracle_windows_hit_exact_ties():
    # A stable queue of small integers from j_left = 0 ties often.
    gen = RngSpec(7, "ties").generator()
    arr = SeqWindow(1, gen.integers(0, 4, 2000).astype(float))
    svc = SeqWindow(1, gen.integers(0, 2, 2000).astype(float))
    out = assert_sweep_is_branch_sweep(0.0, arr, svc)
    j_prev = np.concatenate([[0.0], out.sojourn.values[:-1]])
    assert np.sum(arr.values == j_prev) > 100
    assert np.sum(arr.values == 0.0) > 100


def test_sweep_matches_branch_oracle_on_reversed_views():
    # check_duality feeds the sweep negative-stride views of its outputs.
    spec = RngSpec(12, "views")
    arr = sample_exp_window(1, 3000, 2.0, spec.sub("I"))
    svc = sample_exp_window(1, 3000, 1.0, spec.sub("w"))
    fwd = lindley_iterate(0.4, arr, svc)
    rev_arr = SeqWindow(1, fwd.departures.values[::-1])
    rev_svc = SeqWindow(1, fwd.unused.values[::-1])
    assert rev_arr.values.strides[0] < 0
    assert_sweep_is_branch_sweep(fwd.final_sojourn, rev_arr, rev_svc)
    assert_sweep_is_branch_sweep(0.0, SeqWindow(1, arr.values[::-2]),
                                 SeqWindow(1, svc.values[::-2]))


def test_lindley_hand_trace():
    # j_left 1; arrivals 3,1; services 2,4
    # J_k = w_k + (J_{k-1} - I_k)^+ : J_1 = 2+(1-3)^+ = 2, J_2 = 4+(2-1)^+ = 5
    # D_k = w_k + (I_k - J_{k-1})^+ : D_1 = 2+(3-1)^+ = 4, D_2 = 4+(1-2)^+ = 4
    out = lindley_iterate(1.0, SeqWindow(1, [3.0, 1.0]), SeqWindow(1, [2.0, 4.0]))
    assert list(out.sojourn.values) == [2.0, 5.0]
    assert list(out.departures.values) == [4.0, 4.0]
    assert list(out.unused.values) == [1.0, 1.0]
    assert out.final_sojourn == 5.0


nonneg = st.floats(0.0, 50.0, allow_nan=False)


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 30), nonneg, st.data())
def test_conservation_holds_pathwise(n, j0, data):
    arr = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    svc = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    assert check_conservation(j0, arr, svc).max_abs_error < 1e-9


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 30), nonneg, st.data())
def test_duality_holds_pathwise(n, j0, data):
    arr = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    svc = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    assert check_duality(j0, arr, svc, tolerance=1e-9).max_abs_error < 1e-9


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 30), nonneg, st.data())
def test_T_identity_holds_pathwise(n, j0, data):
    arr = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    svc = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    assert check_T_identity(j0, arr, svc).max_abs_error < 1e-9


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 25), nonneg, st.data())
def test_strip_identities_hold_pathwise(n, j0, data):
    arr = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    svc = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    assert check_strip_identities(j0, arr, svc).max_abs_error < 1e-9


def test_identities_on_random_stable_instances():
    spec = RngSpec(2024, "stable")
    for r in range(20):
        s = spec.sub(f"i{r}")
        gen = s.generator()
        rho = 1.5 + 2.5 * gen.random()
        lam = rho * (0.35 + 0.5 * gen.random())
        j0 = float(exp_from_uniform(gen.random(), 1.0))
        arr = sample_exp_window(1, 300, rho, s.sub("I"))
        svc = sample_exp_window(1, 300, lam, s.sub("w"))
        assert check_conservation(j0, arr, svc).max_abs_error < 1e-12
        assert check_duality(j0, arr, svc).max_abs_error < 1e-12
        assert check_T_identity(j0, arr, svc).max_abs_error < 1e-9
        assert check_strip_identities(j0, arr, svc).max_abs_error < 1e-9


def test_intertwining_identity_random_streams():
    spec = RngSpec(88, "twine")
    svc = sample_exp_window(1, 500, 1.0, spec.sub("svc"))
    seqs = [sample_exp_window(1, 500, m, spec.sub(f"L{m}")) for m in (4.5, 3.0, 2.0)]
    rep = check_intertwining_identity(seqs, svc)
    assert rep.max_abs_error < 1e-9


def test_queue_Dn_identity_on_single_sequence():
    w = sample_exp_window(1, 50, 2.0, RngSpec(1, "dn"))
    out = queue_Dn([w], BoundaryPolicy.given(0.0))
    np.testing.assert_array_equal(out.values, w.values)
    assert out.offset == w.offset


def test_operator_windows_and_burn_in_trim():
    spec = RngSpec(10, "ops")
    arr = sample_exp_window(1, 100, 3.0, spec.sub("I"))
    svc = sample_exp_window(1, 100, 1.0, spec.sub("w"))
    policy = BoundaryPolicy.burn_in(0.2)
    dep = queue_D(arr, svc, policy)
    assert len(dep) == 80
    assert dep.offset == 21
    soj = queue_S(arr, svc, BoundaryPolicy.given(0.5))
    use = queue_R(arr, svc, BoundaryPolicy.given(0.5))
    assert len(soj) == 100 and len(use) == 100
    # unused input never exceeds the arrival it came from
    assert np.all(use.values <= arr.values + 1e-12)


def test_strip_table_boundary_conventions():
    arr = SeqWindow(1, [2.0, 1.0])
    svc = SeqWindow(1, [0.5, 3.0])
    strip = strip_lpp_H(0.75, arr, svc)
    assert strip.level0.offset == 0
    assert strip.level0.values[0] == 0.0
    assert strip.level1.values[0] == 0.75
    # level-1 increments are the departure sweep
    out = lindley_iterate(0.75, arr, svc)
    np.testing.assert_allclose(np.diff(strip.level1.values), out.departures.values,
                               atol=1e-12)


def test_stationary_policy_draws_equilibrium_sojourn():
    lam, rho = 1.0, 2.0
    arr = sample_exp_window(1, 10, rho, RngSpec(1, "a"))
    svc = sample_exp_window(1, 10, lam, RngSpec(1, "b"))
    draws = [BoundaryPolicy.stationary(RngSpec(1, "st", replica=r),
                                       arrival_mean=rho, service_mean=lam)
             .resolve_j_left(arr, svc) for r in range(4000)]
    target = 1.0 / (1.0 / lam - 1.0 / rho)
    assert abs(np.mean(draws) - target) < 4 * target / np.sqrt(len(draws))


def test_policy_validation():
    with pytest.raises(ValueError):
        BoundaryPolicy("weird")
    with pytest.raises(ValueError):
        BoundaryPolicy.given(-1.0)
    with pytest.raises(ValueError):
        BoundaryPolicy.burn_in(1.0)
    with pytest.raises(ValueError):
        BoundaryPolicy("stationary")
    pol = BoundaryPolicy.stationary(RngSpec(1, "s"))
    unstable_arr = sample_exp_window(1, 10, 1.0, RngSpec(1, "u1"))
    unstable_svc = sample_exp_window(1, 10, 2.0, RngSpec(1, "u2"))
    with pytest.raises(ValueError):
        pol.resolve_j_left(unstable_arr, unstable_svc)


def test_misaligned_windows_rejected():
    with pytest.raises(ValueError):
        lindley_iterate(0.0, SeqWindow(0, [1.0]), SeqWindow(1, [1.0]))
    with pytest.raises(ValueError):
        lindley_iterate(0.0, SeqWindow(0, [1.0, 2.0]), SeqWindow(0, [1.0]))
