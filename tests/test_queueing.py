"""FIFO operator identities, pathwise and on random stable instances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgmlab.rng import RngSpec, SeqWindow, exp_from_uniform, sample_exp_window, same_window
from cgmlab import queueing, verification
from cgmlab.verification import _STACK_BLOCK, criterion_2, criterion_3, run_criterion
from cgmlab.queueing import (BoundaryPolicy, IdentityReport, _check, _fold, _prepend,
                             _unused_chain, check_strip_identities,
                             check_sweep_identities, lindley_iterate, queue_D,
                             queue_Dn, queue_R, queue_S, strip_lpp_H)
from cgmlab.multiclass import check_intertwining


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
    """Check one window, or every row of a stack, against branch_sweep, bit
    for bit (the sign of a zero included)."""
    out = lindley_iterate(j_left, arrivals, services)
    assert out.departures.offset == out.sojourn.offset == out.unused.offset \
        == arrivals.offset
    got = [w.values for w in (out.departures, out.sojourn, out.unused)]
    assert all(g.shape == arrivals.values.shape for g in got)
    arr, svc = np.atleast_2d(arrivals.values), np.atleast_2d(services.values)
    j_rows = np.broadcast_to(j_left, arr.shape[:1])
    for r in range(len(arr)):
        expect = branch_sweep(j_rows[r], SeqWindow(1, arr[r]), SeqWindow(1, svc[r]))
        for g, e in zip(got, expect):
            assert np.array_equal(np.atleast_2d(g)[r].view(np.int64), e.view(np.int64))
    return out


# The three checks that check_sweep_identities replaced, kept verbatim as its
# oracle: each ran its own forward sweep.

def check_duality(j_left: float | np.ndarray, arrivals: SeqWindow, services: SeqWindow,
                  tolerance: float = 1e-12) -> IdentityReport:
    """Reversal duality: feeding the reversed outputs back through the sweep
    returns the reversed inputs, including the sojourn column."""
    fwd = lindley_iterate(j_left, arrivals, services)
    rev_arr = SeqWindow(2 - fwd.departures.end, fwd.departures.values[..., ::-1])
    rev_svc = SeqWindow(rev_arr.offset, fwd.unused.values[..., ::-1])
    back = lindley_iterate(fwd.final_sojourn, rev_arr, rev_svc)
    exp_soj = _prepend(fwd.j_left, fwd.sojourn.values[..., :-1])[..., ::-1]
    errors = [
        back.departures.values[..., ::-1] - arrivals.values,
        back.unused.values[..., ::-1] - services.values,
        back.sojourn.values - exp_soj,
    ]
    return _check("duality", errors, tolerance)


def check_T_identity(j_left: float | np.ndarray, arrivals: SeqWindow, services: SeqWindow,
                     tolerance: float = 1e-9) -> IdentityReport:
    """Best arrival/service split computed from inputs equals the same split
    computed from the sweep outputs in the reversed roles.

    Window convention: the sojourn value j_left sits one slot left of the
    aligned input windows, and the split index ranges over the full window.
    """
    out = lindley_iterate(j_left, arrivals, services)

    def best_split(first: np.ndarray, second: np.ndarray) -> np.ndarray:
        pre = np.cumsum(first, axis=-1)
        suf = np.cumsum(second[..., ::-1], axis=-1)[..., ::-1]
        return np.max(pre + suf, axis=-1)

    t_direct = best_split(arrivals.values, services.values)
    t_dual = best_split(out.unused.values, out.departures.values)
    return _check("T-identity", [t_dual - t_direct], tolerance, value=t_direct)


def check_conservation(j_left: float | np.ndarray, arrivals: SeqWindow, services: SeqWindow,
                       tolerance: float = 1e-12) -> IdentityReport:
    """Slot-by-slot conservation laws of one sweep.

    Checked per slot: arrival plus outgoing sojourn equals incoming sojourn
    plus departure; service plus arrival equals unused plus departure; the
    unused input is the smaller of arrival and incoming sojourn.
    """
    out = lindley_iterate(j_left, arrivals, services)
    j_prev = _prepend(out.j_left, out.sojourn.values[..., :-1])
    arr = arrivals.values
    svc = services.values
    errors = [
        (arr + out.sojourn.values) - (j_prev + out.departures.values),
        (svc + arr) - (out.unused.values + out.departures.values),
        out.unused.values - np.minimum(arr, j_prev),
    ]
    return _check("conservation", errors, tolerance)


ORACLES = (check_conservation, check_duality, check_T_identity)


# The one-order intertwining check that multiclass.check_intertwining
# replaced, kept verbatim as its oracle (test_multiclass keeps the other).

def check_intertwining_identity(arrival_seqs: list[SeqWindow], services: SeqWindow,
                                fraction: float = 0.2) -> IdentityReport:
    """Iterated-departure intertwining on a finite window.

    arrival_seqs = [I^n, ..., I^1] ordered from the last arrival stream to
    the first; services is the bottom service sequence.  The identity
    states D^(n+1)(I^n, ..., I^1, w) equals D^(n)(D(I^n, w^n), ..., D(I^1, w^1))
    where each w^(j+1) is the unused input R(I^j, w^j).  With two arrival
    streams this is the bracket exchange identity for nested departure
    maps.  Finite windows start empty at the west edge, so agreement is
    asserted on the interior that BoundaryPolicy.burn_in(fraction) keeps,
    which refuses a fraction outside [0, 1).
    """
    if not arrival_seqs:
        raise ValueError("need at least one arrival sequence")
    same_window(*arrival_seqs, services)
    burn = BoundaryPolicy.burn_in(fraction)
    lhs = _fold(list(arrival_seqs) + [services], 0.0)
    # Chain the unused input upward from the bottom stream.
    transformed = [out.departures
                   for out in _unused_chain(arrival_seqs[::-1], services, 0.0)]
    rhs = _fold(transformed[::-1], 0.0)
    lhs, rhs = burn.trim(lhs), burn.trim(rhs)
    return _check("intertwining", [lhs.values - rhs.values], 1e-9,
                  order=len(arrival_seqs), interior=len(lhs))


def assert_same_report(got, want):
    """got equals the oracle's report: name, tolerance, verdict and extras,
    and the error bit for bit."""
    assert (got.name, got.tolerance, got.passed) == (want.name, want.tolerance, want.passed)
    assert np.float64(got.max_abs_error).tobytes() == np.float64(want.max_abs_error).tobytes()
    assert got.extras.keys() == want.extras.keys()
    assert all(np.array_equal(got.extras[k], want.extras[k]) for k in got.extras)


def sweep_reports(j_left, arrivals, services):
    """check_sweep_identities' three reports, each checked against its oracle."""
    reports = check_sweep_identities(j_left, arrivals, services)
    assert [r.name for r in reports] == ["conservation", "duality", "T-identity"]
    for got, oracle in zip(reports, ORACLES):
        assert_same_report(got, oracle(j_left, arrivals, services))
    return reports


def incoming(j_left, sojourn):
    """[j_left, J_1, ..., J_{n-1}] of one window."""
    return np.concatenate([[j_left], sojourn[:-1]])


@pytest.mark.parametrize("length", [1000, 125_000])
def test_sweep_matches_branch_oracle_on_seeded_windows(length):
    spec = RngSpec(31, f"oracle{length}")
    arrs, svcs = [], []
    for r, (rho, lam) in enumerate([(2.0, 1.0), (1.5, 1.4), (1.0, 3.0)]):
        arr = sample_exp_window(1, length, rho, spec.sub(f"I{r}"))
        svc = sample_exp_window(1, length, lam, spec.sub(f"w{r}"))
        assert_sweep_is_branch_sweep(0.0, arr, svc)
        assert_sweep_is_branch_sweep(0.75 * r, arr, svc)
        arrs.append(arr.values)
        svcs.append(svc.values)
    # the same instances as one stack, from a shared and a per-row j_left
    arr, svc = SeqWindow(1, np.stack(arrs)), SeqWindow(1, np.stack(svcs))
    assert_sweep_is_branch_sweep(0.0, arr, svc)
    assert_sweep_is_branch_sweep(np.array([0.0, 0.75, 1.5]), arr, svc)


# Half-integers make exact ties I_k == J_{k-1} and zero inputs common.
tie_prone = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]) | st.floats(0.0, 5.0)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 40), st.integers(1, 4), st.data())
def test_sweep_matches_branch_oracle_with_ties_and_zeros(n, k, data):
    # a stack of k instances, and its first row on its own
    j_left = st.sampled_from([0.0, 1.0]) | st.floats(0.0, 5.0)
    rows = st.lists(st.lists(tie_prone, min_size=n, max_size=n), min_size=k, max_size=k)
    arr = np.array(data.draw(rows))
    svc = np.array(data.draw(rows))
    j0 = np.array(data.draw(st.lists(j_left, min_size=k, max_size=k)))
    assert_sweep_is_branch_sweep(j0[0], SeqWindow(1, arr[0]), SeqWindow(1, svc[0]))
    assert_sweep_is_branch_sweep(j0, SeqWindow(1, arr), SeqWindow(1, svc))


def test_sweep_oracle_windows_hit_exact_ties():
    # A stable queue of small integers from j_left = 0 ties often.
    gen = RngSpec(7, "ties").generator()
    arr = SeqWindow(1, gen.integers(0, 4, 2000).astype(float))
    svc = SeqWindow(1, gen.integers(0, 2, 2000).astype(float))
    out = assert_sweep_is_branch_sweep(0.0, arr, svc)
    j_prev = np.concatenate([[0.0], out.sojourn.values[:-1]])
    assert np.sum(arr.values == j_prev) > 100
    assert np.sum(arr.values == 0.0) > 100
    # So does a stack of half-integer queues, each from its own j_left.
    j0 = np.array([0.0, 0.5, 2.0, 0.0, 3.5, 1.0])
    arr = SeqWindow(1, gen.integers(0, 8, (6, 2000)) / 2.0)
    svc = SeqWindow(1, gen.integers(0, 4, (6, 2000)) / 2.0)
    out = assert_sweep_is_branch_sweep(j0, arr, svc)
    j_prev = np.concatenate([j0[:, None], out.sojourn.values[:, :-1]], axis=1)
    assert np.sum(arr.values == j_prev) > 100
    assert np.sum(arr.values == 0.0) > 100


def test_sweep_matches_branch_oracle_on_reversed_views():
    # check_duality feeds the sweep negative-stride views of its outputs.
    # At 9001 slots the reversed view and its every other slot (4501) are
    # long enough to be swept as chunks.
    spec = RngSpec(12, "views")
    for length in (3000, 9001):
        arr = sample_exp_window(1, length, 2.0, spec.sub("I"))
        svc = sample_exp_window(1, length, 1.0, spec.sub("w"))
        fwd = lindley_iterate(0.4, arr, svc)
        rev_arr = SeqWindow(1, fwd.departures.values[::-1])
        rev_svc = SeqWindow(1, fwd.unused.values[::-1])
        assert rev_arr.values.strides[0] < 0
        assert_sweep_is_branch_sweep(fwd.final_sojourn, rev_arr, rev_svc)
        assert_sweep_is_branch_sweep(0.0, SeqWindow(1, arr.values[::-2]),
                                     SeqWindow(1, svc.values[::-2]))
        # and the [:, ::-1] views of a stack
        arr = SeqWindow(1, np.stack([arr.values, svc.values[::-1], 3.0 * svc.values]))
        svc = SeqWindow(1, np.stack([svc.values, svc.values, arr.values[0]]))
        fwd = lindley_iterate(np.array([0.4, 0.0, 2.5]), arr, svc)
        rev_arr = SeqWindow(1, fwd.departures.values[:, ::-1])
        rev_svc = SeqWindow(1, fwd.unused.values[:, ::-1])
        assert rev_arr.values.strides[1] < 0
        assert_sweep_is_branch_sweep(fwd.final_sojourn, rev_arr, rev_svc)
        assert_sweep_is_branch_sweep(0.0, SeqWindow(1, arr.values[:, ::-2]),
                                     SeqWindow(1, svc.values[:, ::-2]))


@pytest.mark.parametrize("length, service_mean", [
    (4096, 0.5),      # the shortest chunked window: 64 chunks, no tail
    (4097, 0.5),      # a tail of one slot
    (125_001, 0.6),   # 354 chunks of 353 slots and a tail of 39
    (20_000, 0.95),   # long busy periods: heads need long repairs
    (20_000, 1.05),   # unstable: most chunks never meet their true chain
])
def test_long_windows_are_the_branch_sweep(length, service_mean):
    spec = RngSpec(53, f"chunks{length}/{service_mean}")
    arr = sample_exp_window(1, length, 1.0, spec.sub("I"))
    svc = sample_exp_window(1, length, service_mean, spec.sub("w"))
    for j_left in (0.0, 2.5):
        assert_sweep_is_branch_sweep(j_left, arr, svc)
    # From a long queue the first two chunks never idle, so chunk 1 is
    # repaired from its first slot to its last.
    size = math.isqrt(length)
    j_left = 40.0 * size
    out = assert_sweep_is_branch_sweep(j_left, arr, svc)
    assert (arr.values < incoming(j_left, out.sojourn.values))[:2 * size].all()


def test_long_half_integer_windows_tie_at_chunk_starts():
    # Exact ties I_k == J_{k-1} at the first slot of a chunk, where the
    # speculative chain restarts from an empty queue.
    gen = RngSpec(7, "chunk-ties").generator()
    length = 10_007  # chunks of 100 slots and a tail of 7
    arr = SeqWindow(1, gen.integers(0, 4, length) / 2.0)
    svc = SeqWindow(1, gen.integers(0, 3, length) / 2.0)
    starts = np.arange(100, length - 7, 100)
    for j_left in (0.0, 0.5, 60.0):
        out = assert_sweep_is_branch_sweep(j_left, arr, svc)
        j_prev = incoming(j_left, out.sojourn.values)
        assert np.sum(arr.values[starts] == j_prev[starts]) >= 10
        assert np.sum(arr.values == j_prev) > 1000


@pytest.mark.parametrize("length", [1000, 5000])
def test_negative_zero_service_gives_an_equal_zero_sojourn(length):
    # Every slot idles, so the sojourn is the service.  The float loop
    # keeps a -0.0 service's sign; the lockstep step adds +0 and gives
    # +0.0.  Both equal the branch sweep by value.
    svc = np.where(np.arange(length) % 2 == 0, -0.0, 0.5)
    arr = SeqWindow(1, np.ones(length))
    out = lindley_iterate(0.0, arr, SeqWindow(1, svc))
    _, soj, _ = branch_sweep(0.0, arr, SeqWindow(1, svc))
    assert np.array_equal(out.sojourn.values, soj)
    differs = out.sojourn.values.view(np.int64) != soj.view(np.int64)
    assert np.all(np.signbit(svc[differs]))


@pytest.mark.parametrize("length", [1000, 5000])
def test_infinite_arrival_idles_to_the_service(length):
    # I_k = inf empties the queue: the sojourn there is the service, as in
    # the float loop, in a stack and in a window swept as chunks.
    spec = RngSpec(17, f"inf{length}")
    arr = sample_exp_window(1, length, 1.0, spec.sub("I")).values
    svc = sample_exp_window(1, length, 0.5, spec.sub("w")).values
    slot = length // 2 + 3
    arr[slot] = np.inf
    out = assert_sweep_is_branch_sweep(0.0, SeqWindow(1, arr), SeqWindow(1, svc))
    assert out.sojourn.values[slot] == svc[slot]
    assert not np.isnan(out.sojourn.values).any()
    stack = np.stack([arr, np.roll(arr, 7)])
    out = assert_sweep_is_branch_sweep(np.array([0.0, 3.0]), SeqWindow(1, stack),
                                       SeqWindow(1, np.stack([svc, svc])))
    assert out.sojourn.values[0, slot] == svc[slot]
    assert out.sojourn.values[1, slot + 7] == svc[slot + 7]


def where_outputs(j_left, arrivals, services, sojourn):
    """(departures, unused) by a branch mask over the shifted sojourn, with
    np.where on fresh temporaries: the output stage lindley_iterate had
    before it computed max(I - J_prev, 0) + w and min(I, J_prev) in place."""
    arr, svc = arrivals.values, services.values
    j_prev = np.concatenate((np.asarray(j_left)[..., None], sojourn[..., :-1]), axis=-1)
    idle = arr >= j_prev
    return np.where(idle, svc + (arr - j_prev), svc), np.where(idle, j_prev, arr)


@pytest.mark.parametrize("length", [1000, 5000])
def test_outputs_equal_the_where_stage(length):
    # Bit for bit on a short window, a window swept as chunks and a stack,
    # with exact ties, and with an infinite arrival in each.
    spec = RngSpec(19, f"where{length}")
    gen = spec.generator()
    arr = sample_exp_window(1, length, 1.0, spec.sub("I")).values
    svc = sample_exp_window(1, length, 0.7, spec.sub("w")).values
    arr[length // 3] = np.inf
    ties = gen.integers(0, 6, (3, length)) / 2.0
    ties[1, length // 2] = np.inf
    # (j_left, arrivals, services, least number of ties I_k == J_{k-1})
    cases = [(0.0, arr, svc, 0), (2.5, arr, svc, 0), (0.0, ties[1], ties[2] / 3.0, 10),
             (np.array([0.0, 1.5, 40.0]), np.stack([arr, ties[1], arr[::-1]]),
              np.stack([svc, ties[0] / 2.0, 0.9 * svc]), 10)]
    for j_left, a, w, min_ties in cases:
        a, w = SeqWindow(1, a), SeqWindow(1, w)
        out = lindley_iterate(j_left, a, w)
        want = where_outputs(out.j_left, a, w, out.sojourn.values)
        for got, expect in zip((out.departures.values, out.unused.values), want):
            assert np.array_equal(got.view(np.int64), expect.view(np.int64))
        assert np.isinf(out.departures.values).any()
        j_prev = np.concatenate((np.asarray(out.j_left)[..., None],
                                 out.sojourn.values[..., :-1]), axis=-1)
        assert np.sum(a.values == j_prev) >= min_ties


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
    assert sweep_reports(j0, arr, svc)[0].max_abs_error < 1e-9


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 30), nonneg, st.data())
def test_duality_holds_pathwise(n, j0, data):
    arr = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    svc = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    assert sweep_reports(j0, arr, svc)[1].max_abs_error < 1e-9


@settings(deadline=None, max_examples=80)
@given(st.integers(1, 30), nonneg, st.data())
def test_T_identity_holds_pathwise(n, j0, data):
    arr = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    svc = SeqWindow(1, data.draw(st.lists(nonneg, min_size=n, max_size=n)))
    assert sweep_reports(j0, arr, svc)[2].max_abs_error < 1e-9


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
        conservation, duality, t_identity = sweep_reports(j0, arr, svc)
        assert conservation.max_abs_error < 1e-12
        assert duality.max_abs_error < 1e-12
        assert t_identity.max_abs_error < 1e-9
        assert check_strip_identities(j0, arr, svc).max_abs_error < 1e-9


def test_stacked_checks_equal_max_over_rows():
    spec = RngSpec(41, "stacked-checks")
    k, n = 12, 400
    j0 = exp_from_uniform(spec.sub("j0").generator().random(k), 1.0)
    j0[0] = 0.0
    lines = [np.stack([sample_exp_window(1, n, m * (1.0 + r / k),
                                         spec.sub(f"L{m}/{r}")).values
                       for r in range(k)])
             for m in (1.0, 2.0, 3.5, 5.0)]
    arr, svc = lines[2], lines[0]

    def reports(j, a, w):
        return [*sweep_reports(j, a, w), check_strip_identities(j, a, w)]

    stacked = reports(j0, SeqWindow(1, arr), SeqWindow(1, svc))
    rows = [reports(j0[r], SeqWindow(1, arr[r]), SeqWindow(1, svc[r])) for r in range(k)]
    worst = []
    for i, rep in enumerate(stacked):
        errors = [row[i].max_abs_error for row in rows]
        assert rep.max_abs_error == max(errors)
        assert rep.passed
        worst.append(max(errors))
    stacked = check_intertwining([SeqWindow(1, a) for a in lines[1:]],
                                 SeqWindow(1, lines[0]))
    rows = [check_intertwining([SeqWindow(1, a[r]) for a in lines[1:]],
                               SeqWindow(1, lines[0][r]))
            for r in range(k)]
    for i, rep in enumerate(stacked):
        errors = [row[i].max_abs_error for row in rows]
        assert rep.max_abs_error == max(errors)
        assert rep.extras == {"order": i + 2, "interior": n - int(0.2 * n)}
        worst.append(max(errors))
    assert all(w > 0.0 for w in worst)
    # the stacked strip table is each row's table, bit for bit
    table = strip_lpp_H(j0, SeqWindow(1, arr), SeqWindow(1, svc))
    assert np.array_equal(table.j_left, j0)
    for r in range(k):
        row = strip_lpp_H(j0[r], SeqWindow(1, arr[r]), SeqWindow(1, svc[r]))
        assert row.j_left == j0[r]
        assert np.array_equal(table.level0.values[r], row.level0.values)
        assert np.array_equal(table.level1.values[r], row.level1.values)


def test_intertwining_identity_random_streams():
    spec = RngSpec(88, "twine")
    svc = sample_exp_window(1, 500, 1.0, spec.sub("svc"))
    seqs = [sample_exp_window(1, 500, m, spec.sub(f"L{m}")) for m in (4.5, 3.0, 2.0)]
    reps = check_intertwining(seqs[::-1], svc)
    assert [rep.name for rep in reps] == ["intertwining-2", "intertwining-3"]
    assert all(rep.passed and rep.max_abs_error < 1e-9 for rep in reps)


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


def strip_levels_before(j_left, arrivals, services):
    """strip_lpp_H's (level0, level1) as computed before level 1 became one
    lpp row step, from cumsum and maximum.accumulate, kept as the oracle."""
    arr, svc = arrivals.values, services.values
    j = np.broadcast_to(np.asarray(j_left, dtype=np.float64), arr.shape[:-1])
    zero = np.zeros(arr.shape[:-1])
    h0 = np.concatenate((zero[..., None], np.cumsum(arr, axis=-1)), axis=-1)
    cw = np.cumsum(svc, axis=-1)
    # H1[n] = Cw[n] + max(j_left, max_{j<=n} (P_I[j] - Cw[j-1]))
    split = np.maximum(h0[..., 1:] - (cw - svc), j[..., None])
    h1 = np.concatenate((j[..., None], cw + np.maximum.accumulate(split, axis=-1)),
                        axis=-1)
    return h0, h1


def assert_strip_is_oracle(j_left, arrivals, services):
    """strip_lpp_H's levels against strip_levels_before, bit for bit."""
    table = strip_lpp_H(j_left, arrivals, services)
    want = strip_levels_before(j_left, arrivals, services)
    for got, expect in zip((table.level0.values, table.level1.values), want):
        assert got.shape == expect.shape
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))


@pytest.mark.parametrize("length", [1, 7, 1000])
def test_strip_table_matches_cumsum_oracle_on_seeded_windows(length):
    spec = RngSpec(37, f"strip{length}")
    arrs, svcs = [], []
    for r, (rho, lam) in enumerate([(2.0, 1.0), (1.5, 1.4), (1.0, 3.0)]):
        arr = sample_exp_window(1, length, rho, spec.sub(f"I{r}"))
        svc = sample_exp_window(1, length, lam, spec.sub(f"w{r}"))
        for j0 in (0.0, 0.75 * r, float(exp_from_uniform(r / 4, 2.0))):
            assert_strip_is_oracle(j0, arr, svc)
        arrs.append(arr.values)
        svcs.append(svc.values)
    # the same instances as one stack, from a shared and a per-row j_left
    arr, svc = SeqWindow(1, np.stack(arrs)), SeqWindow(1, np.stack(svcs))
    assert_strip_is_oracle(0.5, arr, svc)
    assert_strip_is_oracle(np.array([0.0, 0.75, 4.0]), arr, svc)


def test_strip_table_matches_cumsum_oracle_on_tie_windows():
    # Half-integer inputs and j_left make exact ties in the running maximum.
    gen = RngSpec(38, "strip-ties").generator()
    j0 = np.array([0.0, 0.5, 2.0, 0.0, 3.5, 1.0])
    arr = SeqWindow(1, gen.integers(0, 8, (6, 500)) / 2.0)
    svc = SeqWindow(1, gen.integers(0, 4, (6, 500)) / 2.0)
    assert_strip_is_oracle(j0, arr, svc)
    for r in range(len(j0)):
        assert_strip_is_oracle(j0[r], SeqWindow(1, arr.values[r]), SeqWindow(1, svc.values[r]))
    # a split term that equals the running maximum before it is a tie
    h0, _ = strip_levels_before(j0, arr, svc)
    split = h0[:, 1:] - (np.cumsum(svc.values, axis=1) - svc.values)
    best = np.maximum.accumulate(np.maximum(split, j0[:, None]), axis=1)
    assert np.sum(split[:, 1:] == best[:, :-1]) > 100


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 40), st.integers(1, 4), st.data())
def test_strip_table_matches_cumsum_oracle_with_ties_and_zeros(n, k, data):
    j_left = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 5.0)
    rows = st.lists(st.lists(tie_prone, min_size=n, max_size=n), min_size=k, max_size=k)
    arr = np.array(data.draw(rows))
    svc = np.array(data.draw(rows))
    j0 = np.array(data.draw(st.lists(j_left, min_size=k, max_size=k)))
    assert_strip_is_oracle(j0[0], SeqWindow(1, arr[0]), SeqWindow(1, svc[0]))
    assert_strip_is_oracle(j0, SeqWindow(1, arr), SeqWindow(1, svc))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_strip_table_refuses_non_finite_inputs(bad):
    for shape in ((6,), (3, 6)):
        for which in (0, 1):
            inputs = [np.ones(shape), np.full(shape, 0.5)]
            inputs[which][..., 4] = bad
            arr, svc = (SeqWindow(1, x) for x in inputs)
            with pytest.raises(ValueError, match="finite"):
                strip_lpp_H(0.5, arr, svc)


@pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
def test_nan_or_negative_left_sojourn_is_refused(bad):
    spec = RngSpec(39, "bad-left")
    arr = sample_exp_window(1, 20, 2.0, spec.sub("I"))
    svc = sample_exp_window(1, 20, 1.0, spec.sub("w"))
    stack_arr = SeqWindow(1, np.stack([arr.values] * 3))
    stack_svc = SeqWindow(1, np.stack([svc.values] * 3))
    for call in (lindley_iterate, strip_lpp_H, check_sweep_identities,
                 check_strip_identities):
        with pytest.raises(ValueError, match="nonnegative"):
            call(bad, arr, svc)
        # a stack with one bad row, and a bad value shared by every row
        with pytest.raises(ValueError, match="nonnegative"):
            call(np.array([0.5, bad, 1.0]), stack_arr, stack_svc)
        with pytest.raises(ValueError, match="nonnegative"):
            call(bad, stack_arr, stack_svc)
        call(np.array([0.5, 0.0, 1.0]), stack_arr, stack_svc)
    with pytest.raises(ValueError, match="nonnegative"):
        BoundaryPolicy.given(bad)
    with pytest.raises(ValueError, match="nonnegative"):
        BoundaryPolicy(j_left=bad)


def test_burn_in_trim_cuts_windows_and_stacks():
    values = np.arange(30.0).reshape(3, 10)
    for window in (SeqWindow(4, values[0]), SeqWindow(4, values)):
        cut = BoundaryPolicy.burn_in(0.25).trim(window)
        assert cut.offset == 6
        assert np.array_equal(cut.values, window.values[..., 2:])
        assert len(BoundaryPolicy.burn_in(0.0).trim(window)) == 10
        assert BoundaryPolicy.given(0.5).trim(window) is window


def test_intertwining_interior_is_the_burn_in_trim():
    spec = RngSpec(40, "twine-cut")
    n = 250
    svc = sample_exp_window(1, n, 1.0, spec.sub("svc"))
    seqs = [sample_exp_window(1, n, m, spec.sub(f"L{m}")) for m in (2.0, 3.0)]
    (rep,) = check_intertwining(seqs, svc)
    assert rep.extras["interior"] == n - int(0.2 * n)
    # one line has no order to check, and no line is refused
    assert check_intertwining(seqs[:1], svc) == ()
    with pytest.raises(ValueError, match="line"):
        check_intertwining([], svc)


def test_policy_validation():
    with pytest.raises(ValueError):
        BoundaryPolicy.given(-1.0)
    with pytest.raises(ValueError):
        BoundaryPolicy.given(np.inf)
    with pytest.raises(ValueError):
        BoundaryPolicy.burn_in(1.0)


def test_misaligned_windows_rejected():
    with pytest.raises(ValueError):
        lindley_iterate(0.0, SeqWindow(0, [1.0]), SeqWindow(1, [1.0]))
    with pytest.raises(ValueError):
        lindley_iterate(0.0, SeqWindow(0, [1.0, 2.0]), SeqWindow(0, [1.0]))


def criterion_2_per_instance(seed, instances, window):
    """Criterion 2's worst errors, checking one instance at a time on single
    windows, as the criterion did before it checked stacks."""
    spec = RngSpec(seed, "criterion2")
    worst = {"conservation": 0.0, "duality": 0.0, "T-identity": 0.0,
             "intertwining-2": 0.0, "intertwining-3": 0.0}
    for r in range(instances):
        s = spec.sub(f"i{r}")
        gen = s.generator()
        rho = 1.5 + 2.5 * gen.random()
        lam = rho * (0.35 + 0.5 * gen.random())
        j0 = float(exp_from_uniform(gen.random(), 1.0))
        arr = sample_exp_window(1, window, rho, s.sub("I"))
        svc = sample_exp_window(1, window, lam, s.sub("w"))
        worst["conservation"] = max(worst["conservation"],
                                    check_conservation(j0, arr, svc).max_abs_error)
        worst["duality"] = max(worst["duality"],
                               check_duality(j0, arr, svc).max_abs_error)
        worst["T-identity"] = max(worst["T-identity"],
                                  check_T_identity(j0, arr, svc).max_abs_error)
        base = 0.7 + 0.6 * gen.random()
        means = base * np.array([1.0, 1.8 + 0.4 * gen.random(),
                                 3.0 + 0.8 * gen.random(), 4.6 + gen.random()])
        seqs = [sample_exp_window(1, window, means[k], s.sub(f"L{k}"))
                for k in range(4)]
        two = check_intertwining_identity([seqs[2], seqs[1]], seqs[0])
        three = check_intertwining_identity([seqs[3], seqs[2], seqs[1]], seqs[0])
        worst["intertwining-2"] = max(worst["intertwining-2"], two.max_abs_error)
        worst["intertwining-3"] = max(worst["intertwining-3"], three.max_abs_error)
    return worst


@pytest.mark.parametrize("seed, instances, window",
                         [(20260822, 20, 1000), (5, _STACK_BLOCK + 3, 60)])
def test_criterion_2_matches_per_instance_loop(seed, instances, window):
    # the second case spans two blocks, the last one of three instances
    res = criterion_2(seed, instances, window)
    want = criterion_2_per_instance(seed, instances, window)
    assert {r.name: r.statistic for r in res.reports} == \
        {f"queueing-{k}": v for k, v in want.items()}
    assert all(r.n == instances for r in res.reports)


def test_criterion_2_blocks_cover_every_instance(monkeypatch):
    # With blocks of 4, counts 1 to 9 end on every position in a block.
    # Every instance must reach the checks once, in order: j0 is drawn
    # third from each instance's own stream.
    monkeypatch.setattr(verification, "_STACK_BLOCK", 4)
    seen = []

    def spy(j0, arr, svc):
        seen.append(j0)
        return check_sweep_identities(j0, arr, svc)

    monkeypatch.setattr(verification, "check_sweep_identities", spy)
    for instances in range(1, 10):
        seen.clear()
        res = criterion_2(9, instances, 30)
        want_j0 = []
        for r in range(instances):
            u = RngSpec(9, "criterion2").sub(f"i{r}").generator().random(3)[2]
            want_j0.append(float(exp_from_uniform(u, 1.0)))
        assert [len(j0) for j0 in seen] == [4] * (instances // 4) + \
            ([instances % 4] if instances % 4 else [])
        assert np.concatenate(seen).tolist() == want_j0
        want = criterion_2_per_instance(9, instances, 30)
        assert [r.statistic for r in res.reports] == list(want.values())


def test_criterion_2_sweeps_once_for_three_identities(monkeypatch):
    # One block of 200 instances: the three sweep identities share one
    # forward sweep and add the duality's reverse one (2), and the order-2
    # and order-3 intertwining reports share one multiline step of the
    # three lines (3), their departure folds (1 + 2) and those of the
    # stepped lines (1 + 2), each order adding its service sweep (2).
    calls = []

    def spy(*args):
        calls.append(args)
        return lindley_iterate(*args)

    monkeypatch.setattr(queueing, "lindley_iterate", spy)
    assert run_criterion(2).passed
    assert len(calls) == 13
    assert {args[1].values.shape for args in calls} == {(200, 1000)}


def criterion_3_per_instance(seed, instances, window):
    """Criterion 3's worst strip error, checking one instance at a time on
    single windows, as the criterion did before it checked stacks."""
    spec = RngSpec(seed, "criterion3")
    worst = 0.0
    for r in range(instances):
        s = spec.sub(f"i{r}")
        gen = s.generator()
        rho = 1.5 + 2.5 * gen.random()
        lam = rho * (0.35 + 0.5 * gen.random())
        j0 = float(exp_from_uniform(gen.random(), 1.0))
        arr = sample_exp_window(1, window, rho, s.sub("I"))
        svc = sample_exp_window(1, window, lam, s.sub("w"))
        worst = max(worst, check_strip_identities(j0, arr, svc).max_abs_error)
    return worst


@pytest.mark.parametrize("seed, instances, window",
                         [(20260822, 100, 1000), (99, 100, 1000),
                          (20260822, _STACK_BLOCK + 1, 120)])
def test_criterion_3_matches_per_instance_loop(seed, instances, window):
    # the last case spans two blocks, the second of one instance
    res = criterion_3(seed, instances, window)
    assert [r.statistic for r in res.reports] == \
        [criterion_3_per_instance(seed, instances, window)]
    assert res.reports[0].n == instances and res.passed
