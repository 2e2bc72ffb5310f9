"""Multiline and coupled chain updates, stationary sampling, intertwining."""

import warnings

import numpy as np
import pytest

from cgmlab import multiclass
from cgmlab.rng import RngSpec, SeqWindow, sample_exp_window
from cgmlab.queueing import BoundaryPolicy, IdentityReport, _check, lindley_iterate, queue_D
from cgmlab.multiclass import (MultiConfig, build_triangular_arrays,
                               check_independence_structure, check_intertwining,
                               coupled_step, dmap, multiline_step, sample_mu_rho)
from cgmlab.stats import correlation_test, ks_one_sample, ks_two_sample
from test_lpp import half_integers
from test_queueing import check_intertwining_identity

BURN = BoundaryPolicy.burn_in(0.2)


def exp_cdf(mean):
    return lambda x: -np.expm1(-np.asarray(x) / mean)


def random_config(spec, means=(1.6, 2.5, 4.0), length=300):
    lines = [sample_exp_window(1, length, m, spec.sub(f"L{i}"))
             for i, m in enumerate(means)]
    return MultiConfig.from_lines(lines, rates=means)


def test_config_accessors_and_validation():
    cfg = random_config(RngSpec(1, "cfg"))
    assert cfg.n_lines == 3
    assert cfg.length == 300
    assert cfg.end == 301
    assert cfg.line(1).offset == 1
    # a cut config is still a config, and keeps its rates
    cut = BoundaryPolicy.burn_in(0.2).trim(cfg)
    assert isinstance(cut, MultiConfig) and cut.rates == cfg.rates
    with pytest.raises(ValueError):
        cfg.suffix(cfg.end)
    with pytest.raises(ValueError):
        MultiConfig.from_lines([SeqWindow(0, [1.0]), SeqWindow(1, [1.0])])
    with pytest.raises(ValueError):
        MultiConfig(0, np.ones(3))
    for rates in ((0.0, 2.0), (-1.0, 2.0), (np.nan, 2.0), (2.0, np.inf)):
        with pytest.raises(ValueError, match="rates must be positive and finite"):
            MultiConfig(0, np.ones((2, 3)), rates)


def test_sample_mu_rho_refuses_a_rate_outside_zero_to_infinity():
    # each rate is a draw mean, which the draw refuses
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="mean must be positive and finite"):
            sample_mu_rho((2.0, bad), 1, 20, RngSpec(28, "bad-rate"))


def test_single_line_step_is_departure_map():
    spec = RngSpec(2, "one")
    line = sample_exp_window(1, 200, 2.0, spec.sub("I"))
    svc = sample_exp_window(1, 200, 1.0, spec.sub("w"))
    cfg = MultiConfig.from_lines([line])
    stepped = multiline_step(cfg, svc, BoundaryPolicy.given(0.0))
    dep = queue_D(line, svc, BoundaryPolicy.given(0.0))
    np.testing.assert_allclose(stepped.values[0], dep.values, atol=1e-12)
    coupled = coupled_step(cfg, svc, BoundaryPolicy.given(0.0))
    np.testing.assert_allclose(coupled.values[0], dep.values, atol=1e-12)


def test_dmap_warns_when_means_not_increasing():
    spec = RngSpec(3, "warn")
    lines = [sample_exp_window(1, 100, 4.0, spec.sub("a")),
             sample_exp_window(1, 100, 2.0, spec.sub("b"))]
    with pytest.warns(UserWarning):
        dmap(MultiConfig.from_lines(lines), BoundaryPolicy.given(0.0))


def test_mu_rho_line_marginals():
    rates = (1.5, 2.0, 4.0)
    cfg = sample_mu_rho(rates, 1, 30000, RngSpec(11, "mu"), BURN)
    for i, r in enumerate(rates):
        rep = ks_one_sample(cfg.values[i], exp_cdf(r), f"line{i}", 11)
        assert rep.passed, rep


def test_mu_rho_tied_rates_duplicate_lines():
    cfg = sample_mu_rho((2.0, 2.0), 1, 2000, RngSpec(12, "tie"), BURN)
    np.testing.assert_array_equal(cfg.values[0], cfg.values[1])
    mixed = sample_mu_rho((2.0, 3.0, 2.0), 1, 2000, RngSpec(13, "tie2"), BURN)
    np.testing.assert_array_equal(mixed.values[0], mixed.values[2])
    assert not np.array_equal(mixed.values[0], mixed.values[1])


def test_mu_rho_increment_atom_mass():
    # rates (1, rho): the line difference has a zero atom of mass 1/rho
    rho = 2.0
    cfg = sample_mu_rho((1.0, rho), 1, 60000, RngSpec(14, "atom"), BURN)
    d = (cfg.values[1] - cfg.values[0])[::4]
    hits = int(np.sum(d == 0.0))
    p0 = 1.0 / rho
    z = abs(hits - len(d) * p0) / np.sqrt(len(d) * p0 * (1 - p0))
    assert z < 3.0


def test_consistency_under_dropping_a_line():
    # removing the middle rate leaves the remaining joint law unchanged
    full = sample_mu_rho((1.5, 2.0, 4.0), 1, 30000, RngSpec(15, "full"), BURN)
    thin = sample_mu_rho((1.5, 4.0), 1, 30000, RngSpec(16, "thin"), BURN)
    for a, b in ((0, 0), (2, 1)):
        rep = ks_two_sample(full.values[a], thin.values[b], f"line{a}{b}", 15)
        assert rep.passed, rep
    d_full = (full.values[2] - full.values[0])[::4]
    d_thin = (thin.values[1] - thin.values[0])[::4]
    rep = ks_two_sample(d_full, d_thin, "diff", 15)
    assert rep.passed, rep


def test_monotone_coupling_under_rate_scaling():
    # shared uniforms and homogeneous maps: scaling every rate scales the draw
    a = sample_mu_rho((1.5, 2.0, 4.0), 1, 4000, RngSpec(17, "scale"), BURN)
    b = sample_mu_rho((1.8, 2.4, 4.8), 1, 4000, RngSpec(17, "scale"), BURN)
    assert np.all(b.values >= a.values)
    np.testing.assert_allclose(b.values, 1.2 * a.values, rtol=1e-9)


def test_multiline_step_preserves_marginals():
    rates = (1.6, 2.5, 4.5)
    spec = RngSpec(18, "step")
    lines = [sample_exp_window(1, 30000, r, spec.sub(f"line{i}"))
             for i, r in enumerate(rates)]
    cfg = MultiConfig.from_lines(lines, rates)
    svc = sample_exp_window(1, 30000, 1.0, spec.sub("svc"))
    out = multiline_step(cfg, svc, BURN)
    for i, r in enumerate(rates):
        rep = ks_one_sample(out.values[i], exp_cdf(r), f"after{i}", 18)
        assert rep.passed, rep
    for a, b in ((0, 1), (1, 2)):
        rep = correlation_test(out.values[a], out.values[b], f"cross{a}{b}", 18)
        assert rep.passed, rep


def test_coupled_step_preserves_joint_law():
    rates = (1.5, 3.0)
    base = sample_mu_rho(rates, 1, 30000, RngSpec(19, "base"), BURN)
    pre = sample_mu_rho(rates, 1, 37500, RngSpec(19, "pre"), BURN)
    svc = sample_exp_window(pre.offset, pre.length, 1.0, RngSpec(19, "svc"))
    out = coupled_step(pre, svc, BURN)
    for i in range(2):
        rep = ks_two_sample(base.values[i], out.values[i], f"line{i}", 19)
        assert rep.passed, rep
    d0 = (base.values[1] - base.values[0])[::4]
    d1 = (out.values[1] - out.values[0])[::4]
    rep = ks_two_sample(d0, d1, "diff", 19)
    assert rep.passed, rep


def test_triangular_diagonal_matches_iterated_departures():
    spec = RngSpec(20, "tri")
    cfg = random_config(spec, means=(1.8, 3.0, 5.0), length=400)
    tri = build_triangular_arrays(cfg, BoundaryPolicy.given(0.0))
    # validate=True has already asserted the whole diagonal; spot-check shape
    assert tri.n_lines == 3
    diag = tri.diagonal()
    ref = dmap(cfg, BoundaryPolicy.given(0.0))
    cut = int(0.2 * ref.length)
    np.testing.assert_allclose(diag.values[-1][cut:], ref.values[-1][cut:],
                               atol=1e-9)


def test_triangular_single_line_is_identity():
    cfg = random_config(RngSpec(21, "tri1"), means=(2.0,), length=50)
    tri = build_triangular_arrays(cfg, BoundaryPolicy.given(0.0))
    np.testing.assert_array_equal(tri.diagonal().values[0], cfg.values[0])


def triangular_double_loop(config, policy):
    """build_triangular_arrays' (eta, xi) before its columns ran the
    unused-input chain: row by row, stage by stage, kept as the oracle."""
    n = config.n_lines
    eta = [[None] * (i + 1) for i in range(n)]
    xi = [[None] * (i + 1) for i in range(n)]
    eta[0][0] = config.line(0)
    xi[0][0] = config.line(0)
    for i in range(1, n):
        eta[i][0] = config.line(i)
        for j in range(1, i + 1):
            out = lindley_iterate(policy.j_left, eta[i][j - 1], xi[i - 1][j - 1])
            eta[i][j] = out.departures
            xi[i][j - 1] = out.unused
        xi[i][i] = eta[i][i]
    return eta, xi


@pytest.mark.parametrize("policy", [BoundaryPolicy.given(0.0), BURN,
                                    BoundaryPolicy.given(1.5)],
                         ids=["given-0", "burn-in-0.2", "given-1.5"])
@pytest.mark.parametrize("ties", [False, True], ids=["exp", "half-integers"])
def test_triangular_columns_match_the_double_loop(ties, policy):
    spec = RngSpec(27, f"tri-oracle-{ties}")
    for n_lines in (1, 2, 3, 4):
        for length in (1, 7, 3000):
            lines = [sample_exp_window(1, length, 1.5 + k, spec.sub(f"L{k}-{length}"))
                     for k in range(n_lines)]
            if ties:
                lines = [SeqWindow(1, half_integers(w.values)) for w in lines]
            cfg = MultiConfig.from_lines(lines)
            tri = build_triangular_arrays(cfg, policy, validate=False)
            eta, xi = triangular_double_loop(cfg, policy)
            for got, want in ((tri.eta, eta), (tri.xi, xi)):
                assert [len(row) for row in got] == [len(row) for row in want]
                for w_got, w_want in zip(sum(got, []), sum(want, [])):
                    assert w_got.offset == w_want.offset
                    assert np.array_equal(w_got.values.view(np.uint64),
                                          w_want.values.view(np.uint64))


def test_triangular_column_marginals():
    # every unused-stage entry keeps the exponential law of its stage column
    rates = (2.0, 3.5, 5.5)
    spec = RngSpec(22, "tricol")
    length = 30000
    lines = [sample_exp_window(1, length, r, spec.sub(f"line{i}"))
             for i, r in enumerate(rates)]
    cfg = MultiConfig.from_lines(lines, rates)
    tri = build_triangular_arrays(cfg, BURN, validate=False)
    cut = int(0.2 * length)
    for i in range(3):
        for j in range(i + 1):
            rep = ks_one_sample(tri.xi[i][j].values[cut:], exp_cdf(rates[j]),
                                f"xi{i}{j}", 22)
            assert rep.passed, rep


def test_intertwining_dynamics_exact():
    spec = RngSpec(23, "dyn")
    cfg = random_config(spec, means=(1.9, 3.0, 5.0), length=500)
    svc = sample_exp_window(1, 500, 1.0, spec.sub("svc"))
    reps = check_intertwining([cfg.line(i) for i in range(cfg.n_lines)], svc)
    assert [rep.extras["order"] for rep in reps] == [2, 3]
    assert all(rep.passed and rep.max_abs_error < 1e-9 for rep in reps)


def test_intertwining_dynamics_interior_is_the_burn_in_trim():
    spec = RngSpec(23, "dyn-cut")
    cfg = random_config(spec, means=(1.9, 3.0), length=250)
    svc = sample_exp_window(1, 250, 1.0, spec.sub("svc"))
    (rep,) = check_intertwining([cfg.line(0), cfg.line(1)], svc)
    assert rep.extras == {"order": 2, "interior": 250 - int(0.2 * 250)}


# The all-lines intertwining check that check_intertwining replaced, kept
# verbatim as its oracle (test_queueing keeps the one-order check).

def check_intertwining_dynamics(config: MultiConfig, services: SeqWindow,
                                fraction: float = 0.2) -> IdentityReport:
    """Coupled step after the departure fold equals the fold after the
    multiline step, on the interior that BoundaryPolicy.burn_in(fraction)
    keeps (a fraction outside [0, 1) is refused)."""
    burn = BoundaryPolicy.burn_in(fraction)
    empty = BoundaryPolicy.given(0.0)
    lhs = burn.trim(coupled_step(dmap(config, empty), services, empty))
    rhs = burn.trim(dmap(multiline_step(config, services, empty), empty))
    return _check("intertwining-dynamics", lhs.values - rhs.values, 1e-9,
                  lines=config.n_lines, interior=lhs.length)


def assert_same_error(got: float, want: float):
    assert np.float64(got).tobytes() == np.float64(want).tobytes()


@pytest.mark.filterwarnings("ignore:line means")
@pytest.mark.parametrize("length", [1, 7, 500, 5000])
@pytest.mark.parametrize("ties", [False, True], ids=["exp", "half-integers"])
def test_intertwining_reports_match_the_old_checks(ties, length):
    # Order k is the old one-order check on lines k-1, ..., 0, on stacks and
    # on each of their rows (a long row takes the chunked sweep), and on a
    # row the old all-lines check is the largest order's error, bit for bit.
    spec = RngSpec(28, f"twine-oracle-{ties}-{length}")
    rows = 3
    for n_lines in (2, 3, 4):
        stacks = [np.stack([sample_exp_window(1, length, (1.0 + 0.8 * i) * (1 + r / rows),
                                              spec.sub(f"{n_lines}/L{i}/{r}")).values
                            for r in range(rows)])
                  for i in range(n_lines + 1)]
        if ties:
            stacks = [half_integers(a) for a in stacks]
        svc, *lines = [SeqWindow(1, a) for a in stacks]
        cases = [(lines, svc)] + [([SeqWindow(1, w.values[r]) for w in lines],
                                   SeqWindow(1, svc.values[r])) for r in range(rows)]
        for case, (case_lines, case_svc) in enumerate(cases):
            reps = check_intertwining(case_lines, case_svc)
            assert [rep.name for rep in reps] == \
                [f"intertwining-{k}" for k in range(2, n_lines + 1)]
            for k, rep in enumerate(reps, 2):
                want = check_intertwining_identity(case_lines[k - 1::-1], case_svc)
                assert_same_error(rep.max_abs_error, want.max_abs_error)
                assert (rep.tolerance, rep.passed, rep.extras) == \
                    (want.tolerance, want.passed, want.extras)
            if case:
                dyn = check_intertwining_dynamics(MultiConfig.from_lines(case_lines), case_svc)
                assert_same_error(dyn.max_abs_error, max(rep.max_abs_error for rep in reps))
                assert (dyn.tolerance, dyn.passed, dyn.extras["interior"]) == \
                    (1e-9, all(rep.passed for rep in reps), reps[0].extras["interior"])


def test_burn_in_trim_cuts_a_config_like_its_lines():
    cfg = random_config(RngSpec(25, "trim"), length=301)
    cut = BURN.trim(cfg)
    assert (cut.offset, cut.length, cut.rates) == (cfg.offset + 60, 241, cfg.rates)
    assert np.array_equal(cut.values, cfg.values[:, 60:])
    line = BURN.trim(cfg.line(1))
    assert line.offset == cut.offset
    assert np.array_equal(line.values, cut.values[1])
    assert BoundaryPolicy.given(0.0).trim(cfg) is cfg


def test_triangular_validation_reads_the_whole_window(monkeypatch):
    # A fold wrong at any slot fails the validation, the first 20% of the
    # window included.
    cfg = random_config(RngSpec(26, "tri-cut"), means=(1.8, 3.0), length=100)
    build_triangular_arrays(cfg, BoundaryPolicy.given(0.0))
    fold = multiclass._fold_lines

    def fold_wrong_at(slot):
        def wrong(lines, j_left):
            out = fold(lines, j_left)
            out[-1].values[slot] += 1.0
            return out
        return wrong

    for slot in (0, 19, 20, 99):
        monkeypatch.setattr(multiclass, "_fold_lines", fold_wrong_at(slot))
        with pytest.raises(AssertionError, match="diagonal"):
            build_triangular_arrays(cfg, BoundaryPolicy.given(0.0))


@pytest.mark.parametrize("ties", [False, True], ids=["exp", "half-integers"])
def test_triangular_validation_holds_at_every_left_sojourn(ties):
    # The diagonal is checked against the fold from the policy's own left
    # sojourn value, and no line-means warning is raised on the way.
    spec = RngSpec(29, f"tri-left-{ties}")
    for j_left in (0.0, 1.5, 7.0):
        for length in (7, 40, 3000):
            for r in range(20 if length < 3000 else 2):
                lines = [sample_exp_window(1, length, m, spec.sub(f"{j_left}/{length}/{r}/{m}"))
                         for m in (1.6, 2.5, 4.0)]
                if ties:
                    lines = [SeqWindow(1, half_integers(w.values)) for w in lines]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    build_triangular_arrays(MultiConfig.from_lines(lines),
                                            BoundaryPolicy.given(j_left))


def test_independence_structure_bound():
    # independent exponential input lines; probe index deep enough that the
    # zero boundary state has washed out
    spec = RngSpec(24, "indep")
    rates = (1.6, 3.2)
    arrays = []
    for r in range(4000):
        lines = [sample_exp_window(1, 40, rate, spec.sub(f"rep{r}/line{i}"))
                 for i, rate in enumerate(rates)]
        cfg = MultiConfig.from_lines(lines, rates)
        arrays.append(build_triangular_arrays(cfg, BoundaryPolicy.given(0.0),
                                              validate=False))
    rep = check_independence_structure(arrays, k=20)
    assert rep.passed, rep
    assert rep.max_cross_corr < rep.bound
