"""Limit-increment estimators, geodesic walks, interfaces, run laws."""

import numpy as np
import pytest

from cgmlab import busemann, rng
from cgmlab.busemann import (BusemannEdgeEstimates, Direction, coalescence_point,
                             competition_interface, direction_of_rho,
                             estimate_busemann_level, estimate_nested_levels,
                             geodesic_initial_runs, initial_run_statistics,
                             rho_of_direction, rho_star_threshold,
                             scaled_corner, wait_indicator_run)
from cgmlab.exact import initial_run_pmf
from cgmlab.lpp import (STEP_E1, STEP_E2, backtrack_geodesic, corner_fill, lpp_grid,
                        walk_to_corner)
from cgmlab.multiclass import sample_mu_rho
from cgmlab.queueing import BoundaryPolicy, lindley_iterate
from cgmlab.rng import RngSpec, SeqWindow, WeightField, sample_exp_field
from cgmlab.stats import chi_square_pmf, correlation_test, ks_two_sample
from cgmlab.verification import DEFAULT_MASTER_SEED
from test_lpp import cumsum_fill
from test_rng import count_draws, exp_from_uniform


def test_direction_roundtrip():
    gen = RngSpec(30, "dirs").generator()
    for rho in 1.0 + 19.0 * gen.random(100) + 0.01:
        u = direction_of_rho(rho)
        assert abs(u.e1 + u.e2 + 1.0) < 1e-12
        assert abs(rho_of_direction(u) - rho) < 1e-12
    u = direction_of_rho(2.0)
    assert u.e1 == pytest.approx(-0.5) and u.e2 == pytest.approx(-0.5)
    assert rho_of_direction((-0.25, -0.75)) == pytest.approx(1.0 + np.sqrt(3.0))


def test_direction_validation():
    with pytest.raises(ValueError):
        direction_of_rho(1.0)
    with pytest.raises(ValueError):
        Direction(0.0, 0.0)
    with pytest.raises(ValueError):
        Direction(0.5, -0.5)
    with pytest.raises(ValueError):
        rho_of_direction((0.5, -0.5))
    # a NaN fails every check instead of passing through it
    nan = float("nan")
    with pytest.raises(ValueError):
        Direction(-1.0, nan)
    with pytest.raises(ValueError):
        rho_of_direction((-1.0, nan))
    with pytest.raises(ValueError, match="exceed"):
        direction_of_rho(nan)
    # a Direction forced to hold a NaN, which its own check now refuses
    u = Direction(-1.0, -1.0)
    object.__setattr__(u, "e2", nan)
    with pytest.raises(ValueError):
        rho_of_direction(u)


def test_scaled_corner_sums_to_scale():
    for rho in (1.1, 1.5, 2.0, 3.0, 7.0):
        for n in (10, 400, 1500):
            m1, m2 = scaled_corner(rho, n)
            assert m1 >= 1 and m2 >= 1
            assert abs(m1 + m2 - n) <= 1
    # a scale below 1 is refused, not rounded up to a 1 x 1 corner
    assert scaled_corner(2.0, 1) == (1, 1)
    for n in (0, -5):
        with pytest.raises(ValueError):
            scaled_corner(2.0, n)
        with pytest.raises(ValueError):
            estimate_busemann_level(2.0, n, RngSpec(1, "x"), window=1)


def corner_table(rho, n, spec):
    """The full corner table that estimate_busemann_level(rho, n, spec)
    reads its edges from, and its field: the same draw, filled whole."""
    m1, m2 = scaled_corner(rho, n)
    field = sample_exp_field(m1 + 1, m2 + 1, 1.0, spec, origin=(-m1, -m2))
    return lpp_grid(field), field


def table_estimates(rho, n, table, window):
    """The increments along the last window + 1 entries of a full table's
    two edges through the origin."""
    g = table.values
    m1, m2 = g.shape[0] - 1, g.shape[1] - 1
    return BusemannEdgeEstimates(rho, n, (m1, m2), window,
                                 np.diff(g[m1 - window:, m2])[::-1],
                                 np.diff(g[m1, m2 - window:])[::-1])


def test_estimator_matches_table_differences():
    e = estimate_busemann_level(2.0, 120, RngSpec(36, "tab"), window=8)
    t, _ = corner_table(2.0, 120, RngSpec(36, "tab"))
    for k in range(8):
        h = t.at((-k, 0)) - t.at((-k - 1, 0))
        v = t.at((0, -k)) - t.at((0, -k - 1))
        assert e.horizontal[k] == pytest.approx(h, abs=1e-12)
        assert e.vertical[k] == pytest.approx(v, abs=1e-12)


def test_unit_square_additivity():
    t, _ = corner_table(2.0, 120, RngSpec(36, "tab"))
    for x1, x2 in ((-3, -4), (-10, -2), (-1, -1)):
        lo = t.at((x1 - 1, x2 - 1))
        via_e1 = (t.at((x1, x2 - 1)) - lo) + (t.at((x1, x2)) - t.at((x1, x2 - 1)))
        via_e2 = (t.at((x1 - 1, x2)) - lo) + (t.at((x1, x2)) - t.at((x1 - 1, x2)))
        assert via_e1 == pytest.approx(via_e2, abs=1e-9)


def same_estimates(a, b):
    return (a.corner == b.corner and a.window == b.window
            and np.array_equal(a.horizontal, b.horizontal)
            and np.array_equal(a.vertical, b.vertical))


@pytest.mark.parametrize("rho", [1.5, 2.0, 4.0])
def test_estimate_without_table_equals_full_fill(rho, monkeypatch):
    # the streamed corner fill against the full fill, bit for bit, on a
    # fresh field drawn from the spec and on a nested corner of a larger
    # shared field
    spec = RngSpec(43, "stream").sub(f"rho{rho}")
    table, _ = corner_table(rho, 400, spec)
    for window in (None, 5):
        bare = estimate_busemann_level(rho, 400, spec, window=window)
        assert same_estimates(bare, table_estimates(rho, 400, table, bare.window))
    # A sampled shared field streams the corner's rows and is never drawn
    # whole; a plain WeightField of its values is sliced.  The second field
    # reaches past the origin on both axes, so the streamed read stops at
    # the origin's row and column.
    m1, m2 = scaled_corner(rho, 400)
    drawn = count_draws(monkeypatch)
    for k, shape in enumerate([(420, 420), (437, 431)]):
        shared = sample_exp_field(*shape, 1.0, spec.sub(f"shared{k}"), origin=(-419, -419))
        drawn.clear()
        streamed = estimate_busemann_level(rho, 400, field=shared, window=7)
        assert max(drawn) <= 32 * shape[1]
        table = lpp_grid(WeightField((-m1, -m2), shared.values[419 - m1:420, 419 - m2:420]))
        assert same_estimates(streamed, table_estimates(rho, 400, table, 7))
        plain = WeightField(shared.origin, shared.values)
        assert same_estimates(streamed, estimate_busemann_level(rho, 400, field=plain,
                                                                window=7))


def test_nested_levels_equal_shared_field_estimates(monkeypatch):
    # Each nested estimate on the sampled field streams its corner's rows
    # from the first one's stream position, whose residue mod 4 (the doubles
    # discarded after the counter steps) takes every value, and never draws
    # the field whole; the same estimates on a plain WeightField of its
    # values slice it.
    spec = RngSpec(44, "nested")
    drawn = count_draws(monkeypatch)
    residues = set()
    for rho, scales in ((2.0, (600, 300, 298, 294)), (3.0, (500, 90, 500)), (2.0, (41,))):
        m1, m2 = scaled_corner(rho, max(scales))
        field = sample_exp_field(m1 + 1, m2 + 1, 1.0, spec.sub(f"{rho}"),
                                 origin=(-m1, -m2))
        drawn.clear()
        got = estimate_nested_levels([(rho, n) for n in scales], spec.sub(f"{rho}"), window=6)
        assert len(got) == len(scales)
        streamed = []
        for n, est in zip(scales, got):
            assert est.n == n
            streamed.append(estimate_busemann_level(rho, n, field=field, window=6))
            assert max(drawn) <= 32 * (m2 + 1)
            assert same_estimates(est, streamed[-1])
            residues.add((m1 - est.corner[0]) * (m2 + 1) % 4)
        plain = WeightField(field.origin, field.values)
        for n, est in zip(scales, streamed):
            assert same_estimates(est, estimate_busemann_level(rho, n, field=plain, window=6))
    assert residues == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        estimate_nested_levels([(2.0, 300), (2.0, 10)], spec, window=6)


def test_nested_corners_at_two_rho_equal_the_full_fills(monkeypatch):
    # Corners at two rho on one field: their bounding rectangle is read
    # once, a block at a time, and each estimate is bit for bit the field=
    # estimate on the drawn values and the full fill of its slice.
    spec = RngSpec(45, "two-rho")
    corners = [(2.0, 600), (3.0, 500)]
    sizes = [scaled_corner(rho, n) for rho, n in corners]
    m1, m2 = max(k1 for k1, _ in sizes), max(k2 for _, k2 in sizes)
    assert sizes[0] != (m1, m2) != sizes[1]
    drawn = count_draws(monkeypatch)
    got = estimate_nested_levels(corners, spec, window=6)
    assert max(drawn) <= 32 * (m2 + 1) and sum(drawn) == (m1 + 1) * (m2 + 1)
    plain = WeightField((-m1, -m2), sample_exp_field(m1 + 1, m2 + 1, 1.0, spec).values)
    for (rho, n), (k1, k2), est in zip(corners, sizes, got):
        assert (est.rho, est.n, est.corner) == (rho, n, (k1, k2))
        assert same_estimates(est, estimate_busemann_level(rho, n, field=plain, window=6))
        table = lpp_grid(WeightField((-k1, -k2), plain.values[m1 - k1:, m2 - k2:]))
        assert same_estimates(est, table_estimates(rho, n, table, 6))
    # one tall corner is read as its transpose, the full fill's rows
    (tall,) = estimate_nested_levels([(1.5, 300)], spec, window=6)
    table, _ = corner_table(1.5, 300, spec)
    assert tall.corner[0] > tall.corner[1]
    assert same_estimates(tall, table_estimates(1.5, 300, table, 6))
    with pytest.raises(ValueError, match="no corners"):
        estimate_nested_levels([], spec, window=6)
    # several corners with a tall one, on a tall bounding rectangle or not
    for refused in ([(1.5, 300), (1.5, 200)], [(1.5, 300), (4.0, 600)]):
        with pytest.raises(ValueError, match="tall"):
            estimate_nested_levels(refused, spec, window=6)


def test_recovery_residual_vanishes():
    # near the origin every weight is its table value less the larger of
    # the west and south values: the smaller of the two increments into a
    # site recovers its weight
    table, field = corner_table(1.7, 150, RngSpec(37, "reco"))
    g, y = table.values, field.values
    west, south = g[-33:-1, -32:], g[-32:, -33:-1]
    resid = g[-32:, -32:] - np.maximum(west, south) - y[-32:, -32:]
    assert np.max(np.abs(resid)) < 1e-9


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_busemann_level(2.0, 100)
    with pytest.raises(ValueError):
        estimate_busemann_level(2.0, 100, RngSpec(38, "w"), window=200)
    small = sample_exp_field(11, 11, 1.0, RngSpec(38, "w"), origin=(-10, -10))
    with pytest.raises(ValueError):
        estimate_busemann_level(2.0, 100, field=small)
    # a field and a spec are refused together: which would be drawn is unclear
    big = sample_exp_field(101, 101, 1.0, RngSpec(38, "w"), origin=(-100, -100))
    with pytest.raises(ValueError, match="not both"):
        estimate_busemann_level(2.0, 100, RngSpec(38, "w"), field=big)


def test_increment_monotonicity_on_shared_field():
    # nested corners of one weight field keep the parameter ordering exact;
    # the slack absorbs a few ulps from different summation groupings
    rhos = (1.4, 2.0, 3.0)
    n = 400
    corners = [scaled_corner(r, n) for r in rhos]
    rows = max(c[0] for c in corners) + 1
    cols = max(c[1] for c in corners) + 1
    field = sample_exp_field(rows, cols, 1.0, RngSpec(39, "mono"),
                             origin=(1 - rows, 1 - cols))
    ests = [estimate_busemann_level(r, n, field=field, window=16)
            for r in rhos]
    for lo, hi in ((0, 1), (1, 2)):
        assert np.all(ests[lo].horizontal <= ests[hi].horizontal + 1e-9)
        assert np.all(ests[lo].vertical >= ests[hi].vertical - 1e-9)


def test_vertical_law_is_flipped_horizontal_law():
    # vertical increments at rho match horizontal ones at rho/(rho-1)
    rho = 1.6
    flip = rho / (rho - 1.0)
    spec = RngSpec(32, "flip")
    v, h = [], []
    for r in range(180):
        v.append(estimate_busemann_level(rho, 400, spec.sub(f"v{r}"),
                                         window=12).vertical)
        h.append(estimate_busemann_level(flip, 400, spec.sub(f"h{r}"),
                                         window=12).horizontal)
    rep = ks_two_sample(np.concatenate(v), np.concatenate(h), "flip", 32)
    assert rep.passed, rep


def test_increment_independence_along_boundary():
    # edges on the axis path through the origin decorrelate, both between
    # adjacent horizontal edges and across the two orientations
    spec = RngSpec(31, "indep")
    pa, pb, h0, v0 = [], [], [], []
    for r in range(140):
        e = estimate_busemann_level(2.0, 400, spec.sub(f"f{r}"), window=16)
        pa.extend(e.horizontal[0:16:2])
        pb.extend(e.horizontal[1:16:2])
        h0.append(e.horizontal[0])
        v0.append(e.vertical[0])
    rep = correlation_test(np.array(pa), np.array(pb), "adjacent", 31)
    assert rep.passed, rep
    rep = correlation_test(np.array(h0), np.array(v0), "orientations", 31)
    assert rep.passed, rep


def test_geodesic_walk_follows_min_rule():
    t, _ = corner_table(2.0, 200, RngSpec(40, "walk"))
    m1, m2 = scaled_corner(2.0, 200)
    path = backtrack_geodesic(t, (0, 0))
    pts = path.points()
    assert pts[-1] == (-m1, -m2)
    assert not path.truncated
    for p, step in zip(pts, path.steps):
        x1, x2 = p
        if x1 == -m1:
            assert step == STEP_E2
        elif x2 == -m2:
            assert step == STEP_E1
        else:
            west = t.at((x1 - 1, x2))
            south = t.at((x1, x2 - 1))
            assert step == (STEP_E1 if west > south else STEP_E2)
    with pytest.raises(ValueError):
        backtrack_geodesic(t, (1, 1))


def test_path_weight_sum_and_coalescence_difference():
    # along every walk the weights add up to the table value, and a pair of
    # walks differs exactly by the weight sums before their meeting point
    spec = RngSpec(41, "coal")
    m1, m2 = scaled_corner(2.0, 400)
    interior = 0
    for r in range(25):
        table, weights = corner_table(2.0, 400, spec.sub(f"c{r}"))
        p1 = backtrack_geodesic(table, (0, 0))
        p2 = backtrack_geodesic(table, (0, -1))
        total = sum(weights.at(p) for p in p1.points())
        assert total == pytest.approx(table.at((0, 0)), abs=1e-9)
        z = coalescence_point(p1, p2)
        assert z is not None
        if z != (-m1, -m2):
            interior += 1
        s1 = sum(weights.at(p) for p in p1.points()[:p1.points().index(z)])
        s2 = sum(weights.at(p) for p in p2.points()[:p2.points().index(z)])
        diff = table.at((0, 0)) - table.at((0, -1))
        assert diff == pytest.approx(s1 - s2, abs=1e-9)
    assert interior >= 20


def test_competition_interface_first_step():
    vals = np.ones((3, 3))
    vals[1, 2] = 5.0  # site (-1, 0): routing through the west neighbor wins
    pts = competition_interface(WeightField((-2, -2), vals))
    assert pts[0].tolist() == [0, 0]
    assert pts[1].tolist() == [0, -1]
    vals = np.ones((3, 3))
    vals[2, 1] = 5.0  # site (0, -1): the south route wins instead
    pts = competition_interface(WeightField((-2, -2), vals))
    assert pts.shape == (2, 2) and pts[1].tolist() == [-1, 0]
    # a field under 3 x 3 leaves no step
    for shape in ((2, 2), (2, 9), (9, 2)):
        with pytest.raises(ValueError):
            competition_interface(WeightField((1 - shape[0], 1 - shape[1]), np.ones(shape)))
    with pytest.raises(ValueError):
        competition_interface(WeightField((0, 0), np.ones((3, 3))))


def reverse_fill(values):
    """R[a, b] = best path sum from (a, b) to the northeast corner."""
    return cumsum_fill(values[::-1, ::-1])[::-1, ::-1]


def two_table_interface(weights, steps=None):
    """The previous two-table walk, kept as the oracle: it fills one reverse
    table to (-1, 0) and one to (0, -1), and from phi steps -e2 exactly when
    the site phi - e1 - e2 routes strictly better through (-1, 0)."""
    n1, n2 = -weights.origin[0], -weights.origin[1]
    if steps is None:
        steps = min(n1, n2) - 1
    to_west = reverse_fill(weights.values[:-1, :])
    to_south = reverse_fill(weights.values[:, :-1])
    pts = np.zeros((steps + 1, 2), dtype=np.int64)
    phi = np.array([0, 0], dtype=np.int64)
    for k in range(steps):
        a, b = phi[0] - 1 + n1, phi[1] - 1 + n2
        if to_west[a, b] > to_south[a, b]:
            phi[1] -= 1
        else:
            phi[0] -= 1
        pts[k + 1] = phi
    return pts


def _interface_ties(weights, pts):
    """Steps of an interface taken on an exact tie L(phi - e1) == L(phi - e2)."""
    n1, n2 = -weights.origin[0], -weights.origin[1]
    L = reverse_fill(weights.values)
    return sum(int(L[x1 - 1 + n1, x2 + n2] == L[x1 + n1, x2 - 1 + n2])
               for x1, x2 in pts[:-1])


def test_competition_interface_matches_two_table_walk():
    spec = RngSpec(43, "cif-oracle")
    for r, (rows, cols) in enumerate([(41, 41), (30, 75), (90, 24),
                                      (121, 121), (3, 8), (3, 3)] * 5):
        field = sample_exp_field(rows, cols, 1.0, spec.sub(f"f{r}"),
                                 origin=(1 - rows, 1 - cols))
        limit = min(rows, cols) - 2
        pts = competition_interface(field)
        assert pts.shape == (limit + 1, 2)
        # a walk of k steps is the first k + 1 points of the whole walk
        for steps in sorted({1, max(1, limit // 2), limit}):
            assert np.array_equal(pts[:steps + 1], two_table_interface(field, steps))


def test_competition_interface_tie_rule():
    # integer weights in {0, 1, 2} make exact ties frequent; on a tie both
    # walks step -e1
    gen = RngSpec(44, "cif-ties").generator()
    ties = 0
    for rows, cols in [(25, 25), (12, 40), (60, 17)] * 20:
        field = WeightField((1 - rows, 1 - cols),
                            gen.integers(0, 3, (rows, cols)).astype(np.float64))
        pts = competition_interface(field)
        assert np.array_equal(pts, two_table_interface(field))
        ties += _interface_ties(field, pts)
    assert ties >= 100


def test_undrawn_field_interface_equals_the_drawn_values(monkeypatch):
    # A sampled field is walked on rows drawn a block at a time from the
    # bottom of the field (gathered into their transpose when the field is
    # tall), never drawn whole; the same values in a plain WeightField are
    # walked on the whole array.
    spec = RngSpec(46, "cif-undrawn")
    drawn = count_draws(monkeypatch)
    for r, (rows, cols) in enumerate([(41, 41), (121, 121), (30, 75), (70, 200),
                                      (3, 8), (3, 3), (100, 101), (90, 24), (8, 3)] * 3):
        field = sample_exp_field(rows, cols, 1.0, spec.sub(f"f{r}"),
                                 origin=(1 - rows, 1 - cols))
        drawn.clear()
        pts = competition_interface(field)
        assert max(drawn) <= 32 * cols
        plain = WeightField(field.origin, field.values)
        assert np.array_equal(pts, competition_interface(plain))


def test_competition_interface_fills_only_rows_it_reads(monkeypatch):
    # The reverse table is filled by rows (by columns when the field is
    # tall) as the walk descends, never past the row after its last one.
    # Weights of 1e308 on every later row overflow any fill that reaches
    # them, so the walk must come out unchanged without overflowing.  A
    # sampled field that is not tall draws only the 32-row blocks that hold
    # those rows, counted at the sampler's one exponential transform; a
    # tall one is gathered whole into its transpose, 32 rows at a time.
    drawn = []
    exp_in_place = rng._exp_in_place
    monkeypatch.setattr(rng, "_exp_in_place",
                        lambda u, mean: drawn.append(len(u)) or exp_in_place(u, mean))
    spec = RngSpec(45, "cif-rows")
    for r, (rows, cols) in enumerate([(121, 121), (60, 150), (150, 60), (400, 420)]):
        field = sample_exp_field(rows, cols, 1.0, spec.sub(f"f{r}"),
                                 origin=(1 - rows, 1 - cols))
        drawn.clear()
        pts = competition_interface(field)
        i_f, j_f = -pts[-1]
        assert max(drawn) <= 32
        if rows > cols:
            assert sum(drawn) == rows
        else:
            # rows 0 to i_f + 1 of the reversed field are read
            assert sum(drawn) == min(rows, 32 * -(-(i_f + 2) // 32))
        vals = field.values.copy()
        if rows > cols:
            assert i_f >= 3  # a skipped column wide enough to overflow
            vals[:, :cols - 2 - j_f] = 1e308
        else:
            assert j_f >= 3
            vals[:rows - 2 - i_f] = 1e308
        with np.errstate(over="raise"):
            got = competition_interface(WeightField(field.origin, vals))
        assert np.array_equal(got, pts)


def test_competition_interface_on_criterion9_field():
    # the first site criterion 9 draws at the default seed
    field = sample_exp_field(
        1001, 1001, 1.0,
        RngSpec(DEFAULT_MASTER_SEED, "criterion9").sub("site0"),
        origin=(-1000, -1000))
    pts = competition_interface(field)
    assert pts.shape == (1000, 2)
    assert np.array_equal(pts, two_table_interface(field))


def test_threshold_estimate_and_grid_crossing():
    # a 202 x 202 field gives a walk of 200 steps
    out = rho_star_threshold(sample_exp_field(202, 202, 1.0, RngSpec(42, "cif-threshold"),
                                              origin=(-201, -201)))
    assert out.e1_steps + out.e2_steps == 200
    assert out.estimate == pytest.approx(
        1.0 + np.sqrt(out.e2_steps / out.e1_steps))
    # On a grid of parameters, the first step of the walk from the origin
    # toward each parameter's corner, read off the corner's last two rows
    # and off its full table, changes sign once: the first parameter whose
    # walk starts with -e2 estimates the threshold a second way.
    n = 300
    field = sample_exp_field(n + 1, n + 1, 1.0, RngSpec(42, "cif"), origin=(-n, -n))
    codes = []
    for rho in np.linspace(1.05, 8.0, 60):
        m1, m2 = scaled_corner(float(rho), n)
        vals = field.values[n - m1:, n - m2:]
        code = walk_to_corner(corner_fill(vals, 2), 1, 1, max_steps=1)[0][0]
        assert code == walk_to_corner(cumsum_fill(vals), m1, m2, max_steps=1)[0][0]
        codes.append(code)
    assert codes[0] == STEP_E1 and codes[-1] == STEP_E2
    assert np.all(np.diff(codes) >= 0)


def test_initial_run_histogram_and_masses():
    # the smallest rho = 2 corner that holds five starts 48 apart and a
    # run cap of 8: 105 = 96 + 8 + 1 on a side
    runs = geodesic_initial_runs(2.0, 210, 300, RngSpec(35, "runs"), max_run=8)
    counts, probs = initial_run_statistics(runs, 2.0, 8)
    assert counts.sum() == 300
    assert probs[0] == pytest.approx(0.5)
    assert probs[1] == pytest.approx(1.0 / 6.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    f0 = counts[0] / 300.0
    assert abs(f0 - 0.5) < 3.0 * np.sqrt(0.25 / 300.0)
    with pytest.raises(ValueError):
        geodesic_initial_runs(2.0, 100, 10, RngSpec(35, "bad"))


@pytest.mark.parametrize("max_run", [0, -1])
def test_initial_runs_refuse_a_run_cap_below_one(max_run, monkeypatch):
    # a cap below one would censor every run at or below zero; it is
    # refused before any table is drawn
    drawn = []
    monkeypatch.setattr(rng, "_exp_in_place", lambda u, mean: drawn.append(len(u)))
    with pytest.raises(ValueError, match="max_run"):
        geodesic_initial_runs(2.0, 210, 10, RngSpec(35, "cap"), max_run=max_run)
    assert drawn == []


def full_table_initial_runs(rho, n, count, spec, max_run):
    """geodesic_initial_runs as it was before it kept only the rows its
    walks read: every walk on the full table, five starts 48 apart, kept
    as the oracle."""
    m1, m2 = scaled_corner(rho, n)
    offsets = [48 * (i - 2) for i in range(5)]
    runs = []
    t = 0
    while len(runs) < count:
        field = sample_exp_field(m1 + 1, m2 + 1, 1.0, spec.sub(f"runtab{t}"))
        g = cumsum_fill(field.values)
        for o in offsets[:count - len(runs)]:
            a, b = (m1 + o, m2) if o <= 0 else (m1, m2 - o)
            codes, _ = walk_to_corner(g, a, b, max_steps=max_run + 1)
            hits = np.flatnonzero(codes == STEP_E2)
            runs.append(int(hits[0]) if len(hits) else max_run)
        t += 1
    return runs


# Five starts 48 apart and max_run = 6 reach 96 + 6 + 1 = 103 from the
# corner: the whole side of the square (2.0, 206) corner, 103 x 103, and
# within a row of the short side of the tall (1.5, 520) one, 416 x 104, and
# of the wide (4.0, 1040) one, 104 x 936.
RUN_CORNERS = [(2.0, 206), (1.5, 520), (4.0, 1040)]


# (2.0, 240) is a square corner, 120 x 120, whose side the walks' reach
# stays within
@pytest.mark.parametrize("rho, n", RUN_CORNERS + [(2.0, 240)])
def test_initial_runs_match_full_table_walks(rho, n):
    spec = RngSpec(45, "runs-oracle").sub(f"{rho}/{n}")
    runs = geodesic_initial_runs(rho, n, 37, spec, max_run=6)
    assert runs.tolist() == full_table_initial_runs(rho, n, 37, spec, 6)


@pytest.mark.parametrize("stack", [1, 2, 3, 64])
@pytest.mark.parametrize("rho, n", RUN_CORNERS)
def test_stacked_initial_runs_match_full_table_walks(stack, rho, n, monkeypatch):
    # 37 runs take 8 tables: one table per stack, stacks of 2, stacks of
    # 3 with a ragged last one, and one stack larger than the count
    monkeypatch.setattr(busemann, "_RUN_STACK", stack)
    spec = RngSpec(46, "runs-stack").sub(f"{rho}/{n}")
    runs = geodesic_initial_runs(rho, n, 37, spec, max_run=6)
    assert runs.dtype == np.int64
    assert runs.tolist() == full_table_initial_runs(rho, n, 37, spec, 6)
    assert geodesic_initial_runs(rho, n, 0, spec, max_run=6).shape == (0,)
    with pytest.raises(ValueError):
        geodesic_initial_runs(rho, n, -5, spec, max_run=6)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_competition_interface_refuses_non_finite_weights(bad):
    # the weight at a point of the interface is read by the fill of its
    # row: the origin, the first step, a middle and the last point, on
    # wide, square and tall fields
    spec = RngSpec(47, "cif-non-finite")
    for r, (rows, cols) in enumerate([(41, 41), (30, 75), (75, 30)]):
        field = sample_exp_field(rows, cols, 1.0, spec.sub(f"f{r}"),
                                 origin=(1 - rows, 1 - cols))
        pts = competition_interface(field)
        for x1, x2 in pts[[0, 1, len(pts) // 2, -1]]:
            vals = field.values.copy()
            vals[x1 - 1, x2 - 1] = bad
            with pytest.raises(ValueError, match="finite"):
                competition_interface(WeightField(field.origin, vals))
    # constant weights tie every comparison, so the walk descends on every
    # step and its last row step is zero wide
    pts = competition_interface(WeightField((-4, -4), np.ones((5, 5))))
    assert pts[-1].tolist() == [-3, 0]


def test_wait_indicator_run_hand_trace():
    arr = SeqWindow(1, [1.0, 2.0, 5.0, 1.0])
    svc = SeqWindow(1, [1.0, 1.0, 1.0, 1.0])
    assert wait_indicator_run(3.0, arr, svc) == 2
    assert wait_indicator_run(0.5, arr, svc) == 0
    tiny = SeqWindow(1, [0.1, 0.1, 0.1])
    assert wait_indicator_run(5.0, tiny, SeqWindow(1, [9.0, 9.0, 9.0])) == 3


def wait_run_from_sojourn(j_left, arrivals, services):
    """wait_indicator_run before it read absorption off the unused input:
    the rule I_k <= J_{k-1} against the sojourn shifted by one slot, kept
    as the oracle."""
    out = lindley_iterate(j_left, arrivals, services)
    waits = arrivals.values <= np.concatenate([[j_left], out.sojourn.values[:-1]])
    return len(waits) if waits.all() else int(np.argmin(waits))


def test_wait_indicator_run_matches_the_sojourn_rule_on_ties():
    # Half-integer arrivals, services and left sojourns tie I_k with
    # J_{k-1} at many slots, where the two rules must still agree.
    gen = RngSpec(35, "wait-ties").generator()
    runs = []
    for length in (1, 7, 40):
        for _ in range(300):
            arr, svc = (SeqWindow(1, gen.integers(0, 5, length) / 2.0) for _ in "IW")
            j_left = gen.integers(0, 6) / 2.0
            runs.append(wait_indicator_run(j_left, arr, svc))
            assert runs[-1] == wait_run_from_sojourn(j_left, arr, svc)
    assert min(runs) == 0 and max(runs) == 40  # runs of every kind, whole ones too


def test_wait_run_law_matches_run_pmf():
    # stationary standing sojourn: the queueing run length reproduces the
    # geodesic straight-run distribution
    rho = 2.0
    gen = RngSpec(34, "waitlaw").generator()
    n_rep, win, censor = 3000, 16, 12
    j0 = exp_from_uniform(gen.random(n_rep), rho / (rho - 1.0))
    arr = exp_from_uniform(gen.random((n_rep, win)), rho)
    svc = exp_from_uniform(gen.random((n_rep, win)), 1.0)
    runs = np.array([wait_indicator_run(j0[i], SeqWindow(1, arr[i]),
                                        SeqWindow(1, svc[i]))
                     for i in range(n_rep)])
    counts = np.bincount(np.minimum(runs, censor), minlength=censor + 1)
    probs = np.array([initial_run_pmf(rho, k) for k in range(censor)])
    probs = np.append(probs, 1.0 - probs.sum())
    rep = chi_square_pmf(counts, probs, "wait-run", 34)
    assert rep.passed, rep


def test_difference_sequence_reversible_pair_not():
    # the two-parameter increment differences are reversible on their own,
    # but jointly with the lower line the direction of time is detectable
    cfg = sample_mu_rho((1.5, 3.0), 1, 200000, RngSpec(33, "rev"),
                        BoundaryPolicy.burn_in(0.2))
    eta1 = cfg.values[0]
    d = cfg.values[1] - cfg.values[0]
    fwd = correlation_test(eta1[:-1][::4], d[1:][::4], "fwd", 33)
    bwd = correlation_test(eta1[1:][::4], d[:-1][::4], "bwd", 33)
    assert fwd.statistic > fwd.threshold
    assert bwd.passed, bwd
    half = len(d) // 2
    d1, d2 = d[:half], d[half:]
    t_fwd = (d1[:-1] + 2.0 * d1[1:])[::4]
    rev = d2[::-1]
    t_rev = (rev[:-1] + 2.0 * rev[1:])[::4]
    rep = ks_two_sample(t_fwd, t_rev, "reversal", 33)
    assert rep.passed, rep
