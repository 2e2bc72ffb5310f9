"""Grid passage times against the exhaustive oracle, plus geodesic walks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cgmlab import rng
from cgmlab.rng import (ExpFieldRows, RngSpec, SeqWindow, WeightField, sample_exp_field,
                        sample_exp_window)
from cgmlab.lpp import (CornerFill, GTable, STEP_E1, STEP_E2, _field_rows, _prefix_sums,
                        _row_step, backtrack_geodesic, corner_fill,
                        brute_force_table, lpp_grid, shape_function, stationary_halfplane_lpp,
                        walk_to_corner)
from cgmlab.multiclass import MultiConfig
from cgmlab.queueing import BoundaryPolicy, queue_D
from test_rng import count_draws


def cumsum_fill(weights):
    """The fill before its row step was made allocation-free, kept as the
    oracle: every cell must come out bit for bit the same."""
    rows, cols = weights.shape
    if rows > cols:
        return cumsum_fill(np.ascontiguousarray(weights.T)).T
    g = np.empty_like(weights)
    g[0] = np.cumsum(weights[0])
    for a in range(1, rows):
        row = weights[a]
        csum = np.cumsum(row)
        g[a] = csum + np.maximum.accumulate(g[a - 1] - (csum - row))
    return g


def maximum_row_step(prev, row, out, scratch):
    """_row_step as it was before it took stacks and its running maximum
    with fmax, kept as the oracle: one row, maximum.accumulate."""
    np.add.accumulate(row, out=out)
    np.subtract(out, row, out=scratch)
    np.subtract(prev, scratch, out=scratch)
    np.maximum.accumulate(scratch, out=scratch)
    np.add(out, scratch, out=out)


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64)


def test_two_by_two_ones():
    field = WeightField((0, 0), np.ones((2, 2)))
    table = lpp_grid(field)
    # a table is the WeightField of passage times
    assert isinstance(table, WeightField)
    assert table.at((1, 1)) == 3.0
    assert table.at((0, 1)) == 2.0


def test_single_row_is_cumsum():
    vals = np.array([[1.0, 2.0, 4.0, 0.5]])
    table = lpp_grid(WeightField((0, 0), vals))
    np.testing.assert_allclose(table.values[0], np.cumsum(vals[0]))


def per_endpoint_brute_force(weights, start, end):
    """One exhaustive walk per endpoint, as the oracle walked before
    brute_force_table walked every endpoint at once, kept as the oracle."""
    a0, b0 = start[0] - weights.origin[0], start[1] - weights.origin[1]
    a1, b1 = end[0] - weights.origin[0], end[1] - weights.origin[1]
    vals = weights.values
    best = -math.inf

    def walk(a, b, acc):
        nonlocal best
        acc += vals[a, b]
        if a == a1 and b == b1:
            best = max(best, acc)
            return
        if a < a1:
            walk(a + 1, b, acc)
        if b < b1:
            walk(a, b + 1, acc)

    walk(a0, b0, 0.0)
    return best


def assert_table_is_per_endpoint_oracle(weights, start, end):
    table = brute_force_table(weights, start, end)
    assert table.shape == (end[0] - start[0] + 1, end[1] - start[1] + 1)
    for a, b in np.ndindex(table.shape):
        point = (start[0] + a, start[1] + b)
        assert table[a, b] == per_endpoint_brute_force(weights, start, point)
    return table


def test_matches_brute_force_on_random_fields():
    spec = RngSpec(101, "oracle")
    for r in range(30):
        field = sample_exp_field(5, 5, 1.0, spec.sub(f"f{r}"))
        ref = assert_table_is_per_endpoint_oracle(field, (0, 0), (4, 4))
        assert np.max(np.abs(lpp_grid(field).values - ref)) < 1e-12
    # an inner rectangle of a field whose origin is not (0, 0)
    field = sample_exp_field(7, 6, 1.0, spec.sub("inner"), origin=(-3, 2))
    ref = assert_table_is_per_endpoint_oracle(field, (-2, 3), (2, 6))
    inner = WeightField((-2, 3), field.values[1:6, 1:5])
    assert np.max(np.abs(lpp_grid(inner).values - ref)) < 1e-12


@settings(deadline=None, max_examples=60)
@given(st.lists(st.floats(0.0, 100.0), min_size=9, max_size=9))
def test_grid_recursion_property(flat):
    field = WeightField((0, 0), np.asarray(flat).reshape(3, 3))
    ref = assert_table_is_per_endpoint_oracle(field, (0, 0), (2, 2))
    assert np.max(np.abs(lpp_grid(field).values - ref)) < 1e-9


def test_brute_force_refuses_too_many_paths(monkeypatch):
    # a 13 x 13 rectangle has C(24, 12) = 2704156 paths, over the cap of a
    # million, and is refused before any path is walked: its weights are
    # never even drawn
    assert math.comb(24, 12) > 1_000_000
    drawn = count_draws(monkeypatch)
    field = sample_exp_field(13, 13, 1.0, RngSpec(3, "brute-cap"))
    with pytest.raises(ValueError, match="too many paths"):
        brute_force_table(field, (0, 0), (12, 12))
    assert drawn == []
    with pytest.raises(ValueError):
        brute_force_table(field, (2, 2), (1, 3))


@pytest.mark.parametrize("shape", [(1, 1500), (1500, 1)])
def test_brute_force_walks_paths_longer_than_the_recursion_limit(shape):
    field = WeightField((0, 0), np.ones(shape))
    end = (shape[0] - 1, shape[1] - 1)
    assert brute_force_table(field, (0, 0), end).ravel().tolist() == \
        [float(k) for k in range(1, 1501)]


def test_fill_matches_cumsum_oracle():
    spec = RngSpec(102, "fill")
    for rows, cols in [(40, 90), (90, 40), (64, 64), (1, 50), (50, 1), (2, 2)]:
        vals = sample_exp_field(rows, cols, 1.0, spec.sub(f"{rows}x{cols}")).values
        assert np.array_equal(lpp_grid(WeightField((0, 0), vals)).values, cumsum_fill(vals))
    m = 120
    big = sample_exp_field(m, m, 1.0, spec.sub("big")).values
    # nested corners as strided views, as a shared field hands them out,
    # and the reversed view the competition interface fills
    for view in (big[m - 45:, m - 70:], big[m - 70:, m - 45:], big[::-1, ::-1]):
        assert np.array_equal(lpp_grid(WeightField((0, 0), view)).values, cumsum_fill(view))


def keeps(rows, cols):
    """Square keeps of 1, 2 and the short side, and ragged (r, c) ones up
    to the whole table, that fit a rows x cols table."""
    short = min(rows, cols)
    square = sorted({1, 2, short} & set(range(1, short + 1)))
    ragged = {(1, cols), (rows, 1), (rows, cols), (min(2, rows), min(5, cols)),
              (min(5, rows), min(2, cols))}
    return square + sorted(ragged)


def corner_of(g, keep):
    r, c = keep if isinstance(keep, tuple) else (keep, keep)
    return g[g.shape[0] - r:, g.shape[1] - c:]


def assert_corner_fill_is_full_fill(weights, source=None):
    """corner_fill on weights (or on source, which draws weights) keeps
    every corner bit for bit equal to the oracle's full fill."""
    g = cumsum_fill(weights)
    for keep in keeps(*weights.shape):
        corner = corner_fill(weights if source is None else source, keep)
        assert np.array_equal(bits(corner), bits(corner_of(g, keep)))


SHAPES = [(40, 90), (64, 64), (90, 40), (1, 50), (50, 1), (2, 2), (1, 1)]


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_corner_fill_matches_full_fill(rows, cols, monkeypatch):
    # streamed in blocks of 7 rows, which divides no row count here but 1
    monkeypatch.setattr(rng, "_ROW_BLOCK", 7)
    spec = RngSpec(105, "corner").sub(f"{rows}x{cols}")
    vals = sample_exp_field(rows, cols, 1.0, spec).values
    assert_corner_fill_is_full_fill(vals)
    assert_corner_fill_is_full_fill(vals, ExpFieldRows(rows, cols, 1.0, spec))


def test_corner_fill_on_nested_views():
    m = 120
    big = sample_exp_field(m, m, 1.0, RngSpec(106, "corner-views")).values
    for n1, n2 in [(45, 70), (70, 45), (60, 60), (1, 30), (30, 1)]:
        assert_corner_fill_is_full_fill(big[m - n1:, m - n2:])
    assert_corner_fill_is_full_fill(big[::-1, ::-1])


def test_window_rows_of_an_undrawn_field_are_the_slice_rows(monkeypatch):
    # Windows to the origin, wide and tall, of a field that reaches past
    # the origin on both axes, read forward and from the origin: a sampled
    # field streams, in blocks of 7 rows, the rows a plain WeightField of
    # the same values slices, and is never drawn whole, whether or not its
    # values were read.
    monkeypatch.setattr(rng, "_ROW_BLOCK", 7)
    spec = RngSpec(108, "window-rows")
    field = sample_exp_field(40, 31, 1.0, spec, origin=(-30, -20))
    read = sample_exp_field(40, 31, 1.0, spec, origin=(-30, -20))
    plain = WeightField(read.origin, read.values)
    drawn = count_draws(monkeypatch)
    for lo in [(-30, -20), (-25, -18), (-12, -20), (-30, -2), (0, 0)]:
        for reverse in (False, True):
            want = _field_rows(plain, lo, reverse)
            want = want[0], bits(np.concatenate(list(want[1])))
            assert drawn == []
            for sampled in (field, read):
                tall, blocks = _field_rows(sampled, lo, reverse)
                assert tall == want[0]
                assert np.array_equal(bits(np.concatenate([b.copy() for b in blocks])),
                                      want[1])
                assert drawn and max(drawn) <= 7 * 31
                drawn.clear()


def test_row_fill_keeps_last_rows_fed_in_any_blocks():
    vals = sample_exp_field(30, 50, 1.0, RngSpec(107, "row-fill")).values
    g = cumsum_fill(vals)
    for cuts in ([30], [1, 29], [7] * 4 + [2], [13, 0, 17]):
        for keep in (1, 11, 30, (9, 50), (30, 50), (11, 3)):
            fill = CornerFill(30, 50, keep)
            start = 0
            for size in cuts:
                fill.feed(vals[start:start + size])
                start += size
            assert np.array_equal(bits(fill.corner), bits(corner_of(g, keep)))
    with pytest.raises(ValueError):
        fill.feed(vals[:1])
    for keep in (0, -1, 31, (0, 5), (5, 0), (31, 5), (5, 51)):
        with pytest.raises(ValueError):
            CornerFill(30, 50, keep)
        with pytest.raises(ValueError):
            corner_fill(vals, keep)


def test_geodesic_weight_sum_equals_passage_time():
    field = sample_exp_field(12, 9, 1.0, RngSpec(3, "geo"), origin=(-11, -8))
    table = lpp_grid(field)
    path = backtrack_geodesic(table, (0, 0))
    assert not path.truncated
    total = sum(field.at(p) for p in path.points())
    assert abs(total - table.at((0, 0))) < 1e-9
    assert path.points()[-1] == (-11, -8)


def test_geodesic_steps_stay_inside():
    field = sample_exp_field(8, 8, 1.0, RngSpec(4, "geo2"))
    table = lpp_grid(field)
    path = backtrack_geodesic(table, (7, 7))
    for a, b in path.points():
        assert 0 <= a <= 7 and 0 <= b <= 7
    assert len(path) == 14


def test_walk_ties_prefer_e2():
    # constant weights tie every comparison, so the walk empties axis 1 first
    g = lpp_grid(WeightField((0, 0), np.ones((4, 4)))).values
    codes, truncated = walk_to_corner(g, 3, 3)
    assert not truncated
    assert list(codes[:3]) == [STEP_E2] * 3
    assert list(codes[3:]) == [STEP_E1] * 3


def test_walk_truncation_flag():
    g = lpp_grid(WeightField((0, 0), np.ones((5, 5)))).values
    codes, truncated = walk_to_corner(g, 4, 4, max_steps=3)
    assert truncated
    assert len(codes) == 3


def test_initial_e1_run_counts_leading_steps():
    from cgmlab.lpp import GeodesicPath
    p = GeodesicPath((0, 0), [STEP_E1, STEP_E1, STEP_E2, STEP_E1])
    assert p.initial_e1_run() == 2
    q = GeodesicPath((0, 0), [STEP_E2])
    assert q.initial_e1_run() == 0


def test_table_lookup_errors():
    table = lpp_grid(WeightField((0, 0), np.ones((2, 2))))
    with pytest.raises(ValueError):
        table.at((2, 0))
    with pytest.raises(ValueError):
        backtrack_geodesic(table, (0, 5))


def test_shape_function_values():
    assert shape_function((-1.0, -1.0)) == 4.0
    assert shape_function((-1.0, 0.0)) == 1.0
    assert abs(shape_function((-0.25, -0.25)) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        shape_function((1.0, -1.0))


def test_halfplane_level_equals_departure_map():
    # one strip level with a pinned west column is a queue with an empty boundary
    spec = RngSpec(17, "half")
    length = 400
    init = sample_exp_window(0, length, 2.0, spec.sub("I"))
    bulk = sample_exp_window(0, length, 1.0, spec.sub("w"))
    weights = WeightField((0, 1), bulk.values[:, None])
    levels = stationary_halfplane_lpp(MultiConfig.from_lines([init]), weights)
    dep = queue_D(init, bulk, BoundaryPolicy.given(0.0))
    np.testing.assert_allclose(levels[1].values[0], dep.values, atol=1e-9)


def test_halfplane_levels_match_cumsum_oracle():
    spec = RngSpec(104, "half-oracle")
    lines = [sample_exp_window(0, 80, mean, spec.sub(f"I{k}"))
             for k, mean in enumerate((1.5, 3.0))]
    bulk = sample_exp_field(80, 6, 1.0, spec.sub("w"), origin=(0, 1))
    levels = stationary_halfplane_lpp(MultiConfig.from_lines(lines), bulk)
    g = np.cumsum(levels[0].values, axis=1)
    for t in range(1, 7):
        row = bulk.values[:, t - 1]
        csum = np.cumsum(row)
        g = csum + np.maximum.accumulate(g - (csum - row), axis=1)
        assert np.array_equal(levels[t].values, np.diff(g, axis=1, prepend=0.0))


@pytest.mark.parametrize("stack", [(), (1,), (3,), (16,)])
def test_row_step_matches_maximum_oracle_bit_for_bit(stack):
    # continuous weights, and integer ones (zeros included) that make the
    # running maximum tie often
    gen = RngSpec(108, "row-step").generator()
    for cols in (1, 2, 7, 401):
        shape = (*stack, cols)
        for draw in (lambda: gen.exponential(1.0, shape),
                     lambda: gen.integers(0, 3, shape).astype(np.float64)):
            prev = np.cumsum(draw(), axis=-1) + draw()
            row = draw()
            out, scratch = np.empty((2, *shape))
            _row_step(prev, row, out, scratch)
            want = np.empty(shape)
            for p, r, w in zip(prev.reshape(-1, cols), row.reshape(-1, cols),
                               want.reshape(-1, cols)):
                maximum_row_step(p, r, w, np.empty(cols))
            assert np.array_equal(bits(out), bits(want))


@pytest.mark.parametrize("members", [1, 3, 16])
def test_stacked_fill_matches_separate_fills(members):
    rows, cols = 30, 50
    spec = RngSpec(109, "stacked-fill")
    fields = [sample_exp_field(rows, cols, 1.0, spec.sub(f"m{k}")).values
              for k in range(members)]
    tables = [cumsum_fill(f) for f in fields]
    # rows of the stack are (members, cols), strided as a drawn stack is
    stack = np.stack(fields).swapaxes(0, 1)
    for cuts in ([30], [1, 29], [7] * 4 + [2], [13, 0, 17]):
        for keep in (1, 11, 30, (5, 3), (30, 50), (1, 7), (30, 1)):
            fill = CornerFill(rows, (members, cols), keep)
            start = 0
            for size in cuts:
                fill.feed(stack[start:start + size])
                start += size
            r, c = keep if isinstance(keep, tuple) else (keep, keep)
            assert fill.corner.shape == (r, members, c)
            for k, g in enumerate(tables):
                assert np.array_equal(bits(fill.corner[:, k]), bits(corner_of(g, keep)))
    with pytest.raises(ValueError):
        fill.feed(stack[:1])
    for keep in (0, (31, 5), (5, 51)):
        with pytest.raises(ValueError):
            CornerFill(rows, (members, cols), keep)


@pytest.mark.parametrize("rows, cols", SHAPES)
def test_corner_fill_on_a_stack_of_sources(rows, cols, monkeypatch):
    # each member is the fill of its own source, tall or wide, drawn in
    # blocks of 7 rows into its slot of the stack
    monkeypatch.setattr(rng, "_ROW_BLOCK", 7)
    spec = RngSpec(110, "stacked-sources").sub(f"{rows}x{cols}")
    sources = [ExpFieldRows(rows, cols, 1.0, spec.sub(f"m{k}")) for k in range(3)]
    tables = [cumsum_fill(sample_exp_field(rows, cols, 1.0, s.spec).values)
              for s in sources]
    for keep in keeps(rows, cols):
        corners = corner_fill(sources, keep)
        assert len(corners) == len(sources)
        for corner, g in zip(corners, tables):
            assert np.array_equal(bits(corner), bits(corner_of(g, keep)))
        # a single source is filled as a stack of one
        assert np.array_equal(bits(corner_fill(sources[0], keep)),
                              bits(corner_fill(sources[:1], keep)[0]))
    with pytest.raises(ValueError):
        corner_fill([sources[0], ExpFieldRows(rows + 1, cols, 1.0, spec)], 1)
    with pytest.raises(ValueError, match="empty stack"):
        corner_fill([], 1)


def _with(values, cell, bad):
    out = values.copy()
    out[cell] = bad
    return out


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fills_refuse_non_finite_weights(bad):
    # A NaN that fmax dropped would turn into finite, wrong passage times
    # in later rows, so every fill refuses a row whose sum is not finite:
    # the first row, a later one, and the last cell of the table.
    spec = RngSpec(111, "non-finite")
    vals = sample_exp_field(12, 20, 1.0, spec).values
    for cell in ((0, 0), (0, 19), (5, 3), (11, 19)):
        wide = _with(vals, cell, bad)
        for field in (wide, wide.T, wide[::-1, ::-1]):
            with pytest.raises(ValueError, match="finite"):
                lpp_grid(WeightField((0, 0), field))
            with pytest.raises(ValueError, match="finite"):
                corner_fill(field, 2)
        stack = np.stack([vals, wide, vals], axis=1)
        with pytest.raises(ValueError, match="finite"):
            CornerFill(12, (3, 20), 1).feed(stack)
    # a source refuses an infinite mean, but a stack member drawn with the
    # largest finite mean has weights that overflow to infinity
    members = [ExpFieldRows(12, 20, mean, spec.sub(f"m{k}"))
               for k, mean in enumerate((1.0, np.finfo(float).max))]
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
        corner_fill(members, 2)


def halfplane_two_rows(initial, weights):
    """stationary_halfplane_lpp's level values before its levels became one
    CornerFill stack: its own loop over two rows of the stack of lines,
    kept as the oracle."""
    g, nxt, scratch = np.empty((3, *initial.values.shape))
    _prefix_sums(initial.values, g)
    out = [initial.values]
    for t in range(weights.shape[1]):
        row = np.broadcast_to(weights.values[:, t], g.shape)
        _row_step(g, row, nxt, scratch)
        g, nxt = nxt, g
        out.append(np.diff(g, axis=1, prepend=0.0))
    return out


def half_integers(values):
    """Exponential draws rounded up to half-integers: finite, positive, and
    full of exact ties."""
    return np.ceil(2.0 * values) / 2.0


@pytest.mark.filterwarnings("ignore:initial increments")
@pytest.mark.parametrize("ties", [False, True], ids=["exp", "half-integers"])
@pytest.mark.parametrize("n_lines", [1, 2, 3, 4])
def test_halfplane_levels_match_the_two_row_loop(n_lines, ties):
    spec = RngSpec(113, f"half-stack-{n_lines}-{ties}")
    for length in (1, 7, 3000):
        for levels in (1, 6):
            lines = [sample_exp_window(0, length, 1.5 + k, spec.sub(f"I{k}-{length}"))
                     for k in range(n_lines)]
            bulk = sample_exp_field(length, levels, 1.0, spec.sub(f"w{length}-{levels}"),
                                    origin=(0, 1))
            if ties:
                lines = [SeqWindow(0, half_integers(w.values)) for w in lines]
                bulk = WeightField((0, 1), half_integers(bulk.values))
            initial = MultiConfig.from_lines(lines, tuple(1.5 + k for k in range(n_lines)))
            got = stationary_halfplane_lpp(initial, bulk)
            want = halfplane_two_rows(initial, bulk)
            assert got[0] is initial and len(got) == levels + 1
            for level, values in zip(got[1:], want[1:]):
                assert (level.offset, level.rates) == (initial.offset, initial.rates)
                assert np.array_equal(level.values.view(np.uint64), values.view(np.uint64))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_halfplane_levels_refuse_non_finite_weights(bad):
    spec = RngSpec(112, "half-non-finite")
    init = MultiConfig.from_lines([sample_exp_window(0, 30, 2.0, spec.sub("I"))])
    bulk = sample_exp_field(30, 4, 1.0, spec.sub("w"), origin=(0, 1))
    with pytest.raises(ValueError, match="finite"):
        stationary_halfplane_lpp(MultiConfig(0, _with(init.values, (0, 7), bad)), bulk)
    with pytest.raises(ValueError, match="finite"):
        stationary_halfplane_lpp(init, WeightField((0, 1), _with(bulk.values, (7, 2), bad)))


def test_zero_width_rows_pass_the_finite_check():
    for shape in ((0,), (3, 0)):
        _prefix_sums(np.empty(shape), np.empty(shape))
    _row_step(np.empty((2, 0)), np.empty((2, 0)), np.empty((2, 0)), np.empty((2, 0)))
