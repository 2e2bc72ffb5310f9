"""Determinism, keying, and coupling properties of the random streams."""

import math

import numpy as np
import pytest

from cgmlab import rng
from cgmlab.lpp import corner_fill
from cgmlab.rng import (ExpFieldRows, RngSpec, SeqWindow, WeightField, sample_exp_field,
                        sample_exp_window)


def exp_from_uniform(u, mean):
    """The exponential with the given mean at uniforms u, on a float64 copy:
    the samplers' transform, for oracles that draw their own uniforms."""
    return rng._exp_in_place(np.array(u, dtype=np.float64), mean)


def test_same_spec_same_draws():
    a = RngSpec(7, "x").generator().random(64)
    b = RngSpec(7, "x").generator().random(64)
    assert np.array_equal(a, b)


def replica_generator(seed, label, replica):
    """The stream of a label's replica: RngSpec(seed, label) is replica 0,
    and a test that needs many streams of one label spawns the others."""
    seq = np.random.SeedSequence(seed, spawn_key=(rng._label_key(label), replica))
    return np.random.Generator(np.random.Philox(seq))


def test_labels_and_replicas_separate_streams():
    base = RngSpec(7, "x")
    a = base.generator().random(4096)
    b = base.sub("y").generator().random(4096)
    c = replica_generator(7, "x", 1).random(4096)
    assert np.array_equal(a, replica_generator(7, "x", 0).random(4096))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # unrelated streams should look independent
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.05


def test_draws_do_not_depend_on_creation_order():
    # streams are keyed by value, not by when generators get made
    s1 = RngSpec(11, "first")
    s2 = RngSpec(11, "second")
    a2 = s2.generator().random(16)
    a1 = s1.generator().random(16)
    assert np.array_equal(a1, RngSpec(11, "first").generator().random(16))
    assert np.array_equal(a2, RngSpec(11, "second").generator().random(16))


def test_sub_labels_compose():
    assert RngSpec(3, "a").sub("b").label == "a/b"
    assert np.array_equal(RngSpec(3, "a").sub("b").generator().random(8),
                          RngSpec(3, "a/b").generator().random(8))


def test_exp_from_uniform_is_inverse_cdf():
    u = np.array([0.0, 0.5, 0.9])
    np.testing.assert_allclose(exp_from_uniform(u, 2.0),
                               -2.0 * np.log1p(-u), rtol=0, atol=0)
    # it is the samplers' one draw, in place in the draw's buffer, on a copy
    # of the same uniforms
    spec = RngSpec(4, "copy")
    u = spec.generator().random(1000)
    kept = u.copy()
    got = exp_from_uniform(u, 2.5)
    assert np.array_equal(u, kept)
    buf = np.empty(1000)
    assert rng._draw_exp(spec.generator(), buf, 2.5) is buf
    assert np.array_equal(got.view(np.uint64), buf.view(np.uint64))
    assert float(exp_from_uniform(0.5, 2.0)) == float(-2.0 * np.log1p(-0.5))


def test_exponential_sample_mean():
    w = sample_exp_window(0, 200000, 3.0, RngSpec(5, "mean"))
    assert abs(w.mean() - 3.0) < 3.0 * 3.0 / np.sqrt(len(w))


def test_monotone_coupling_between_means():
    # shared spec means shared uniforms, so the mean scales the draw exactly
    spec = RngSpec(9, "couple")
    small = sample_exp_window(0, 1000, 1.0, spec)
    large = sample_exp_window(0, 1000, 2.5, spec)
    np.testing.assert_allclose(large.values, 2.5 * small.values, rtol=1e-12)


def test_repr_of_an_undrawn_field_does_not_draw():
    field = sample_exp_field(300, 400, 1.0, RngSpec(1), origin=(-299, -399))
    text = repr(field)
    assert not field.drawn
    assert "origin=(-299, -399)" in text and "shape=(300, 400)" in text
    assert repr(field.source) in text


@pytest.mark.parametrize("rows, cols, block", [
    (70, 13, 32), (64, 5, 32), (50, 9, 7), (9, 50, 1), (1, 40, 32), (1, 1, 3), (5, 3, 100)])
def test_field_rows_are_slices_of_the_whole_draw(rows, cols, block, monkeypatch):
    monkeypatch.setattr(rng, "_ROW_BLOCK", block)
    spec = RngSpec(21, "rows").sub(f"{rows}x{cols}")
    whole = sample_exp_field(rows, cols, 2.5, spec).values
    source = ExpFieldRows(rows, cols, 2.5, spec)
    assert source.shape == (rows, cols)
    start = 0
    for part in source:
        assert part.shape == (min(block, rows - start), cols)
        assert np.array_equal(part, whole[start:start + len(part)])
        start += len(part)
    assert start == rows
    # A buffer of another length sets the rows per block.
    buf = np.empty((block + 2, cols))
    parts = [part.copy() for part in source.blocks(buf)]
    assert [len(p) for p in parts] == [min(block + 2, rows - s)
                                       for s in range(0, rows, block + 2)]
    assert np.array_equal(np.concatenate(parts), whole)
    # A tall source is gathered into its transpose a block at a time, and
    # filled over it as the whole draw is.
    assert np.array_equal(corner_fill(source, source.shape), corner_fill(whole, whole.shape))


def eager_exp_field(rows, cols, mean, spec, origin=(0, 0)):
    """The previous sample_exp_field, which drew the whole field when
    called, kept as the oracle of a sampled field's values."""
    rng._check_draw((rows, cols), mean)
    return WeightField(origin, rng._exp_in_place(spec.generator().random((rows, cols)), mean))


def test_sampled_field_is_drawn_on_first_read_of_its_values():
    spec = RngSpec(22, "lazy")
    field = sample_exp_field(9, 14, 2.5, spec, origin=(-8, -13))
    assert isinstance(field, WeightField) and not field.drawn
    # shape and index do not draw
    assert field.shape == (9, 14)
    assert field.index((0, 0)) == (8, 13)
    with pytest.raises(ValueError):
        field.index((1, 0))
    assert not field.drawn
    values = field.values
    assert field.drawn and field.values is values
    want = eager_exp_field(9, 14, 2.5, spec, origin=(-8, -13))
    assert np.array_equal(values.view(np.uint64), want.values.view(np.uint64))
    assert field.at((-3, -4)) == want.at((-3, -4))
    for args in ((0, 4, 1.0), (4, 0, 1.0), (4, 4, 0.0), (4, 4, math.nan)):
        with pytest.raises(ValueError):
            sample_exp_field(*args, spec)


@pytest.mark.parametrize("rows, cols, block", [
    (70, 13, 32), (64, 5, 32), (33, 7, 5), (50, 9, 7), (29, 6, 4), (1, 40, 32), (1, 7, 3),
    (1, 1, 3), (5, 3, 100)])
def test_reversed_blocks_are_slices_of_the_whole_draw(rows, cols, block, monkeypatch):
    # Blocks start at stream positions of every residue mod 4 (odd widths,
    # odd block lengths), the last one is short unless block divides rows,
    # and a one-row field is one block.  A row range, read either way, is
    # the slice of the whole draw: forward from its first row's position,
    # reversed from each block's own.
    monkeypatch.setattr(rng, "_ROW_BLOCK", block)
    spec = RngSpec(23, "reversed").sub(f"{rows}x{cols}")
    whole = eager_exp_field(rows, cols, 2.5, spec).values
    source = ExpFieldRows(rows, cols, 2.5, spec)
    for start, stop in {(0, rows), (rows // 3, rows), (0, rows - rows // 4),
                        (rows // 3, max(rows // 3 + 1, rows - rows // 4))}:
        for reverse in (True, False):
            want = whole[start:stop][::-1, ::-1] if reverse else whole[start:stop]
            at = 0
            for part in source._row_blocks(start, stop, reverse):
                assert part.shape == (min(block, stop - start - at), cols)
                assert np.array_equal(part.view(np.uint64),
                                      want[at:at + len(part)].view(np.uint64))
                at += len(part)
            assert at == stop - start


def test_field_rows_validation():
    for args in ((0, 4, 1.0), (4, 0, 1.0), (4, 4, 0.0), (4, 4, math.inf),
                 (4, 4, math.nan)):
        with pytest.raises(ValueError):
            ExpFieldRows(*args, RngSpec(1, "x"))


def test_window_indexing():
    w = SeqWindow(3, [1.0, 2.0, 3.0, 4.0])
    assert len(w) == 4
    assert w.end == 7
    assert list(w.indices()) == [3, 4, 5, 6]
    s = w.suffix(5)
    assert s.offset == 5
    assert list(s.values) == [3.0, 4.0]
    with pytest.raises(ValueError):
        w.suffix(2)


def test_field_lookup_and_origin():
    f = WeightField((-2, -1), np.arange(6, dtype=float).reshape(2, 3))
    assert f.shape == (2, 3)
    assert f.at((-2, -1)) == 0.0
    assert f.at((-1, 1)) == 5.0
    with pytest.raises(ValueError):
        f.at((0, 0))
    # index maps each corner of the rectangle to its array corner, and
    # refuses a point one step outside each edge
    corners = {(-2, -1): (0, 0), (-2, 1): (0, 2), (-1, -1): (1, 0), (-1, 1): (1, 2)}
    for point, index in corners.items():
        assert f.index(point) == index
    for point in ((-3, 0), (0, 0), (-2, -2), (-1, 2)):
        with pytest.raises(ValueError):
            f.index(point)


def test_spec_validation():
    with pytest.raises(ValueError):
        RngSpec(-1, "x")
    with pytest.raises(TypeError):  # a spec is a seed and a label, nothing more
        RngSpec(2, "x", 0)
    with pytest.raises(ValueError):
        sample_exp_window(0, 0, 1.0, RngSpec(1, "x"))
    for mean in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            sample_exp_window(0, 5, mean, RngSpec(1, "x"))
