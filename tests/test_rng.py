"""Determinism, keying, and coupling properties of the random streams."""

import numpy as np
import pytest

from cgmlab import rng
from cgmlab.lpp import corner_fill
from cgmlab.rng import (ExpFieldRows, RngSpec, SeqWindow, WeightField, exp_from_uniform,
                        sample_exp_field, sample_exp_window, sample_uniform)


def test_same_spec_same_draws():
    a = sample_uniform(64, RngSpec(7, "x"))
    b = sample_uniform(64, RngSpec(7, "x"))
    assert np.array_equal(a, b)


def test_labels_and_replicas_separate_streams():
    base = RngSpec(7, "x")
    a = sample_uniform(4096, base)
    b = sample_uniform(4096, base.sub("y"))
    c = sample_uniform(4096, base.with_replica(1))
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # unrelated streams should look independent
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.05
    assert abs(np.corrcoef(a, c)[0, 1]) < 0.05


def test_draws_do_not_depend_on_creation_order():
    # streams are keyed by value, not by when generators get made
    s1 = RngSpec(11, "first")
    s2 = RngSpec(11, "second")
    a2 = sample_uniform(16, s2)
    a1 = sample_uniform(16, s1)
    assert np.array_equal(a1, sample_uniform(16, RngSpec(11, "first")))
    assert np.array_equal(a2, sample_uniform(16, RngSpec(11, "second")))


def test_sub_labels_compose():
    assert RngSpec(3, "a").sub("b").label == "a/b"
    assert np.array_equal(sample_uniform(8, RngSpec(3, "a").sub("b")),
                          sample_uniform(8, RngSpec(3, "a/b")))


def test_exp_from_uniform_is_inverse_cdf():
    u = np.array([0.0, 0.5, 0.9])
    np.testing.assert_allclose(exp_from_uniform(u, 2.0),
                               -2.0 * np.log1p(-u), rtol=0, atol=0)


def test_exponential_sample_mean():
    w = sample_exp_window(0, 200000, 3.0, RngSpec(5, "mean"))
    assert abs(w.mean() - 3.0) < 3.0 * 3.0 / np.sqrt(len(w))


def test_monotone_coupling_between_means():
    # shared spec means shared uniforms, so the mean scales the draw exactly
    spec = RngSpec(9, "couple")
    small = sample_exp_window(0, 1000, 1.0, spec)
    large = sample_exp_window(0, 1000, 2.5, spec)
    np.testing.assert_allclose(large.values, 2.5 * small.values, rtol=1e-12)


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
    # A tall source is gathered into its transpose a block at a time, and
    # filled over it as the whole draw is.
    assert np.array_equal(corner_fill(source, source.shape), corner_fill(whole, whole.shape))


def test_field_rows_validation():
    for args in ((0, 4, 1.0), (4, 0, 1.0), (4, 4, 0.0)):
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


def test_spec_validation():
    with pytest.raises(ValueError):
        RngSpec(-1, "x")
    with pytest.raises(ValueError):
        RngSpec(2, "x", replica=-3)
    with pytest.raises(ValueError):
        sample_exp_window(0, 0, 1.0, RngSpec(1, "x"))
    with pytest.raises(ValueError):
        sample_exp_window(0, 5, 0.0, RngSpec(1, "x"))
