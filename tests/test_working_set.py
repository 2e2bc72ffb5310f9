"""Memory guards: the sample-heavy criteria, the departure folds and the
corner readers hold a bounded working set.

Peaks are read with tracemalloc, which numpy reports its array buffers to,
at the pinned default seed.  Criteria 10 and 11 draw their rows in blocks
(peaks about 2.3 and 14 MiB, against 48 and 117 MiB for whole-array
draws); criterion 2 draws its windows straight into one stack per block of
instances (about 26 MiB, against 38 MiB when it stacked a list of windows).
The two-sample KS test works from one merged buffer: about 5 MiB for two
100 000-point samples, against 9.2 MiB when it binary-searched every point
into full-length cdf arrays.  Criteria 4, 5 and 7 fold their lines through
the departure map one line at a time and stack the folded lines once
(about 14, 15 and 20 MiB; criterion 7 reads 24 MiB when every line is
stacked first and then regrouped by fancy indexing).  Every corner reader
fills through lpp.corner_fill, which holds two table rows and keeps one
corner: an estimate keeps the (window + 1)-square corner whose edges it
reads (about 0.04 MiB on a 1501x1501 field, against 17 MiB for the full
table), and a streamed field is held one 32-row block at a time:
criterion 13 (a 1x1 corner) and one doubling-probe field of criterion 6
peak near 0.4 MiB, against 34 MiB for a whole field and its table.  A
tall source is gathered a block at a time into its contiguous transpose,
the rows lpp fills a tall field by: 2.86 MiB for one rho = 1.5 estimate
at scale 1500 (bound 3.25 MiB), against 5.5 MiB when the whole field was
drawn and then transposed.  Criterion 8 fills its run tables 16 at a
time: one drawn block of the stack (1.6 MB) and each member's 107x107
corner (1.5 MB) make 3.2 MiB for the 30 tables of the benchmark's call
(bound 3.6 MiB), against 0.8 MiB one table at a time and about 7.3 MiB
when each member drew into a block buffer of its own and the stack was
copied from those.
"""

import tracemalloc

import pytest

from cgmlab.busemann import (estimate_busemann_level, estimate_nested_levels,
                             geodesic_initial_runs)
from cgmlab.rng import RngSpec, exp_from_uniform, sample_exp_field
from cgmlab.stats import ks_two_sample
from cgmlab.verification import run_criterion


def traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("index, bound_mib", [(10, 5), (11, 34), (2, 34), (13, 2),
                                              (4, 16), (5, 17), (7, 22)])
def test_criterion_peak_stays_bounded(index, bound_mib):
    assert traced_peak(run_criterion, index) < bound_mib * 2 ** 20


def test_ks_two_sample_peak_stays_bounded():
    gen = RngSpec(5, "ks-peak").generator()
    a = exp_from_uniform(gen.random(100_000), 1.0)
    b = exp_from_uniform(gen.random(100_000), 1.0)
    assert traced_peak(ks_two_sample, a, b, "peak", 5) < 8.5 * 2 ** 20


def test_corner_estimates_hold_no_table():
    big = sample_exp_field(1501, 1501, 1.0, RngSpec(6, "corner-peak"),
                           origin=(-1500, -1500))
    peak = traced_peak(lambda: estimate_busemann_level(2.0, 3000, field=big, window=30))
    assert peak < 2 ** 20


def test_doubling_probe_field_is_never_held_whole():
    assert traced_peak(estimate_nested_levels, 2.0, (3000, 1500),
                       RngSpec(6, "probe-peak"), 30) < 2 ** 20


def test_tall_corner_estimate_holds_only_the_transpose():
    peak = traced_peak(estimate_busemann_level, 1.5, 1500, RngSpec(6, "tall-peak"))
    assert peak < 3.25 * 2 ** 20


def test_stacked_run_tables_keep_one_block_and_their_corners():
    peak = traced_peak(geodesic_initial_runs, 2.0, 800, 150, RngSpec(8, "runs-peak"),
                       48, 5, 9)
    assert peak < 3.6 * 2 ** 20
