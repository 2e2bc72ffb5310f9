"""Memory guards: the sample-heavy criteria, the departure folds and the
corner readers hold a bounded working set.

Peaks are read with tracemalloc, which numpy reports its array buffers to,
at the pinned default seed.  Criteria 10 and 11 draw their rows in blocks
(peaks about 2.3 and 12 MiB, against 48 and 117 MiB for whole-array
draws; criterion 11 read 14 MiB while it held term and mask buffers of
its own for the whole run).  Criterion 2 draws its windows straight into
stacks, a block of instances at a time: the block's queues, checked and
freed, and then its four lines (about 15.6 MiB, against 26 MiB when one
stack held all six and each identity check held every error array at
once, and 38 MiB when it stacked a list of windows).  Each check reduces
an error array as it builds it, so criterion 3's strip check peaks at
about 9.2 MiB, against 13 MiB when it held all five.
The two-sample KS test works from one merged buffer: about 5 MiB for two
100 000-point samples, against 9.2 MiB when it binary-searched every point
into full-length cdf arrays.  Criteria 4, 5 and 7 fold their lines through
the departure map one line at a time and stack the folded lines once.  The
fold runs a block of 2^18 slots at a time through one output and one
block buffer; sample_mu_rho folds each line over its own draw and stacks
its lines already trimmed, and criterion 4 keeps only the stacked copy of
its drawn lines: about 10.5, 14.0 and 14.4 MiB, against 13.4, 15.3 and
20.0 MiB when criterion 4 kept its lines beside their stack, each stage
held whole-window outputs, the folded lines were new arrays and the stack
held the burn-in (criterion 7 reads 24 MiB when every line is stacked
first and then regrouped by fancy indexing).  Every corner reader
fills through lpp.CornerFill, which holds two table rows and keeps one
corner: an estimate keeps the (window + 1)-square corner whose edges it
reads (about 0.04 MiB on a plain 1501x1501 field, against 17 MiB for the
full table), and a streamed field is held one 32-row block at a time:
criterion 13 (a 1x1 corner) and one doubling-probe field of criterion 6
peak near 0.4 MiB, against 34 MiB for a whole field and its table.  A
field is read by lpp's rule, "a WeightField is sliced; a sampled field
is streamed": a scale-3000 estimate on a sampled 1501x1501 field draws
its corner's rows a block at a time and never the whole field, 0.41 MiB
against 17.2 MiB when the estimate drew the field whole; a caller that
wants many rho from one draw wraps the values in a WeightField, and is
covered by the plain-field bound above.  Criterion 9's interface walk
draws the rows it reads 32 at a time from the bottom of its sampled
1001x1001 field:
about 0.3 MiB a site, against 8 MiB when each site drew its whole field.
A tall source or window is gathered a block at a time into its
contiguous transpose, the rows lpp fills a tall field by: 2.84 MiB for
one rho = 1.5 estimate at scale 1500, and 3.07 MiB for the same corner of
a sampled 1251x1251 shared field (bound 3.25 MiB for both), against
5.5 MiB when the whole field was drawn and then transposed.  Criterion 8 fills its run tables 16 at a
time: one drawn block of the stack (1.6 MB) and each member's 107x107
corner (1.5 MB) make 3.2 MiB for the 30 tables of the benchmark's call
(bound 3.6 MiB), against 0.8 MiB one table at a time and about 7.3 MiB
when each member drew into a block buffer of its own and the stack was
copied from those.
"""

import tracemalloc

# numpy loads numpy.random on first use, about 0.6 MiB of modules; loaded
# here, so that a test run alone traces its working set and not that import.
import numpy.random  # noqa: F401
import pytest

from cgmlab.busemann import (estimate_busemann_level, estimate_nested_levels,
                             geodesic_initial_runs, rho_star_threshold)
from cgmlab.rng import RngSpec, WeightField, sample_exp_field
from cgmlab.stats import ks_two_sample
from cgmlab.verification import run_criterion
from test_rng import exp_from_uniform


def traced_peak(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("index, bound_mib", [(10, 5), (11, 34), (2, 17), (3, 10),
                                              (13, 2), (4, 16), (5, 17), (7, 16)])
def test_criterion_peak_stays_bounded(index, bound_mib):
    assert traced_peak(run_criterion, index) < bound_mib * 2 ** 20


def test_ks_two_sample_peak_stays_bounded():
    gen = RngSpec(5, "ks-peak").generator()
    a = exp_from_uniform(gen.random(100_000), 1.0)
    b = exp_from_uniform(gen.random(100_000), 1.0)
    assert traced_peak(ks_two_sample, a, b, "peak", 5) < 8.5 * 2 ** 20


def test_corner_estimates_hold_no_table():
    # a plain field, drawn before tracing: the bound is on the estimate alone
    big = WeightField((-1500, -1500), sample_exp_field(1501, 1501, 1.0,
                                                       RngSpec(6, "corner-peak")).values)
    peak = traced_peak(lambda: estimate_busemann_level(2.0, 3000, field=big, window=30))
    assert peak < 2 ** 20


def test_estimate_on_an_undrawn_field_streams_its_corner():
    # a sampled field is streamed: one block of it is held, never the
    # 17.2 MiB of the whole field
    big = sample_exp_field(1501, 1501, 1.0, RngSpec(6, "corner-peak"),
                           origin=(-1500, -1500))
    peak = traced_peak(lambda: estimate_busemann_level(2.0, 3000, field=big, window=30))
    assert peak < 2 ** 20


def test_tall_estimate_on_an_undrawn_field_holds_only_the_transpose():
    shared = sample_exp_field(1251, 1251, 1.0, RngSpec(6, "tall-shared-peak"),
                              origin=(-1250, -1250))
    # the transpose, never the 11.9 MiB of the whole field
    peak = traced_peak(lambda: estimate_busemann_level(1.5, 1500, field=shared))
    assert peak < 3.25 * 2 ** 20


def test_interface_site_field_is_never_held_whole():
    # criterion 9's site: the walk draws the rows it reads a block at a time
    peak = traced_peak(lambda: rho_star_threshold(sample_exp_field(
        1001, 1001, 1.0, RngSpec(9, "interface-peak"), origin=(-1000, -1000))))
    assert peak < 2 ** 20


def test_doubling_probe_field_is_never_held_whole():
    assert traced_peak(estimate_nested_levels, 2.0, (3000, 1500),
                       RngSpec(6, "probe-peak"), 30) < 2 ** 20


def test_tall_corner_estimate_holds_only_the_transpose():
    peak = traced_peak(estimate_busemann_level, 1.5, 1500, RngSpec(6, "tall-peak"))
    assert peak < 3.25 * 2 ** 20


def test_stacked_run_tables_keep_one_block_and_their_corners():
    peak = traced_peak(lambda: geodesic_initial_runs(2.0, 800, 150, RngSpec(8, "runs-peak"),
                                                     max_run=9))
    assert peak < 3.6 * 2 ** 20
