"""Each fast criterion can fail: a planted fault makes at least one of its
reports fail at the default seed.

A row plants one fault, a name monkeypatched in the module that the
criterion reads it from, and names the criteria that must then fail.  A
criterion that passes with its fault planted cannot see that fault, so a
pass on working code would show nothing about it.
"""

from dataclasses import replace

import numpy as np
import pytest

from cgmlab import exact, lpp, multiclass, queueing, verification
from cgmlab.multiclass import MultiConfig
from cgmlab.rng import SeqWindow
from cgmlab.verification import run_criterion


def row_step_reads_the_wrong_neighbour(real):
    # each row is stepped from the row before it shifted one column east
    return lambda prev, row, out, scratch: real(np.roll(prev, 1, axis=-1), row, out,
                                                scratch)


def sweep_shifted_by_one_slot(real):
    # every departure is reported one slot late
    def sweep(j_left, arrivals, services):
        out = real(j_left, arrivals, services)
        dep = out.departures
        return replace(out, departures=SeqWindow(dep.offset, np.roll(dep.values, 1, axis=-1)))
    return sweep


def strip_table_without_its_left_sojourn(real):
    # level 1 starts from an empty queue whatever the left sojourn value
    return lambda j_left, arrivals, services: real(0.0 * j_left, arrivals, services)


def coupled_step_of_line_0(real):
    # line 0 is stepped in place of every line
    def step(config, services, policy):
        lines = [config.line(0)] * config.n_lines
        return real(MultiConfig.from_lines(lines, config.rates), services, policy)
    return step


def scaled(factor):
    return lambda real: lambda *args: factor * real(*args)


def atom_scaled(factor):
    return lambda real: lambda lam, rho: exact.AtomTailLaw(factor * lam / rho, rho)


def triangle_entry_off_by_one(real):
    # entry k of each row is read from column k - 1
    return lambda n, k: real(n, k - 1) if k else real(n, k)


FAULTS = [
    ("row-step-wrong-neighbour", lpp, "_row_step",
     row_step_reads_the_wrong_neighbour, (1,)),
    ("sweep-shifted-one-slot", queueing, "lindley_iterate",
     sweep_shifted_by_one_slot, (2, 3)),
    ("strip-without-left-sojourn", queueing, "strip_lpp_H",
     strip_table_without_its_left_sojourn, (3,)),
    ("coupled-step-of-line-0", verification, "coupled_step",
     coupled_step_of_line_0, (5,)),
    ("fold-skipped", multiclass, "_fold",
     lambda real: lambda sequences, j_left, out=None: sequences[0], (5, 7)),
    ("competition-A-x1.01", verification, "poisson_competition_A",
     scaled(1.01), (10,)),
    ("increment-atom-x1.03", verification, "increment_law", atom_scaled(1.03), (11,)),
    ("triangle-entry-off-by-one", verification, "catalan_triangle",
     triangle_entry_off_by_one, (12,)),
]


@pytest.mark.parametrize("module, name, fault, index", [
    pytest.param(module, name, fault, index, id=f"{label}-criterion{index}")
    for label, module, name, fault, indices in FAULTS for index in indices])
def test_planted_fault_fails_its_criterion(module, name, fault, index, monkeypatch):
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    result = run_criterion(index)
    assert not result.passed, [f"{r.name}: {r.statistic}" for r in result.reports]
