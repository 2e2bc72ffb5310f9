"""Acceptance gate: every verification criterion at its pinned seed ladder.

Each criterion runs once at the primary seed; a criterion that fails
there may redeem itself at the two backup seeds, but the report-level
aggregate at the primary seed must stay at 95 percent or better.  Wall
times are held to fixed per-criterion budgets.

The tests that run the table-filling criteria 6, 8 and 9, which take most
of the suite's time, carry the slow marker: pytest -m "not slow" skips
them for a quick loop, and a plain run keeps them.
"""

import argparse

import pytest

from cgmlab import cli
from cgmlab.verification import seed_ladder
from kernels import AVX512, NO_AVX512, assert_pinned

BUDGET_SECONDS = {1: 5, 2: 10, 3: 5, 4: 30, 5: 60, 6: 180, 7: 30, 8: 180,
                  9: 120, 10: 30, 11: 30, 12: 1, 13: 120}

_cache: dict = {}


def outcome(index):
    """(primary-seed result, final ladder result) for one criterion.

    Each ladder attempt is cached with its wall time before any budget is
    asserted, so a criterion that overruns runs once and fails every test
    that asks for it.  The ladder stops at the first overrun: that
    criterion's tests fail whatever a later seed returns.
    """
    if index not in _cache:
        attempts = []
        for res, elapsed in seed_ladder(index):
            attempts.append((res, elapsed))
            if elapsed >= BUDGET_SECONDS[index]:
                break
        _cache[index] = attempts
    attempts = _cache[index]
    for res, elapsed in attempts:
        assert elapsed < BUDGET_SECONDS[index], \
            f"criterion {index} took {elapsed:.1f}s (budget " \
            f"{BUDGET_SECONDS[index]}s) at seed {res.seed}"
    return attempts[0][0], attempts[-1][0]


def check(index):
    primary, final = outcome(index)
    status = "PASS" if final.passed else "FAIL"
    print(f"criterion {index}: {status} (seed {final.seed})")
    bad = [str(r) for r in final.reports if not r.passed]
    assert final.passed, f"criterion {index} failed at every ladder seed: {bad}"


def test_criterion_01_lpp_oracle():
    check(1)


def test_criterion_02_queueing_identities():
    check(2)


def test_criterion_03_strip_identities():
    check(3)


def test_criterion_04_multiline_invariance():
    check(4)


def test_criterion_05_coupled_invariance():
    check(5)


@pytest.mark.slow
def test_criterion_06_busemann_marginals():
    check(6)


def test_criterion_07_increment_atom():
    check(7)


@pytest.mark.slow
def test_criterion_08_run_length_law():
    check(8)


@pytest.mark.slow
def test_criterion_09_threshold_law():
    check(9)


def test_criterion_10_poisson_race():
    check(10)


def test_criterion_11_marked_process():
    check(11)


def test_criterion_12_catalan_identities():
    check(12)


def test_criterion_13_shape_trend():
    check(13)


@pytest.mark.slow
def test_primary_seed_report_aggregate():
    total = good = 0
    for index in BUDGET_SECONDS:
        primary, _ = outcome(index)
        for rep in primary.reports:
            total += 1
            good += bool(rep.passed)
    frac = good / total
    print(f"primary-seed reports: {good}/{total} passed ({frac:.1%})")
    assert frac >= 0.95


# sha256 of the primary-seed reports of the slow table-filling criteria,
# the reports.jsonl text the CLI's verify run makes of the cached ladder
# runs, so pinning them costs no extra run.  One column per math-kernel
# fingerprint, like the fast suites' digests in test_cli.py (see kernels.py).
SLOW_REPORT_DIGESTS = {
    AVX512: {
        6: "3af638d2928d4297cda0612d50ef49ba434acf256931c5e9a6c198347e609529",
        8: "0143a2c11ee4b2a506c74923a67af26f18caa5c167a52a7aec96a15daeb59b0f",
        9: "2ac107c2c1f3f0ddcbe57bd75bdf6513a917e35a8961d515cfea27ad74839de9",
        13: "0322b9f1b2c4371a5c792e0aef4ff6ffd05739ff170a85998f1eafdf40c11305",
    },
    NO_AVX512: {
        6: "7a091363e77d232fbd1eb70e96c869147550031fd8b7ee3fdd1f8424f6779dff",
        8: "0143a2c11ee4b2a506c74923a67af26f18caa5c167a52a7aec96a15daeb59b0f",
        9: "2ac107c2c1f3f0ddcbe57bd75bdf6513a917e35a8961d515cfea27ad74839de9",
        13: "810745866e21e66d700b42911fece1a687e2b46a13e3ad3bd0a5b281b7c0778c",
    },
}


@pytest.mark.parametrize("index", [
    pytest.param(i, marks=pytest.mark.slow) if i in (6, 8, 9) else i
    for i in sorted(SLOW_REPORT_DIGESTS[AVX512])])
def test_slow_criterion_reports_are_pinned(index, monkeypatch):
    primary, _ = outcome(index)
    monkeypatch.setattr(cli, "seed_ladder", lambda *a, **kw: [(primary, 0.0)])
    _, files, _ = cli._run_verify(argparse.Namespace(seed=primary.seed, out="."), (index,))
    assert_pinned(SLOW_REPORT_DIGESTS, index, files["reports.jsonl"].encode())
