"""Memory guards: the sample-heavy fast criteria hold a bounded working set.

Peaks are read with tracemalloc, which numpy reports its array buffers to,
at the pinned default seed.  Criteria 10 and 11 draw their rows in blocks
(peaks about 2.3 and 17 MiB, against 48 and 117 MiB for whole-array
draws); criterion 2 draws its windows straight into one stack per block of
instances (about 29 MiB, against 38 MiB when it stacked a list of windows).
"""

import tracemalloc

import pytest

from cgmlab.verification import run_criterion


def traced_peak(index):
    tracemalloc.start()
    try:
        run_criterion(index)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("index, bound_mib", [(10, 5), (11, 34), (2, 34)])
def test_criterion_peak_stays_bounded(index, bound_mib):
    assert traced_peak(index) < bound_mib * 2 ** 20
