"""The fingerprint of numpy's math kernels, which keys every sha256 pin.

The pinned outputs are exact bytes of statistics, and those inherit the
last bit of numpy's log1p, log, exp and expm1 (every exponential draw goes
through log1p).  numpy picks those kernels by CPU: on x86-64 it runs AVX-512
kernels where the CPU has them and others where it does not, and the two
round some values a last bit apart.  So each pin table holds one column of
digests per kernel fingerprint, and a machine is checked against the column
of its own fingerprint.

NO_AVX512_ENV is numpy's own runtime switch, which acts only on the
process that sets it: with it set, numpy picks the kernels of a CPU
without AVX-512, so an AVX-512 host can record and check both columns.
"""

import functools
import hashlib

import numpy as np
import pytest

NO_AVX512_ENV = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}

# numpy 2.4 on x86-64 with its AVX-512 kernels, and with the kernels it
# picks without them (on such a CPU, or under NO_AVX512_ENV)
AVX512 = "2b32cb766fa181ad8a3c59db341f032afb83f7a4168e6a14c59cf237df5009a5"
NO_AVX512 = "809b0def20ef5536f34cc0871d785a4f27dfb4cc2df1e4dc9144b7c981cad189"


@functools.cache
def kernel_fingerprint() -> str:
    """sha256 of log1p, log, exp and expm1 on a fixed probe: 4096 uniforms
    of a pinned Philox stream, scaled by powers of two.  Philox and its
    uniforms are integer arithmetic, so the probe is the same on every
    CPU, and only the kernels can move the digest."""
    u = np.random.Generator(np.random.Philox(20260822)).random(4096)
    digest = hashlib.sha256()
    for values in (np.log1p(-u), np.log(u), np.exp(-16.0 * u), np.expm1(-4.0 * u)):
        digest.update(values.tobytes())
    return digest.hexdigest()


def assert_pinned(table: dict, key, data: bytes) -> None:
    """Assert that data hashes to table[fingerprint][key], fingerprint this
    machine's kernel fingerprint.  A fingerprint that has no column fails
    the test, never skips it, and names the fingerprint and how to record
    its column."""
    fingerprint = kernel_fingerprint()
    digest = hashlib.sha256(data).hexdigest()
    if fingerprint not in table:
        pytest.fail(f"no digests are recorded for the math-kernel fingerprint {fingerprint}. "
                    f"To record them, run the pin tests on this machine and add a column "
                    f"{fingerprint!r}: {{...}} to the table, with the digest each pin makes "
                    f"here; this one made {key!r}: {digest!r}.")
    assert digest == table[fingerprint][key]
