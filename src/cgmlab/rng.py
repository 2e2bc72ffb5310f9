"""Deterministic random streams and lattice containers.

Streams are counter-based (Philox) and keyed by (master_seed, label,
replica), so replicated experiments produce identical draws no matter how
work is scheduled across threads or processes.  Every sampler is a pure
function of its arguments plus an RngSpec: the same spec always yields the
same output, and two samplers handed the same spec consume the same
underlying uniforms.  That reuse is deliberate, it gives monotone couplings
(an exponential field with mean 2m is exactly twice the field with mean m
under a shared spec).

Exponentials are drawn by inverse CDF, value = -mean * ln(U) with U in
(0, 1], so the draw is a monotone function of the uniform.

A field can also be drawn a block of rows at a time (ExpFieldRows): one
generator carries the stream from block to block, so the rows are bit for
bit those of the whole-field draw, and only one block is ever held.  The
blocks can be drawn into a caller's buffer (one member's slot of a stack
of fields drawn in lockstep).  Which way round a table fill reads the
rows is lpp's to decide, not the source's.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "RngSpec",
    "WeightField",
    "SeqWindow",
    "ExpFieldRows",
    "sample_exp_field",
    "sample_exp_window",
    "sample_uniform",
]


def _label_key(label: str) -> int:
    # Stable 64-bit key for the label; python's hash() is salted per process.
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RngSpec:
    """Key for a deterministic stream: (master seed, experiment label, replica)."""

    master_seed: int
    label: str = "default"
    replica: int = 0

    def __post_init__(self):
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")
        if not isinstance(self.replica, int) or self.replica < 0:
            raise ValueError("replica must be a nonnegative integer")

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            self.master_seed, spawn_key=(_label_key(self.label), self.replica)
        )
        return np.random.Generator(np.random.Philox(seq))

    def sub(self, suffix: str) -> "RngSpec":
        """Derive a stream for a sub-experiment, keeping seed and replica."""
        return replace(self, label=f"{self.label}/{suffix}")

    def with_replica(self, replica: int) -> "RngSpec":
        return replace(self, replica=replica)


@dataclass(eq=False)
class WeightField:
    """Weights on a lattice rectangle.

    values[a, b] sits at lattice point origin + (a, b); axis 0 runs along
    e1 and axis 1 along e2.  Arrays grow to the northeast; the southwest
    growth picture used by the Busemann estimators is the reflection
    x -> -x of the same array.
    """

    origin: tuple[int, int]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("WeightField values must be 2-dimensional")
        if self.values.size == 0:
            raise ValueError("WeightField must be nonempty")
        self.origin = (int(self.origin[0]), int(self.origin[1]))

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def at(self, point: tuple[int, int]) -> float:
        a = point[0] - self.origin[0]
        b = point[1] - self.origin[1]
        if a < 0 or b < 0 or a >= self.values.shape[0] or b >= self.values.shape[1]:
            raise ValueError(f"point {point} outside field")
        return float(self.values[a, b])


@dataclass(eq=False)
class SeqWindow:
    """A finite window s_k, k = offset .. offset + len - 1, of a sequence.

    values is either one window, shape (n,), or a stack of K aligned windows
    of independent instances, shape (K, n).  Time always runs along the last
    axis: len() is the window length n, and slicing in time (suffix,
    reversal) acts on the last axis only.
    """

    offset: int
    values: np.ndarray

    def __post_init__(self):
        self.offset = int(self.offset)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim not in (1, 2):
            raise ValueError("SeqWindow values must be a window or a stack of windows")

    def __len__(self) -> int:
        return self.values.shape[-1]

    @property
    def end(self) -> int:
        """One past the last index covered by the window."""
        return self.offset + len(self)

    def indices(self) -> np.ndarray:
        return np.arange(self.offset, self.end)

    def mean(self) -> float:
        return float(self.values.mean())

    def suffix(self, start: int) -> "SeqWindow":
        """The sub-window from absolute index start onward."""
        if start < self.offset or start > self.end:
            raise ValueError("suffix start outside window")
        return SeqWindow(start, self.values[..., start - self.offset :])


def same_window(*windows: SeqWindow) -> None:
    """Raise unless all windows share offset, length and stack size."""
    first = windows[0]
    for w in windows[1:]:
        if w.offset != first.offset or w.values.shape != first.values.shape:
            raise ValueError("windows are not aligned")


def exp_from_uniform(u: np.ndarray, mean: float) -> np.ndarray:
    # U' = 1 - u lies in (0, 1]; -mean*ln(U') = -mean*log1p(-u).
    return -mean * np.log1p(-u)


def _exp_in_place(u: np.ndarray, mean: float) -> np.ndarray:
    # exp_from_uniform's arithmetic, step for step, overwriting the sampler's
    # own uniform array so no temporary of its size is allocated.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.multiply(u, -mean, out=u)


def sample_uniform(shape, spec: RngSpec) -> np.ndarray:
    """Uniform [0, 1) draws, the raw stream behind the exponential samplers."""
    return spec.generator().random(shape)


def _check_field(rows: int, cols: int, mean: float) -> None:
    if rows <= 0 or cols <= 0:
        raise ValueError("field dimensions must be positive")
    if not mean > 0:
        raise ValueError("mean must be positive")


def sample_exp_field(rows: int, cols: int, mean: float, spec: RngSpec,
                     origin: tuple[int, int] = (0, 0)) -> WeightField:
    """I.i.d. exponential weights with the given mean on a rows x cols rectangle."""
    _check_field(rows, cols, mean)
    return WeightField(origin, _exp_in_place(sample_uniform((rows, cols), spec), mean))


# Rows an ExpFieldRows block holds: 384 KB of a 1501-wide field.
_ROW_BLOCK = 32


@dataclass(frozen=True)
class ExpFieldRows:
    """The rows of sample_exp_field(rows, cols, mean, spec).values, drawn in
    order, _ROW_BLOCK rows at a time.

    Iterating yields (k, cols) blocks, k = _ROW_BLOCK except for a shorter
    last block.  Every block is a view of one buffer that the next block
    overwrites, so read a block before asking for the next one.
    """

    rows: int
    cols: int
    mean: float
    spec: RngSpec

    def __post_init__(self):
        _check_field(self.rows, self.cols, self.mean)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    @property
    def block_shape(self) -> tuple[int, int]:
        """Shape of the buffer the blocks are drawn into."""
        return min(_ROW_BLOCK, self.rows), self.cols

    def blocks(self, buf: np.ndarray | None = None):
        """Iterate the blocks, each drawn into the leading rows of buf, a
        C-contiguous array of block_shape (a new one when None)."""
        gen = self.spec.generator()
        step = _ROW_BLOCK
        if buf is None:
            buf = np.empty(self.block_shape)
        for start in range(0, self.rows, step):
            rows = buf[:min(step, self.rows - start)]
            yield _exp_in_place(gen.random(out=rows), self.mean)

    def __iter__(self):
        return self.blocks()


def sample_exp_window(offset: int, length: int, mean: float, spec: RngSpec) -> SeqWindow:
    """I.i.d. exponential window with the given mean."""
    if length <= 0:
        raise ValueError("window length must be positive")
    if not mean > 0:
        raise ValueError("mean must be positive")
    return SeqWindow(offset, _exp_in_place(sample_uniform(length, spec), mean))
