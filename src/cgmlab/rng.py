"""Deterministic random streams and lattice containers.

Streams are counter-based (Philox) and keyed by (master_seed, label), so
repeated experiments produce identical draws no matter how work is
scheduled across threads or processes.  Every sampler is a pure
function of its arguments plus an RngSpec: the same spec always yields the
same output, and two samplers handed the same spec consume the same
underlying uniforms.  That reuse is deliberate, it gives monotone couplings
(an exponential field with mean 2m is exactly twice the field with mean m
under a shared spec).

Exponentials are drawn by inverse CDF, value = -mean * ln(U) with U in
(0, 1], so the draw is a monotone function of the uniform.  Every sampler
draws them through one helper, _draw_exp, in place in a given buffer.

A field can also be drawn a block of rows at a time (ExpFieldRows): one
generator, ExpFieldRows.blocks, draws any range of rows, forward or
reversed along both axes, into one buffer whose length sets the rows per
block, and only one block is ever held.  Philox is counter-based (Salmon
et al., SC11), so a row's stream position is reached by advancing the
generator's fresh state (ExpFieldRows._seek), and the rows are bit for
bit those of the whole-field draw.  sample_exp_field returns a
SampledField, which keeps its ExpFieldRows source and draws the whole
field, as one block of it, on the first read of its values; shape, index
and repr never draw.  Which rows a table fill reads, which way round, and
whether a field is sliced or streamed is lpp's to decide.

Each container shape has one implementation: WeightField for values on
a lattice rectangle (lpp.GTable holds passage times), whose index() is
the one map from a lattice point to an array index, and SeqWindow for a
window or a stack of aligned windows (multiclass.MultiConfig is a stack
of class lines).
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
]


def _label_key(label: str) -> int:
    # Stable 64-bit key for the label; python's hash() is salted per process.
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class RngSpec:
    """Key for a deterministic stream: (master seed, experiment label)."""

    master_seed: int
    label: str = "default"

    def __post_init__(self):
        if not isinstance(self.master_seed, int) or self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")

    def generator(self) -> np.random.Generator:
        # The key's second entry is fixed at 0, as every pinned stream was keyed.
        seq = np.random.SeedSequence(self.master_seed, spawn_key=(_label_key(self.label), 0))
        return np.random.Generator(np.random.Philox(seq))

    def sub(self, suffix: str) -> "RngSpec":
        """Derive a stream for a sub-experiment, keeping the seed."""
        return RngSpec(self.master_seed, f"{self.label}/{suffix}")


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

    def index(self, point: tuple[int, int]) -> tuple[int, int]:
        """The array index (a, b) of lattice point point = origin + (a, b);
        ValueError outside the rectangle."""
        a = point[0] - self.origin[0]
        b = point[1] - self.origin[1]
        rows, cols = self.shape
        if not (0 <= a < rows and 0 <= b < cols):
            raise ValueError(f"point {point} outside the rectangle")
        return a, b

    def at(self, point: tuple[int, int]) -> float:
        return float(self.values[self.index(point)])


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
        """The sub-window from absolute index start onward, of the window's
        own class, with its other fields kept."""
        if start < self.offset or start > self.end:
            raise ValueError("suffix start outside window")
        return replace(self, offset=start, values=self.values[..., start - self.offset :])


def same_window(*windows: SeqWindow) -> None:
    """Raise unless all windows share offset, length and stack size."""
    first = windows[0]
    for w in windows[1:]:
        if w.offset != first.offset or w.values.shape != first.values.shape:
            raise ValueError("windows are not aligned")


def _exp_in_place(u: np.ndarray, mean: float) -> np.ndarray:
    # U' = 1 - u lies in (0, 1]; -mean*ln(U') = -mean*log1p(-u), written over
    # the sampler's own uniform array so no temporary of its size is allocated.
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.multiply(u, -mean, out=u)


def _draw_exp(gen: np.random.Generator, out: np.ndarray, mean: float) -> np.ndarray:
    """Fill out with exponentials of the given mean drawn from gen, and
    return it: the one draw of every sampler."""
    return _exp_in_place(gen.random(out=out), mean)


def _check_draw(shape: tuple[int, ...], mean: float) -> None:
    """Refuse an empty draw, or a mean outside (0, inf), a NaN mean too."""
    if min(shape) <= 0:
        raise ValueError("draw dimensions must be positive")
    if not 0 < mean < np.inf:
        raise ValueError("mean must be positive and finite")


# Rows an ExpFieldRows block holds: 384 KB of a 1501-wide field.
_ROW_BLOCK = 32


@dataclass(frozen=True)
class ExpFieldRows:
    """The rows of sample_exp_field(rows, cols, mean, spec).values, drawn a
    block of rows at a time by blocks()."""

    rows: int
    cols: int
    mean: float
    spec: RngSpec

    def __post_init__(self):
        _check_draw(self.shape, self.mean)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def blocks(self, start: int = 0, stop: int | None = None, reverse: bool = False,
               buf: np.ndarray | None = None):
        """Iterate rows start .. stop - 1 (stop None: to the last row) of the
        draw, each block drawn only when asked for, into the leading rows of
        buf: a C-contiguous (k >= 1, cols) array, k rows per block and the
        last possibly shorter (a new _ROW_BLOCK-row one when None).  A buffer
        of any other shape, or a range outside 0 <= start < stop <= rows, is
        refused with ValueError.

        Forward blocks are drawn in order from start's own stream position
        on, with no repositioning when start is 0.  When reverse, they are
        the rows of values[start:stop][::-1, ::-1] in order: they run
        bottom-up through the field, each drawn at its own stream position.
        Either way the rows are bit for bit those of the whole draw, and
        every block is a view of buf that the next block overwrites, so read
        a block before asking for the next one.
        """
        stop = self.rows if stop is None else stop
        if not 0 <= start < stop <= self.rows:
            raise ValueError(f"rows {start} .. {stop} are not a range of {self.rows} rows")
        if buf is None:
            buf = np.empty((min(_ROW_BLOCK, stop - start), self.cols))
        if buf.ndim != 2 or len(buf) < 1 or buf.shape[1] != self.cols:
            raise ValueError(f"a block buffer must have shape (k >= 1, {self.cols}); "
                             f"got {buf.shape}")
        gen = self.spec.generator()
        step = len(buf)
        if not reverse:
            if start:
                self._seek(gen, gen.bit_generator.state, start)
            for first in range(start, stop, step):
                yield _draw_exp(gen, buf[:min(step, stop - first)], self.mean)
            return
        fresh = gen.bit_generator.state
        for end in range(stop, start, -step):
            first = max(start, end - step)
            self._seek(gen, fresh, first)
            yield _draw_exp(gen, buf[:end - first], self.mean)[::-1, ::-1]

    def _seek(self, gen: np.random.Generator, fresh: dict, row: int) -> None:
        """Move gen to the stream position pos of row's first double: the
        fresh state restored, advanced by pos // 4 Philox counter steps of
        four doubles each, and the remaining pos % 4 doubles discarded."""
        pos = row * self.cols
        gen.bit_generator.state = fresh
        gen.bit_generator.advance(pos // 4)
        gen.random(pos % 4)


class SampledField(WeightField):
    """The WeightField sample_exp_field returns: the weights of source,
    an ExpFieldRows, drawn whole when values is first read."""

    def __init__(self, origin: tuple[int, int], source: ExpFieldRows):
        self.origin = (int(origin[0]), int(origin[1]))
        self.source = source
        self._values = None

    @property
    def shape(self) -> tuple[int, int]:
        return self.source.shape

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = next(self.source.blocks(buf=np.empty(self.shape)))
        return self._values

    def __repr__(self) -> str:
        return f"SampledField(origin={self.origin}, shape={self.shape}, source={self.source})"


def sample_exp_field(rows: int, cols: int, mean: float, spec: RngSpec,
                     origin: tuple[int, int] = (0, 0)) -> SampledField:
    """I.i.d. exponential weights with the given mean on a rows x cols
    rectangle, drawn when their values are first read."""
    return SampledField(origin, ExpFieldRows(rows, cols, mean, spec))


def sample_exp_window(offset: int, length: int, mean: float, spec: RngSpec) -> SeqWindow:
    """I.i.d. exponential window with the given mean."""
    _check_draw((length,), mean)
    return SeqWindow(offset, _draw_exp(spec.generator(), np.empty(length), mean))
