"""Last-passage percolation on the planar lattice.

G(u, v) is the maximum, over up-right paths from u to v, of the sum of the
vertex weights along the path, both endpoints included.  It satisfies the
corner recursion G(u, v) = max(G(u, v - e1), G(u, v - e2)) + Y(v), which is
what the table builder fills in.  Arrays are stored northeast-growing with
the path origin at array index (0, 0); the southwest growth picture used by
the Busemann estimators is the reflection x -> -x of the same array, so a
backtracked path toward the array origin reads as a southwest geodesic
there.

CornerFill is the one stepper: it runs the row step over the rows of a
table in order, holding two rows at a time and keeping one corner
G[-r:, -c:] of the table, bit for bit, without holding the rest.
corner_fill is its driver over a field; busemann's nested probe and
stationary_halfplane_lpp step it themselves.  Readers of the table read one
corner of it (the Busemann edge estimates, walks that start near the far
corner, the corner value itself), and lpp_grid is the case that keeps
all of it.  The rows come from one row source, _fill_rows: a given
field or strided view whole, or an ExpFieldRows source drawn a block at a
time, so a streamed field is never held whole.  It alone decides the fill
orientation: a tall field (more rows than columns) is filled by the rows
of its contiguous transpose, because the row step is not bit-for-bit
transpose-symmetric, and a tall source is gathered into that transpose a
block at a time.

A window of a WeightField, the rectangle between two lattice points, is
read through _field_rows, forward or reversed along both axes (the fill
from the window's far corner, as the competition interface makes).  Its
rule is "drawn is read from memory, undrawn is streamed": a plain
WeightField, or a field from rng.sample_exp_field whose values were read,
is sliced, and the slice goes to _fill_rows.  An undrawn field is left
undrawn: the window's rows are drawn from its source in 32-row blocks,
from the first row's own stream position (each block at its own when
reversed), cut to the window's columns and stopped at its last row, and
a tall window is gathered into its transpose from those blocks.  The
rows are bit for bit the slice's.  A Busemann estimate on an undrawn
1501x1501 field so holds one block, about 0.4 MiB, where reading values
draws 17.2 MiB; a caller that estimates at many rho on one field reads
values once first.

One row step, _row_step, fills every row of every max-plus recursion in
the package, one table's row or the rows of a stack of K tables of one
shape at once, a (K, cols) array worked along its last axis.  CornerFill
steps every table: the corner tables here, a list of sources drawn into
one block buffer (the per-call cost of the step's ufuncs is then paid
once per K rows), and the levels of stationary_halfplane_lpp, one table
per line.  Two callers step rows themselves: busemann.competition_interface
fills a shrinking triangle only as far as its walk descends, and
queueing.strip_lpp_H takes one step from a boundary row that is no
table's first row.  The running maximum is taken with fmax, a faster
loop than maximum.
The two differ only where an operand is NaN (fmax drops it, maximum
keeps it) and in which of two equal zeros of opposite sign they return,
which reaches a passage time only through weights of -0.0.  So weights
must be finite: every fill refuses a row whose sum is not finite, which
is exactly a row that holds a NaN or infinite weight (or whose sum
overflows), raising ValueError before a dropped NaN could turn into
finite, wrong passage times.

A table is a GTable, a WeightField of passage times, and every lattice
lookup (a table value, a walk's target, the oracle's endpoints) maps its
point to an array index through WeightField.index.

The limit shape of G along the diagonal is governed by
g(x) = (sqrt|x1| + sqrt|x2|)^2 for x in the third quadrant, with
G(-N, -N -> 0) / N approaching g(-1, -1) = 4.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .rng import ExpFieldRows, SampledField, WeightField

if TYPE_CHECKING:
    from .multiclass import MultiConfig

__all__ = [
    "GTable",
    "GeodesicPath",
    "CornerFill",
    "STEP_E1",
    "STEP_E2",
    "lpp_grid",
    "corner_fill",
    "brute_force_table",
    "shape_function",
    "backtrack_geodesic",
    "stationary_halfplane_lpp",
]

# Step codes for paths recorded toward the array origin: a STEP_E1 entry
# moves by -e1 (axis 0), a STEP_E2 entry by -e2 (axis 1).
STEP_E1 = 0
STEP_E2 = 1


class GTable(WeightField):
    """Passage times from a fixed origin to every point of a rectangle, a
    WeightField whose values[a, b] = G(origin, origin + (a, b)).
    """


@dataclass(eq=False)
class GeodesicPath:
    """A lattice path recorded from its start toward the table origin.

    steps holds STEP_E1 / STEP_E2 codes; truncated marks a walk stopped by
    a step budget rather than by reaching the origin.
    """

    start: tuple[int, int]
    steps: np.ndarray
    truncated: bool = False

    def __post_init__(self):
        self.start = (int(self.start[0]), int(self.start[1]))
        self.steps = np.asarray(self.steps, dtype=np.int8)

    def __len__(self) -> int:
        return len(self.steps)

    def points(self) -> list[tuple[int, int]]:
        pts = [self.start]
        a, b = self.start
        for code in self.steps:
            if code == STEP_E1:
                a -= 1
            else:
                b -= 1
            pts.append((a, b))
        return pts

    def initial_e1_run(self) -> int:
        """Number of consecutive STEP_E1 moves at the start of the path."""
        hits = np.flatnonzero(self.steps == STEP_E2)
        return int(hits[0]) if len(hits) else len(self.steps)


def _prefix_sums(row: np.ndarray, out: np.ndarray) -> None:
    """out = the running sums of row along its last axis: the first row of
    a table, or of each table of a stack.

    Refuses a row whose sum is not finite, which is a row that holds a NaN
    or infinite weight (or whose sum overflows); a row of width 0 passes.
    """
    np.add.accumulate(row, axis=-1, out=out)
    if out.ndim == 1:
        finite = not len(out) or math.isfinite(out[-1])
    else:
        finite = not out.shape[-1] or all(map(math.isfinite, out[:, -1].tolist()))
    if not finite:
        raise ValueError("weights must be finite: a row holds a NaN or "
                         "infinite weight, or its sum overflows")


def _row_step(prev: np.ndarray, row: np.ndarray, out: np.ndarray,
              scratch: np.ndarray) -> None:
    """out[..., k] = max_{j<=k} (prev[..., j] + sum row[..., j..k]), without
    allocating.

    With CY the prefix sums of row this is CY[k] + max_{j<=k} (prev[j] -
    CY[j-1]), CY[j-1] = CY[j] - row[j].  One step is a table row of the
    corner recursion (prev is the previous row), a level of the half-plane
    recursion, or level 1 of queueing's strip table; on (K, cols) arrays
    it is one row of each of K tables.
    scratch has the shape of out and may not alias it.  Rows must be
    finite (see _prefix_sums); on finite values fmax is maximum.
    """
    _prefix_sums(row, out)
    np.subtract(out, row, out=scratch)
    np.subtract(prev, scratch, out=scratch)
    np.fmax.accumulate(scratch, axis=-1, out=scratch)
    np.add(out, scratch, out=out)


class CornerFill:
    """The corner recursion over rows fed in order, keeping only the
    corner G[-r:, -c:] of the table.

    cols is the width of a row, or (K, width) for a stack of K tables of
    the same shape filled in lockstep: row i of the stack is row i of each
    table, and corner carries the stack axis just before the column axis,
    (r, K, c).  keep is r = c, or the pair (r, c).

    feed() takes a block of consecutive rows, top to bottom: the first row
    is filled as its prefix sums, every later one by _row_step from the
    row before.  Rows are filled as given, never transposed; keeping whole
    rows fills them in place, so keep = (rows, width) is the whole table.
    """

    def __init__(self, rows: int, cols: int | tuple[int, int],
                 keep: int | tuple[int, int]):
        shape = cols if isinstance(cols, tuple) else (cols,)
        r, c = keep if isinstance(keep, tuple) else (keep, keep)
        if not (1 <= r <= rows and 1 <= c <= shape[-1]):
            raise ValueError("keep must fit inside the table")
        self._rows = rows
        self._filled = 0
        self._prev = None
        self.corner = np.empty((r, *shape[:-1], c))
        self._pair = np.empty((2, *shape))
        self._scratch = np.empty(shape)

    def feed(self, block: np.ndarray) -> None:
        start = self._filled
        if start + len(block) > self._rows:
            raise ValueError("more rows than the table has")
        corner, prev = self.corner, self._prev
        t0 = self._rows - len(corner)
        # Whole kept rows are filled in place; a narrower corner is copied
        # out of the two-row buffer.
        cut = self._scratch.shape[-1] - corner.shape[-1]
        for i, weights in enumerate(block, start):
            out = corner[i - t0] if i >= t0 and not cut else self._pair[i % 2]
            if i:
                _row_step(prev, weights, out, self._scratch)
            else:
                _prefix_sums(weights, out)
            if i >= t0 and cut:
                corner[i - t0] = out[..., cut:]
            prev = out
        self._prev = prev
        self._filled = start + len(block)


def _transpose_of(blocks, out: np.ndarray) -> np.ndarray:
    """Gather consecutive row blocks into out, their (cols, rows)
    transpose, a block at a time."""
    start = 0
    for block in blocks:
        out[:, start:start + len(block)] = block.T
        start += len(block)
    return out


def _fill_rows(weights):
    """(tall, blocks): the one statement of the fill orientation, and the
    consecutive blocks of rows a fill runs over.

    A tall field (more rows than columns) is filled by the rows of its
    contiguous transpose, because the row step is not bit-for-bit
    transpose-symmetric; on the copy each step also runs on contiguous
    memory, where a strided view costs a third more.  An array or strided
    view comes as one block.  An ExpFieldRows source is drawn a block at a
    time, or gathered into its transpose a block at a time when tall.  A
    list of sources of one shape is a stack: each member is drawn into its
    own slot of one buffer, and the blocks are (n, K, cols).
    """
    stack = isinstance(weights, list)
    if stack and not weights:
        raise ValueError("a stack needs at least one field; got an empty stack")
    rows, cols = weights[0].shape if stack else weights.shape
    tall = rows > cols
    if isinstance(weights, np.ndarray):
        return tall, [np.ascontiguousarray(weights.T) if tall else weights]
    sources = weights if stack else [weights]
    if any(source.shape != (rows, cols) for source in sources):
        raise ValueError("a stack's fields must have one shape")

    def rows_of(buf):
        # Rows of the stack from its members' slots, or the one member's.
        return buf.swapaxes(0, 1) if stack else buf[0]

    if tall:
        buf = np.empty((len(sources), cols, rows))
        for source, slot in zip(sources, buf):
            _transpose_of(source, slot)
        return tall, [rows_of(buf)]
    buf = np.empty((len(sources), *sources[0].block_shape))
    return tall, (rows_of(buf[:, :len(drawn[0])])
                  for drawn in zip(*map(ExpFieldRows.blocks, sources, buf)))


def _field_rows(field: WeightField, lo: tuple[int, int], hi: tuple[int, int],
                reverse: bool = False):
    """(tall, blocks) of _fill_rows(v), v the field's values on the
    lattice rectangle from lo to hi, both included, or v[::-1, ::-1] when
    reverse (the fill from the window's far corner): the one reader of a
    window of a field.

    Drawn is read from memory, undrawn is streamed.  A plain WeightField,
    or a SampledField whose values were read, is sliced.  An undrawn
    SampledField is not drawn: the window's rows come from its source in
    _ROW_BLOCK-row blocks, the first at the window's first row's own
    stream position (bottom-up, each block at its own, when reverse), cut
    to the window's columns and stopped at its last row, and a tall window
    is gathered into its transpose from those blocks.  Either way the
    rows are bit for bit those of the slice.
    """
    (i0, j0), (i1, j1) = field.index(lo), field.index(hi)
    if not isinstance(field, SampledField) or field.drawn:
        v = field.values[i0:i1 + 1, j0:j1 + 1]
        return _fill_rows(v[::-1, ::-1] if reverse else v)
    width = field.shape[1]
    cut = slice(width - 1 - j1, width - j0) if reverse else slice(j0, j1 + 1)
    blocks = (block[:, cut] for block in field.source._row_blocks(i0, i1 + 1, reverse))
    rows, cols = i1 + 1 - i0, j1 + 1 - j0
    if rows > cols:
        return True, [_transpose_of(blocks, np.empty((cols, rows)))]
    return False, blocks


def _corner_of(shape: tuple[int, int], tall: bool, blocks,
               keep: int | tuple[int, int], members: int = 0) -> np.ndarray:
    """The corner G[-r:, -c:], keep = r = c or (r, c), of the table over
    the (tall, blocks) of a row source for a rows x cols field, shape =
    (rows, cols), or of each of a stack of members tables, (K, r, c)."""
    rows, cols = shape
    r, c = keep if isinstance(keep, tuple) else (keep, keep)
    if tall:
        rows, cols, r, c = cols, rows, c, r
    fill = CornerFill(rows, (members, cols) if members else cols, (r, c))
    for block in blocks:
        fill.feed(block)
    corner = fill.corner.swapaxes(0, 1) if members else fill.corner
    return corner.swapaxes(-1, -2) if tall else corner


def corner_fill(weights: np.ndarray | ExpFieldRows | list[ExpFieldRows],
                keep: int | tuple[int, int]) -> np.ndarray:
    """The corner G[-r:, -c:] of the table G of passage times over weights,
    keep = r = c or (r, c), without holding the rest of G.

    weights is a field's values (an array or a strided view), an
    ExpFieldRows source, drawn a block at a time, or a list of sources of
    one shape, filled as a stack in lockstep; a stack's corners are
    indexed by member first, (K, r, c).  The rows and their orientation
    come from _fill_rows.
    """
    tall, blocks = _fill_rows(weights)
    stack = isinstance(weights, list)
    return _corner_of(weights[0].shape if stack else weights.shape, tall, blocks, keep,
                      len(weights) if stack else 0)


def lpp_grid(weights: WeightField) -> GTable:
    """Passage times from the field's southwest array corner to every point."""
    return GTable(weights.origin, corner_fill(weights.values, weights.shape))


# The most paths brute_force_table walks.
_MAX_PATHS = 1_000_000


def brute_force_table(weights: WeightField, start: tuple[int, int],
                      end: tuple[int, int]) -> np.ndarray:
    """Exhaustive-path oracle for G(start, v) at every v of the rectangle
    from start to end, as an array indexed from start.

    One depth-first walk, kept on an explicit stack so that path length is
    not bounded by Python's recursion limit, enumerates every up-right path
    from start to end; its prefixes are every path from start to each point
    of the rectangle, each summed in path order.  Refuses more than
    _MAX_PATHS paths to end before walking any.
    """
    (a0, b0), (a1, b1) = weights.index(start), weights.index(end)
    da, db = a1 - a0, b1 - b0
    if da < 0 or db < 0:
        raise ValueError("end must lie northeast of start")
    if math.comb(da + db, da) > _MAX_PATHS:
        raise ValueError("too many paths for brute force enumeration")
    vals = weights.values[a0:a1 + 1, b0:b1 + 1].tolist()
    best = [[-math.inf] * (db + 1) for _ in range(da + 1)]

    # Each entry is a point and the sum of the path prefix before it.  A
    # popped path runs on along e1, leaving its e2 branches on the stack.
    stack = [(0, 0, 0.0)]
    while stack:
        a, b, acc = stack.pop()
        while True:
            acc += vals[a][b]
            if acc > best[a][b]:
                best[a][b] = acc
            if b < db:
                stack.append((a, b + 1, acc))
            if a == da:
                break
            a += 1
    return np.array(best)


def shape_function(x: tuple[float, float]) -> float:
    """Limit shape g(x) = (sqrt|x1| + sqrt|x2|)^2 for x in the closed third quadrant."""
    x1, x2 = float(x[0]), float(x[1])
    if x1 > 0 or x2 > 0:
        raise ValueError("shape function is defined for directions with x <= 0")
    return (math.sqrt(-x1) + math.sqrt(-x2)) ** 2


def walk_to_corner(gvalues: np.ndarray, a: int, b: int,
                   max_steps: int | None = None) -> tuple[np.ndarray, bool]:
    """Follow maximal predecessors from (a, b) toward (0, 0).

    Steps by -e1 when the west predecessor is strictly larger, by -e2
    otherwise (ties go to -e2, and so does the comparison against the
    corner's missing neighbor).  Returns (step codes, truncated flag).
    """
    steps = []
    budget = math.inf if max_steps is None else max_steps
    while (a > 0 or b > 0) and len(steps) < budget:
        if b == 0:
            code = STEP_E1
        elif a == 0:
            code = STEP_E2
        elif gvalues[a - 1, b] > gvalues[a, b - 1]:
            code = STEP_E1
        else:
            code = STEP_E2
        if code == STEP_E1:
            a -= 1
        else:
            b -= 1
        steps.append(code)
    truncated = a > 0 or b > 0
    return np.asarray(steps, dtype=np.int8), truncated


def backtrack_geodesic(table: GTable, target: tuple[int, int]) -> GeodesicPath:
    """The maximizing path from target back to the table origin.

    The recorded weight sum along the path equals table.at(target).
    """
    return GeodesicPath(target, *walk_to_corner(table.values, *table.index(target)))


def stationary_halfplane_lpp(initial: MultiConfig, weights: WeightField) -> list[MultiConfig]:
    """Half-plane passage times grown from level-0 increment data.

    initial holds one increment window per line on level 0; weights holds
    the bulk levels, with weights.origin = (initial.offset, 1) and shape
    (window length, number of levels).  Entry t of the result carries the
    level-t increments of each line's passage times, where paths may enter
    the bulk at any window column j <= k.  The window's west column is
    pinned to 0 at every level, which makes one level exactly a departure
    map applied with an empty queue at the west edge; iterating levels
    therefore reproduces iterated coupled departures.  The levels are one
    CornerFill stack, a table per line, fed the initial increments and then
    each level's weights across the lines; level t > 0 is the increments
    of table row t.
    """
    if weights.origin != (initial.offset, 1):
        raise ValueError(
            "weights must start at (initial.offset, 1); got origin "
            f"{weights.origin} for offset {initial.offset}"
        )
    length, levels = weights.values.shape
    if length != initial.length:
        raise ValueError("weight field and initial window lengths differ")
    fill = CornerFill(levels + 1, initial.values.shape, (levels + 1, length))
    fill.feed(initial.values[None])
    if np.any(initial.values.mean(axis=1) <= 1.0):
        warnings.warn("initial increments should have Cesaro mean above the bulk mean 1")
    fill.feed(np.broadcast_to(weights.values.T[:, None], (levels, *initial.values.shape)))
    return [initial] + [replace(initial, values=np.diff(g, axis=1, prepend=0.0))
                        for g in fill.corner[1:]]
