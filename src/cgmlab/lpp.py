"""Last-passage percolation on the planar lattice.

G(u, v) is the maximum, over up-right paths from u to v, of the sum of the
vertex weights along the path, both endpoints included.  It satisfies the
corner recursion G(u, v) = max(G(u, v - e1), G(u, v - e2)) + Y(v), which is
what the table builder fills in.  Arrays are stored northeast-growing with
the path origin at array index (0, 0); the southwest growth picture used by
the Busemann estimators is the reflection x -> -x of the same array, so a
backtracked path toward the array origin reads as a southwest geodesic
there.

The full table is filled by _grid_values.  Readers of one corner of the
table (the Busemann edge estimates, walks that start near the far corner,
the corner value itself) use corner_fill instead: the same row step over
the field's rows in order, holding two rows at a time and keeping the
last row, the tail of the last column and, on request, the last k rows,
each bit for bit what _grid_values fills.  It walks a given field or
strided view row by row, or draws the rows from an ExpFieldRows source a
block at a time, so a streamed field is never held whole.  Both fills run
a tall field (more rows than columns) by rows of its contiguous
transpose, because the row step is not bit-for-bit transpose-symmetric;
a tall source is therefore drawn whole.

The limit shape of G along the diagonal is governed by
g(x) = (sqrt|x1| + sqrt|x2|)^2 for x in the third quadrant, with
G(-N, -N -> 0) / N approaching g(-1, -1) = 4.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import ExpFieldRows, SeqWindow, WeightField
from .multiclass import MultiConfig

__all__ = [
    "GTable",
    "GeodesicPath",
    "CornerEdges",
    "CornerFill",
    "STEP_E1",
    "STEP_E2",
    "lpp_grid",
    "corner_fill",
    "brute_force_table",
    "brute_force_lpp",
    "shape_function",
    "backtrack_geodesic",
    "stationary_halfplane_lpp",
]

# Step codes for paths recorded toward the array origin: a STEP_E1 entry
# moves by -e1 (axis 0), a STEP_E2 entry by -e2 (axis 1).
STEP_E1 = 0
STEP_E2 = 1


@dataclass(eq=False)
class GTable:
    """Passage times from a fixed origin to every point of a rectangle.

    values[a, b] = G(origin, origin + (a, b)).
    """

    origin: tuple[int, int]
    values: np.ndarray

    def __post_init__(self):
        self.origin = (int(self.origin[0]), int(self.origin[1]))
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise ValueError("GTable values must be 2-dimensional")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def at(self, point: tuple[int, int]) -> float:
        a = point[0] - self.origin[0]
        b = point[1] - self.origin[1]
        if a < 0 or b < 0 or a >= self.values.shape[0] or b >= self.values.shape[1]:
            raise ValueError(f"point {point} outside table")
        return float(self.values[a, b])


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


def _row_step(prev: np.ndarray, row: np.ndarray, out: np.ndarray,
              scratch: np.ndarray) -> None:
    """out[k] = max_{j<=k} (prev[j] + sum row[j..k]), without allocating.

    With CY the prefix sums of row this is CY[k] + max_{j<=k} (prev[j] -
    CY[j-1]), CY[j-1] = CY[j] - row[j].  One step is a table row of the
    corner recursion (prev is the previous row) or a level of the strip
    recursion.  scratch has the length of row and may not alias out.
    """
    np.add.accumulate(row, out=out)
    np.subtract(out, row, out=scratch)
    np.subtract(prev, scratch, out=scratch)
    np.maximum.accumulate(scratch, out=scratch)
    np.add(out, scratch, out=out)


class CornerFill:
    """The corner recursion over rows fed in order, keeping only the last
    row, the last depth entries of the last column and the last keep rows.

    feed() takes a block of consecutive rows, top to bottom: the first row
    is filled as its prefix sums, every later one by _row_step from the
    row before.  After all rows, row is the last row, column the last
    column's tail and tail the last keep rows.  Rows are filled as given,
    never transposed; keep = rows makes tail the whole table.
    """

    def __init__(self, rows: int, cols: int, depth: int = 1, keep: int = 0):
        if not (1 <= depth <= min(rows, cols) and 0 <= keep <= min(rows, cols)):
            raise ValueError("depth and keep must fit inside the table")
        self._rows = rows
        self._filled = 0
        self.row = None
        self.column = np.empty(depth)
        self.tail = np.empty((keep, cols))
        self._pair = np.empty((2, cols))
        self._scratch = np.empty(cols)

    def feed(self, block: np.ndarray) -> None:
        start = self._filled
        if start + len(block) > self._rows:
            raise ValueError("more rows than the table has")
        tail, column, prev = self.tail, self.column, self.row
        t0 = self._rows - len(tail)
        c0 = self._rows - len(column)
        for i, weights in enumerate(block, start):
            out = tail[i - t0] if i >= t0 else self._pair[i % 2]
            if i:
                _row_step(prev, weights, out, self._scratch)
            else:
                np.add.accumulate(weights, out=out)
            if i >= c0:
                column[i - c0] = out[-1]
            prev = out
        self.row = prev
        self._filled = start + len(block)


def _grid_values(weights: np.ndarray) -> np.ndarray:
    """Fill G[a,b] = max(G[a-1,b], G[a,b-1]) + Y[a,b] over the rectangle."""
    rows, cols = weights.shape
    if rows > cols:
        # Loop over the shorter axis.  The recursion is transpose-symmetric
        # but its row step is not, bit for bit, so tall fills always go
        # through the transpose.  A contiguous copy keeps each row step on
        # contiguous memory, where the strided view costs a third more.
        return _grid_values(np.ascontiguousarray(weights.T)).T
    fill = CornerFill(rows, cols, keep=rows)
    fill.feed(weights)
    return fill.tail


class CornerEdges(NamedTuple):
    """G[-1, -depth:], G[-depth:, -1] and G[-keep:, -keep:] of a table G."""

    row: np.ndarray
    column: np.ndarray
    corner: np.ndarray


def corner_fill(weights: np.ndarray | ExpFieldRows, depth: int = 1,
                keep: int = 0) -> CornerEdges:
    """G[-1, -depth:], G[-depth:, -1] and G[-keep:, -keep:] of the table G
    that _grid_values fills over weights, bit for bit, without holding G.

    weights is a field's values (an array or a strided view, walked row by
    row) or an ExpFieldRows source, drawn a block at a time.  A tall field
    is filled through its contiguous transpose, as _grid_values fills it,
    so a tall source is drawn whole.
    """
    rows, cols = weights.shape
    tall = rows > cols
    if tall:
        if isinstance(weights, ExpFieldRows):
            weights = weights.whole()
        weights = np.ascontiguousarray(weights.T)
        rows, cols = cols, rows
    fill = CornerFill(rows, cols, depth, keep)
    blocks = weights if isinstance(weights, ExpFieldRows) else (weights,)
    for block in blocks:
        fill.feed(block)
    corner = fill.tail[:, cols - keep:]
    if tall:
        return CornerEdges(fill.column, fill.row[-depth:], corner.T)
    return CornerEdges(fill.row[-depth:], fill.column, corner)


def lpp_grid(weights: WeightField) -> GTable:
    """Passage times from the field's southwest array corner to every point."""
    return GTable(weights.origin, _grid_values(weights.values))


def brute_force_table(weights: WeightField, start: tuple[int, int],
                      end: tuple[int, int], max_paths: int = 1_000_000) -> np.ndarray:
    """Exhaustive-path oracle for G(start, v) at every v of the rectangle
    from start to end, as an array indexed from start.

    One depth-first walk, kept on an explicit stack so that path length is
    not bounded by Python's recursion limit, enumerates every up-right path
    from start to end; its prefixes are every path from start to each point
    of the rectangle, each summed in path order.  Refuses more than
    max_paths paths to end.
    """
    a0 = start[0] - weights.origin[0]
    b0 = start[1] - weights.origin[1]
    a1 = end[0] - weights.origin[0]
    b1 = end[1] - weights.origin[1]
    rows, cols = weights.values.shape
    for a, b in ((a0, b0), (a1, b1)):
        if not (0 <= a < rows and 0 <= b < cols):
            raise ValueError("endpoint outside the weight field")
    da, db = a1 - a0, b1 - b0
    if da < 0 or db < 0:
        raise ValueError("end must lie northeast of start")
    if math.comb(da + db, da) > max_paths:
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


def brute_force_lpp(weights: WeightField, start: tuple[int, int],
                    end: tuple[int, int], max_paths: int = 1_000_000) -> float:
    """Exhaustive-path oracle for G(start, end); refuses more than max_paths paths."""
    return brute_force_table(weights, start, end, max_paths)[-1, -1]


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


def backtrack_geodesic(table: GTable, target: tuple[int, int],
                       max_steps: int | None = None) -> GeodesicPath:
    """The maximizing path from target back to the table origin.

    The recorded weight sum along the path equals table.at(target).
    """
    a = target[0] - table.origin[0]
    b = target[1] - table.origin[1]
    if a < 0 or b < 0 or a >= table.values.shape[0] or b >= table.values.shape[1]:
        raise ValueError("target outside table")
    steps, truncated = walk_to_corner(table.values, a, b, max_steps)
    return GeodesicPath(target, steps, truncated)


def stationary_halfplane_lpp(initial: MultiConfig, weights: WeightField) -> list[MultiConfig]:
    """Half-plane passage times grown from level-0 increment data.

    initial holds one increment window per line on level 0; weights holds
    the bulk levels, with weights.origin = (initial.offset, 1) and shape
    (window length, number of levels).  Entry t of the result carries the
    level-t increments of each line's passage times, where paths may enter
    the bulk at any window column j <= k.  The window's west column is
    pinned to 0 at every level, which makes one level exactly a departure
    map applied with an empty queue at the west edge; iterating levels
    therefore reproduces iterated coupled departures.
    """
    if weights.origin != (initial.offset, 1):
        raise ValueError(
            "weights must start at (initial.offset, 1); got origin "
            f"{weights.origin} for offset {initial.offset}"
        )
    length, levels = weights.values.shape
    if length != initial.length:
        raise ValueError("weight field and initial window lengths differ")
    if length == 0:
        raise ValueError("empty window")
    means = initial.values.mean(axis=1)
    if np.any(means <= 1.0):
        warnings.warn("initial increments should have Cesaro mean above the bulk mean 1")
    out = [initial]
    g = np.cumsum(initial.values, axis=1)
    nxt = np.empty_like(g)
    scratch = np.empty(length)
    for t in range(1, levels + 1):
        row = weights.values[:, t - 1]
        for i in range(g.shape[0]):
            _row_step(g[i], row, nxt[i], scratch)
        g, nxt = nxt, g
        incr = np.diff(g, axis=1, prepend=0.0)
        out.append(MultiConfig(initial.offset, incr, rates=initial.rates))
    return out
