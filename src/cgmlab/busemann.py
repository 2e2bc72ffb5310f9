"""Directional limit estimates, geodesics, and interface thresholds.

Directions into the third quadrant are parametrized by the mean rho of
the horizontal limit increment.  Finite-volume estimates come from one
passage-time table rooted at a far corner along the direction; increments
harvested near the origin approximate the limiting horizontal and
vertical laws.  Geodesics follow maximal predecessors, which coincides
with following the smaller of the two increment estimates.  The
competition interface between the two geodesic trees at the origin yields
the threshold parameter, estimated from the interface direction.

The estimates and the interface read their field through lpp's window
reader, whose rule is "drawn is read from memory, undrawn is streamed".
A field from rng.sample_exp_field whose values were never read is not
drawn by them: each reads its window's rows off the field's stream a
32-row block at a time, so an estimate on an undrawn 1501x1501 field
holds about 0.4 MiB, and a criterion 9 site about 0.3 MiB.  Each reading
draws its window again, so a caller that wants many rho from one draw
reads values once first; the field is then sliced from memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import ExpFieldRows, RngSpec, SeqWindow, WeightField, sample_exp_field
from .lpp import (CornerFill, GeodesicPath, _corner_of, _field_rows, _fill_rows, _prefix_sums,
                  _row_step, corner_fill, walk_to_corner)
from .queueing import lindley_iterate
from .exact import initial_run_pmf

__all__ = [
    "Direction",
    "BusemannEdgeEstimates",
    "CifThreshold",
    "direction_of_rho",
    "rho_of_direction",
    "scaled_corner",
    "estimate_busemann_level",
    "estimate_nested_levels",
    "coalescence_point",
    "competition_interface",
    "rho_star_threshold",
    "geodesic_initial_runs",
    "initial_run_statistics",
    "wait_indicator_run",
]


@dataclass(frozen=True)
class Direction:
    """A direction into the open third quadrant, normalized to unit 1-norm."""

    e1: float
    e2: float

    def __post_init__(self):
        norm = abs(self.e1) + abs(self.e2)
        if norm == 0.0:
            raise ValueError("zero direction")
        object.__setattr__(self, "e1", self.e1 / norm)
        object.__setattr__(self, "e2", self.e2 / norm)
        # Written so that a NaN component fails it too.
        if not (self.e1 < 0.0 and self.e2 < 0.0):
            raise ValueError("direction must point into the open third quadrant")


def direction_of_rho(rho: float) -> Direction:
    """Characteristic direction for horizontal-increment mean rho > 1."""
    if not rho > 1.0:
        raise ValueError("rho must exceed 1")
    t = (rho - 1.0) ** 2
    return Direction(-1.0 / (1.0 + t), -t / (1.0 + t))


def rho_of_direction(u) -> float:
    """Inverse of direction_of_rho on the open quadrant."""
    if isinstance(u, Direction):
        a, b = -u.e1, -u.e2
    else:
        a, b = -float(u[0]), -float(u[1])
    if not (a > 0.0 and b > 0.0):
        raise ValueError("direction must point into the open third quadrant")
    return 1.0 + math.sqrt(b / a)


def scaled_corner(rho: float, n: int) -> tuple[int, int]:
    """Far corner (-m1, -m2) at scale n >= 1 along the direction for rho."""
    if not n >= 1:
        raise ValueError("scale n must be at least 1")
    u = direction_of_rho(rho)
    m1 = max(1, round(n * -u.e1))
    m2 = max(1, round(n * -u.e2))
    return m1, m2


@dataclass(eq=False)
class BusemannEdgeEstimates:
    """Increment estimates harvested near the origin from one corner table.

    horizontal[t] estimates the limit increment across ((-t-1, 0), (-t, 0))
    and vertical[t] across ((0, -t-1), (0, -t)); both live on boundary
    segments of length window.  They are differences of the table's last
    window + 1 entries along its two edges through the origin, read off
    the (window + 1)-square corner at the origin, which is all of the
    table an estimate keeps.
    """

    rho: float
    n: int
    corner: tuple[int, int]
    window: int
    horizontal: np.ndarray
    vertical: np.ndarray


def _window(m1: int, m2: int, window: int | None) -> int:
    w = window if window is not None else max(4, int(0.02 * min(m1, m2)))
    if w < 1 or w > min(m1, m2):
        raise ValueError("window must fit inside the corner rectangle")
    return w


def _edge_estimates(rho: float, n: int, corner: tuple[int, int],
                    g: np.ndarray) -> BusemannEdgeEstimates:
    """Estimates from g, the table's (w + 1)-square corner at the origin:
    differences along its last column (toward the origin along e1) and
    its last row (along e2)."""
    return BusemannEdgeEstimates(rho, n, corner, len(g) - 1,
                                 np.diff(g[:, -1])[::-1].copy(), np.diff(g[-1])[::-1].copy())


def estimate_busemann_level(rho: float, n: int, spec: RngSpec | None = None,
                            *, field: WeightField | None = None,
                            window: int | None = None) -> BusemannEdgeEstimates:
    """Estimate limit increments at parameter rho from a corner table at scale n.

    With a shared field (covering [-m1, 0] x [-m2, 0]), estimates at
    different rho use nested corners of the same weights, which keeps the
    rho-monotonicity of the increments exact.  Without one, a fresh field
    of exactly the needed size is drawn from spec; a field and a spec
    together are refused.  The window defaults to about two percent of
    the short side, small enough that direction drift along the boundary
    stays below a percent.

    The corner's rows come from lpp's window reader and feed one
    lpp.CornerFill, which holds two rows and keeps the (window + 1)-square
    corner at the origin, both edges of which the estimates read.  Drawn
    is read from memory, undrawn is streamed: a plain WeightField, or a
    sampled field whose values were read, is sliced; an undrawn one (a
    fresh field too) is not drawn, and its corner's rows are drawn a
    32-row block at a time from the first row's stream position.  At
    scale 3000 on an undrawn 1501x1501 field that is 0.4 MiB held, against
    17.2 MiB for the drawn field.  To get many rho from one draw, read the
    shared field's values once first.
    """
    if (field is None) == (spec is None):
        raise ValueError("need either a field or a spec, not both")
    m1, m2 = scaled_corner(rho, n)
    w = _window(m1, m2, window)
    if field is None:
        field = sample_exp_field(m1 + 1, m2 + 1, 1.0, spec, origin=(-m1, -m2))
    g = _corner_of((m1 + 1, m2 + 1), *_field_rows(field, (-m1, -m2), (0, 0)), w + 1)
    return _edge_estimates(rho, n, (m1, m2), g)


def estimate_nested_levels(rho: float, scales, spec: RngSpec,
                           window: int) -> list[BusemannEdgeEstimates]:
    """estimate_busemann_level(rho, n, field=F, window=window) for each n
    in scales, on one field F drawn from spec at the largest scale's
    corner, bit for bit, without ever holding F.

    F's rows are drawn a block at a time through lpp._fill_rows, and each
    block feeds one lpp.CornerFill per scale, which takes the part of it
    that lies in that scale's nested corner, the top-right rectangle of F,
    and keeps its (window + 1)-square corner at the origin.  The corners
    must not be tall, since CornerFill fills rows as given.
    """
    if not scales:
        raise ValueError("scales must name at least one scale; got no scales")
    corners = [scaled_corner(rho, n) for n in scales]
    m1, m2 = max(corners)
    if m1 > m2:
        raise ValueError("nested corners are streamed only when not tall")
    fills = [CornerFill(k1 + 1, k2 + 1, _window(k1, k2, window) + 1)
             for k1, k2 in corners]
    start = 0
    for block in _fill_rows(ExpFieldRows(m1 + 1, m2 + 1, 1.0, spec))[1]:
        for (k1, k2), fill in zip(corners, fills):
            skip = max(0, m1 - k1 - start)
            fill.feed(block[skip:, m2 - k2:])
        start += len(block)
    return [_edge_estimates(rho, n, corner, fill.corner)
            for n, corner, fill in zip(scales, corners, fills)]


def coalescence_point(path1: GeodesicPath, path2: GeodesicPath):
    """First common point after which two walks to the same corner agree.

    Returns None when the walks never meet (possible only for truncated
    walks); once met, deterministic continuation keeps them together,
    which is asserted.
    """
    pts1 = path1.points()
    pts2 = path2.points()
    lookup = {p: i for i, p in enumerate(pts2)}
    for i, p in enumerate(pts1):
        j = lookup.get(p)
        if j is not None:
            tail1 = pts1[i:]
            tail2 = pts2[j:]
            if tail1 != tail2:
                raise AssertionError("walks met but then separated")
            return p
    return None


def competition_interface(weights: WeightField) -> np.ndarray:
    """Boundary between origin-rooted geodesic trees through (-1,0) and (0,-1).

    The field must have its top-right value at (0, 0).  One passage-time
    table suffices: L(x) is the best path sum from x up-right to the
    origin, both ends included.  The walk starts at phi = 0 and steps -e2
    when L(phi - e1) > L(phi - e2), -e1 otherwise, so ties go to -e1.  The
    table is kept as two rows and filled only as far as the walk descends,
    from rows read one at a time off lpp's window reader: an undrawn field
    from rng.sample_exp_field is drawn a block of rows ahead of the walk
    (gathered into its transpose when tall), never whole.

    This is the competition interface of Ferrari and Pimentel (Ann.
    Probab. 33, 2005) reflected into the third quadrant: phi moves onto the
    neighbor with the smaller L.  By induction phi - e1 lies in the tree
    through (-1, 0) and phi - e2 in the tree through (0, -1).  The site
    phi - e1 - e2 reaches the origin through the neighbor with the larger
    L (through phi - e2 on a tie) and joins its tree, and the walk steps
    onto the other neighbor, which keeps the induction.  So the walk traces
    the same boundary as comparing each site's best sums to (-1, 0) and to
    (0, -1), with a site that ties counted in the tree through (0, -1).
    The walk takes steps = min(r, c) - 2 steps on an r x c field, which
    must be at least 3 x 3, and returns the visited points, shape
    (steps + 1, 2).
    """
    r, c = weights.shape
    if weights.index((0, 0)) != (r - 1, c - 1):
        raise ValueError("field must end at the origin")
    steps = min(r, c) - 2
    if steps < 1:
        raise ValueError("the interface needs a field of at least 3 x 3")
    # R[i, j] = L(-i, -j) is filled from the rows lpp's window reader gives
    # values[::-1, ::-1], so every value compared is bit for bit the one
    # lpp_grid fills: by rows, or by the rows of a contiguous transpose
    # when the field is tall.  F is R in that orientation and the walk
    # stands at F[p, q], (p, q) = (i, j), or (j, i) when tall.  A step reads
    # F[p + 1, q] and F[p, q + 1], so only rows p and p + 1 are kept, and
    # row p + 1 is taken from the row source and filled when the walk moves
    # onto row p.  After k steps p + q = k, so row p is read no further
    # than index steps - p.
    tall, blocks = _field_rows(weights, weights.origin, (0, 0), reverse=True)
    rows = (row for block in blocks for row in block)
    here, ahead, scratch = np.empty((3, steps + 1))
    _prefix_sums(next(rows)[:steps + 1], here)
    _row_step(here[:steps], next(rows)[:steps], ahead[:steps], scratch[:steps])
    p = q = 0
    pts = [(0, 0)]
    for _ in range(steps):
        # Wide: L(phi - e1) = F[p + 1, q] and L(phi - e2) = F[p, q + 1];
        # tall: the other way round.  Either way ties step -e1.
        if tall:
            down = here[q + 1] > ahead[q]
        else:
            down = not ahead[q] > here[q + 1]
        if down:
            p += 1
            here, ahead = ahead, here
            w = steps - p
            _row_step(here[:w], next(rows)[:w], ahead[:w], scratch[:w])
        else:
            q += 1
        pts.append((-q, -p) if tall else (-p, -q))
    return np.array(pts, dtype=np.int64)


@dataclass(eq=False)
class CifThreshold:
    """Threshold-parameter estimate at the origin of one weight field."""

    estimate: float
    e1_steps: int
    e2_steps: int
    interface: np.ndarray


def rho_star_threshold(weights: WeightField) -> CifThreshold:
    """Estimate the threshold parameter from the interface direction."""
    pts = competition_interface(weights)
    moves = np.diff(pts, axis=0)
    e1 = int(np.sum(moves[:, 0] == -1))
    e2 = int(np.sum(moves[:, 1] == -1))
    estimate = math.inf if e1 == 0 else 1.0 + math.sqrt(e2 / e1)
    return CifThreshold(estimate, e1, e2, pts)


# Run tables geodesic_initial_runs fills in lockstep.  At criterion 8's
# 401 columns a stacked row is 51 KB, long enough to amortise the row
# step's per-call cost, and a drawn block of the stack is 1.6 MB.
_RUN_STACK = 16
# Walks start _RUN_STARTS to a table, _RUN_SPACING apart.
_RUN_STARTS = 5
_RUN_SPACING = 48


def geodesic_initial_runs(rho: float, n: int, count: int, spec: RngSpec,
                          max_run: int = 64) -> np.ndarray:
    """Initial straight-run lengths of walks toward the rho corner.

    Each fresh table contributes _RUN_STARTS starts, _RUN_SPACING apart,
    placed symmetrically on the two boundary segments through the origin,
    far enough apart that their runs are effectively independent.  Runs
    are censored at max_run.

    Table t is drawn from its own stream spec.sub(f"runtab{t}").  The
    tables are filled _RUN_STACK at a time as one stack through
    lpp.corner_fill: every row step runs once over the stacked rows,
    which at these widths costs little more per call than one table's row,
    and each member keeps only the corner its walks read.  The row step
    takes its running maximum with fmax, which equals maximum on the
    finite values a fill accepts (weights must be finite), so every run
    is bit for bit what one table at a time gives.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if max_run < 1:
        raise ValueError("max_run must be at least 1")
    m1, m2 = scaled_corner(rho, n)
    offsets = [_RUN_SPACING * (i - (_RUN_STARTS - 1) // 2) for i in range(_RUN_STARTS)]
    reach = max(abs(o) for o in offsets) + max_run + 1
    if reach > min(m1, m2):
        raise ValueError("starts and run cap do not fit inside the table")
    # g = G[m1 - reach:, m2 - reach:], so (reach, reach) is the corner
    # (m1, m2).  Every start lies at least max_run + 1 steps from g's
    # first row and column, so the walks compare the values they compared
    # on G, and never reach g's edges.
    starts = [(reach + o, reach) if o <= 0 else (reach, reach - o) for o in offsets]
    tables = -(-count // _RUN_STARTS)
    runs = []
    for first in range(0, tables, _RUN_STACK):
        sources = [ExpFieldRows(m1 + 1, m2 + 1, 1.0, spec.sub(f"runtab{t}"))
                   for t in range(first, min(first + _RUN_STACK, tables))]
        # A comprehension, so that no corner outlives its stack's walks.  A
        # walk of max_run steps reads its run censored at max_run.
        runs += [GeodesicPath((a, b), *walk_to_corner(g, a, b, max_run)).initial_e1_run()
                 for g in corner_fill(sources, reach + 1) for a, b in starts]
    return np.array(runs[:count], dtype=np.int64)


def initial_run_statistics(runs: np.ndarray, rho: float,
                           max_run: int) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of censored run lengths and the matching exact bin masses."""
    runs = np.minimum(np.asarray(runs, dtype=np.int64), max_run)
    counts = np.bincount(runs, minlength=max_run + 1).astype(np.float64)
    probs = np.array([initial_run_pmf(rho, k) for k in range(max_run)])
    probs = np.append(probs, max(0.0, 1.0 - probs.sum()))
    return counts, probs


def wait_indicator_run(j_left: float, arrivals: SeqWindow,
                       services: SeqWindow) -> int:
    """Length of the initial stretch of slots whose arrival is fully
    absorbed by the standing sojourn, the queueing twin of the initial
    straight run: a slot absorbs I_k <= J_{k-1} exactly when the sweep's
    unused input min(I_k, J_{k-1}), one of its operands, is I_k."""
    waits = lindley_iterate(j_left, arrivals, services).unused.values == arrivals.values
    if waits.all():
        return len(waits)
    return int(np.argmin(waits))
