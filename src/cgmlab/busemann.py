"""Directional limit estimates, geodesics, and interface thresholds.

Directions into the third quadrant are parametrized by the mean rho of
the horizontal limit increment.  Finite-volume estimates come from one
passage-time table rooted at a far corner along the direction; increments
harvested near the origin approximate the limiting horizontal and
vertical laws.  Geodesics follow maximal predecessors, which coincides
with following the smaller of the two increment estimates.  The
competition interface between the two geodesic trees at the origin yields
the threshold parameter, estimated from the interface direction and
cross-checkable on a parameter grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import RngSpec, SeqWindow, WeightField, sample_exp_field
from .lpp import (GTable, GeodesicPath, STEP_E2, _grid_values,
                  backtrack_geodesic, walk_to_corner)
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
    "busemann_geodesic",
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
        if self.e1 >= 0.0 or self.e2 >= 0.0:
            raise ValueError("direction must point into the open third quadrant")

    def as_array(self) -> np.ndarray:
        return np.array([self.e1, self.e2])


def direction_of_rho(rho: float) -> Direction:
    """Characteristic direction for horizontal-increment mean rho > 1."""
    if rho <= 1.0:
        raise ValueError("rho must exceed 1")
    t = (rho - 1.0) ** 2
    return Direction(-1.0 / (1.0 + t), -t / (1.0 + t))


def rho_of_direction(u) -> float:
    """Inverse of direction_of_rho on the open quadrant."""
    if isinstance(u, Direction):
        a, b = -u.e1, -u.e2
    else:
        a, b = -float(u[0]), -float(u[1])
    if a <= 0.0 or b <= 0.0:
        raise ValueError("direction must point into the open third quadrant")
    return 1.0 + math.sqrt(b / a)


def scaled_corner(rho: float, n: int) -> tuple[int, int]:
    """Far corner (-m1, -m2) at scale n along the direction for rho."""
    u = direction_of_rho(rho)
    m1 = max(1, round(n * -u.e1))
    m2 = max(1, round(n * -u.e2))
    return m1, m2


@dataclass(eq=False)
class BusemannEdgeEstimates:
    """Increment estimates harvested near the origin from one corner table.

    horizontal[t] estimates the limit increment across ((-t-1, 0), (-t, 0))
    and vertical[t] across ((0, -t-1), (0, -t)); both live on boundary
    segments of length window.  table and weights are retained only when
    the estimate was built with keep_table.
    """

    rho: float
    n: int
    corner: tuple[int, int]
    window: int
    horizontal: np.ndarray
    vertical: np.ndarray
    table: GTable | None = None
    weights: WeightField | None = None

    def recovery_residual(self, depth: int = 32) -> float:
        """Largest deviation of min(horizontal, vertical) increments from
        the vertex weight over an interior block near the origin."""
        if self.table is None or self.weights is None:
            raise ValueError("estimate was built without keep_table")
        g = self.table.values
        y = self.weights.values
        rows, cols = g.shape
        d1 = min(depth, rows - 1)
        d2 = min(depth, cols - 1)
        block = g[rows - d1:, cols - d2:]
        west = g[rows - d1 - 1:-1, cols - d2:]
        south = g[rows - d1:, cols - d2 - 1:-1]
        resid = block - np.maximum(west, south) - y[rows - d1:, cols - d2:]
        return float(np.max(np.abs(resid)))


def _slice_to_corner(field: WeightField, m1: int, m2: int) -> np.ndarray:
    """Values of field on [-m1, 0] x [-m2, 0]; the field must cover it."""
    o1, o2 = field.origin
    r, c = field.values.shape
    top1, top2 = o1 + r - 1, o2 + c - 1
    if o1 > -m1 or o2 > -m2 or top1 < 0 or top2 < 0:
        raise ValueError("field does not cover the requested rectangle")
    i0 = -m1 - o1
    j0 = -m2 - o2
    return field.values[i0:i0 + m1 + 1, j0:j0 + m2 + 1]


def estimate_busemann_level(rho: float, n: int, spec: RngSpec | None = None,
                            *, field: WeightField | None = None,
                            window: int | None = None,
                            keep_table: bool = False) -> BusemannEdgeEstimates:
    """Estimate limit increments at parameter rho from a corner table at scale n.

    With a shared field (covering [-m1, 0] x [-m2, 0] with zero at its
    top-right), estimates at different rho use nested corners of the same
    weights, which keeps the rho-monotonicity of the increments exact.
    Without one, a fresh field of exactly the needed size is drawn from spec.
    The window defaults to about two percent of the short side, small
    enough that direction drift along the boundary stays below a percent.
    """
    m1, m2 = scaled_corner(rho, n)
    if field is None:
        if spec is None:
            raise ValueError("need either a field or a spec")
        field = sample_exp_field(m1 + 1, m2 + 1, 1.0, spec, origin=(-m1, -m2))
    vals = _slice_to_corner(field, m1, m2)
    g = _grid_values(vals)
    w = window if window is not None else max(4, int(0.02 * min(m1, m2)))
    if w < 1 or w > min(m1, m2):
        raise ValueError("window must fit inside the corner rectangle")
    horizontal = np.diff(g[m1 - w:m1 + 1, m2])[::-1].copy()
    vertical = np.diff(g[m1, m2 - w:m2 + 1])[::-1].copy()
    table = weights = None
    if keep_table:
        table = GTable((-m1, -m2), g)
        weights = WeightField((-m1, -m2), vals)
    return BusemannEdgeEstimates(rho, n, (m1, m2), w, horizontal, vertical,
                                 table, weights)


def busemann_geodesic(table: GTable, start: tuple[int, int],
                      max_steps: int | None = None) -> GeodesicPath:
    """Path from start that always leaves through the smaller increment
    estimate: step -e1 exactly when the horizontal increment is smaller,
    ties and exhausted axes falling to -e2."""
    return backtrack_geodesic(table, start, max_steps)


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


def competition_interface(weights: WeightField, steps: int | None = None) -> np.ndarray:
    """Boundary between origin-rooted geodesic trees through (-1,0) and (0,-1).

    The field must have its top-right value at (0, 0).  One passage-time
    table suffices: L(x) is the best path sum from x up-right to the
    origin, both ends included.  The walk starts at phi = 0 and steps -e2
    when L(phi - e1) > L(phi - e2), -e1 otherwise, so ties go to -e1.

    This is the competition interface of Ferrari and Pimentel (Ann.
    Probab. 33, 2005) reflected into the third quadrant: phi moves onto the
    neighbor with the smaller L.  By induction phi - e1 lies in the tree
    through (-1, 0) and phi - e2 in the tree through (0, -1).  The site
    phi - e1 - e2 reaches the origin through the neighbor with the larger
    L (through phi - e2 on a tie) and joins its tree, and the walk steps
    onto the other neighbor, which keeps the induction.  So the walk traces
    the same boundary as comparing each site's best sums to (-1, 0) and to
    (0, -1), with a site that ties counted in the tree through (0, -1).
    Returns the visited points, shape (steps+1, 2).
    """
    o1, o2 = weights.origin
    r, c = weights.values.shape
    if o1 + r - 1 != 0 or o2 + c - 1 != 0:
        raise ValueError("field must end at the origin")
    limit = min(-o1, -o2) - 1
    if steps is None:
        steps = limit
    if steps < 1 or steps > limit:
        raise ValueError("interface steps must fit inside the field")
    # R[i, j] = L(-i, -j).  After k steps |phi|_1 = k and the walk compares
    # L at two sites x with |x|_1 = k + 1 <= steps; L(x) reads only weights
    # between x and the origin, so R's triangle i + j <= steps is enough.
    R = _grid_values(weights.values[::-1, ::-1], reach=steps)
    i = j = 0
    pts = [(0, 0)]
    for _ in range(steps):
        if R[i + 1, j] > R[i, j + 1]:
            j += 1
        else:
            i += 1
        pts.append((-i, -j))
    return np.array(pts, dtype=np.int64)


@dataclass(eq=False)
class CifThreshold:
    """Threshold-parameter estimate at the origin of one weight field."""

    estimate: float
    e1_steps: int
    e2_steps: int
    interface: np.ndarray
    grid: np.ndarray | None = None
    grid_steps: np.ndarray | None = None
    crossing: float = math.nan
    single_crossing: bool | None = None


def rho_star_threshold(weights: WeightField, steps: int | None = None,
                       grid=None) -> CifThreshold:
    """Estimate the threshold parameter from the interface direction.

    With a grid of parameters, also record the first step of the walk from
    the origin toward each parameter's corner on the same field; the first
    parameter whose walk starts with -e2 estimates the threshold a second
    way, and a single sign change confirms the monotone picture.
    """
    pts = competition_interface(weights, steps)
    moves = np.diff(pts, axis=0)
    e1 = int(np.sum(moves[:, 0] == -1))
    e2 = int(np.sum(moves[:, 1] == -1))
    estimate = math.inf if e1 == 0 else 1.0 + math.sqrt(e2 / e1)
    out = CifThreshold(estimate, e1, e2, pts)
    if grid is not None:
        grid = np.asarray(grid, dtype=np.float64)
        if np.any(np.diff(grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        n = min(-weights.origin[0], -weights.origin[1])
        codes = np.empty(len(grid), dtype=np.int8)
        for i, rho in enumerate(grid):
            m1, m2 = scaled_corner(float(rho), n)
            vals = _slice_to_corner(weights, m1, m2)
            g = _grid_values(vals)
            first, _ = walk_to_corner(g, m1, m2, max_steps=1)
            codes[i] = first[0]
        out.grid = grid
        out.grid_steps = codes
        hits = np.flatnonzero(codes == STEP_E2)
        out.crossing = float(grid[hits[0]]) if len(hits) else math.nan
        out.single_crossing = bool(np.all(np.diff(codes) >= 0))
    return out


def geodesic_initial_runs(rho: float, n: int, count: int, spec: RngSpec,
                          spacing: int = 48, starts_per_table: int = 5,
                          max_run: int = 64) -> np.ndarray:
    """Initial straight-run lengths of walks toward the rho corner.

    Each fresh table contributes starts_per_table starts placed
    symmetrically on the two boundary segments through the origin, far
    enough apart that their runs are effectively independent.  Runs are
    censored at max_run.
    """
    m1, m2 = scaled_corner(rho, n)
    offsets = [spacing * (i - (starts_per_table - 1) // 2)
               for i in range(starts_per_table)]
    reach = max(abs(o) for o in offsets) + max_run + 1
    if reach > min(m1, m2):
        raise ValueError("starts and run cap do not fit inside the table")
    runs = np.empty(count, dtype=np.int64)
    got = 0
    t = 0
    while got < count:
        field = sample_exp_field(m1 + 1, m2 + 1, 1.0, spec.sub(f"runtab{t}"),
                                 origin=(-m1, -m2))
        g = _grid_values(field.values)
        for o in offsets:
            if got >= count:
                break
            a, b = (m1 + o, m2) if o <= 0 else (m1, m2 - o)
            codes, _ = walk_to_corner(g, a, b, max_steps=max_run + 1)
            hits = np.flatnonzero(codes == STEP_E2)
            runs[got] = int(hits[0]) if len(hits) else max_run
            got += 1
        t += 1
    return runs


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
    straight run."""
    out = lindley_iterate(j_left, arrivals, services)
    j_prev = np.concatenate([[j_left], out.sojourn.values[:-1]])
    waits = arrivals.values <= j_prev
    if waits.all():
        return len(waits)
    return int(np.argmin(waits))
