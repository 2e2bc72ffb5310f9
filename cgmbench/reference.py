"""Reference computations the benchmark checks cgmlab's outputs against.

Nothing here imports cgmlab.  Each function restates a definition in its
plainest form:

- ``antidiagonal_fill``: the corner recursion G = max(west, south) + Y,
  cell by cell, one anti-diagonal at a time;
- ``interface_walk``: the competition interface from two reverse tables
  (best sums to (-1, 0) and to (0, -1)) built with that fill;
- ``lindley_sweep``: the definitional sweep Itilde = w + (I - J)^+,
  J' = w + (J - I)^+;
- ``run_length_pmf``: (1 - 1/rho) sum_{k<n} C(n-1, k) rho^k / (1+rho)^(n+k)
  with ballot numbers from exact integers.

``self_test`` checks each one against exhaustive enumeration on tiny
inputs, also written here, before a run trusts it.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np


def antidiagonal_fill(y) -> np.ndarray:
    """G[a, b] = max(G[a-1, b], G[a, b-1]) + Y[a, b], with G[0, 0] = Y[0, 0].

    Cells on one anti-diagonal a + b = d depend only on the diagonal before,
    so each diagonal is one vector step; every cell is rounded once, in the
    order the recursion defines.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    rows, cols = y.shape
    g = np.empty_like(y)
    if cols == 1 or rows == 1:
        acc = -math.inf
        for a, v in enumerate(y.ravel().tolist()):
            acc = v if a == 0 else acc + v
            g.flat[a] = acc
        return g
    flat_y, flat_g = y.ravel(), g.ravel()
    step = cols - 1  # flat distance between (a, d - a) and (a + 1, d - a - 1)
    prev = np.array([-math.inf, y[0, 0], -math.inf])
    g[0, 0] = y[0, 0]
    prev_lo = 0
    for d in range(1, rows + cols - 1):
        lo, hi = max(0, d - cols + 1), min(d, rows - 1)
        cells = slice(d + lo * step, d + hi * step + 1, step)
        # prev[i] holds row a = prev_lo - 1 + i of diagonal d - 1, guarded by
        # -inf on both ends: west (a-1, b) is prev[a - prev_lo], south
        # (a, b-1) is prev[a - prev_lo + 1].
        i0 = lo - prev_lo
        cur = np.maximum(prev[i0:i0 + hi - lo + 1], prev[i0 + 1:i0 + hi - lo + 2])
        cur += flat_y[cells]
        flat_g[cells] = cur
        prev = np.concatenate(([-math.inf], cur, [-math.inf]))
        prev_lo = lo
    return g


def reverse_fill(y) -> np.ndarray:
    """R[a, b] = best path sum from (a, b) to the array's last corner."""
    return antidiagonal_fill(np.asarray(y)[::-1, ::-1])[::-1, ::-1]


def interface_walk(y, steps: int) -> np.ndarray:
    """Competition interface of a field whose last entry sits at the origin.

    From phi, probe z = phi - (1, 1): step -e2 when z's best sum to (-1, 0)
    beats its best sum to (0, -1), else -e1.  Returns the visited points,
    shape (steps + 1, 2).
    """
    y = np.asarray(y, dtype=np.float64)
    n1, n2 = y.shape[0] - 1, y.shape[1] - 1
    to_west = reverse_fill(y[:-1, :])
    to_south = reverse_fill(y[:, :-1])
    return _walk_tables(to_west, to_south, n1, n2, steps)


def _walk_tables(to_west, to_south, n1, n2, steps) -> np.ndarray:
    pts = [(0, 0)]
    p1 = p2 = 0
    for _ in range(steps):
        a, b = p1 - 1 + n1, p2 - 1 + n2
        if to_west[a, b] > to_south[a, b]:
            p2 -= 1
        else:
            p1 -= 1
        pts.append((p1, p2))
    return np.array(pts, dtype=np.int64)


def corner_walk(g, a: int, b: int, max_steps: int) -> list[int]:
    """Maximal-predecessor walk from (a, b) toward (0, 0) on a table g.

    Codes 0 = -e1, 1 = -e2; -e1 only when the west value is strictly larger
    or the south side is exhausted.
    """
    codes = []
    while (a > 0 or b > 0) and len(codes) < max_steps:
        west = g[a - 1, b] if a > 0 else -math.inf
        south = g[a, b - 1] if b > 0 else -math.inf
        if west > south:
            codes.append(0)
            a -= 1
        else:
            codes.append(1)
            b -= 1
    return codes


def recursion_residual(g, y) -> float:
    """Largest |G - max(west, south) - Y| relative to |G| over every cell."""
    g = np.asarray(g)
    pred = np.full_like(g, -np.inf)
    pred[1:, :] = g[:-1, :]
    pred[:, 1:] = np.maximum(pred[:, 1:], g[:, :-1])
    pred[0, 0] = 0.0
    return float(np.max(np.abs(g - pred - y) / np.maximum(np.abs(g), 1.0)))


def lindley_sweep(j_left: float, arrivals, services):
    """Departures, sojourns and idle flags of the definitional sweep.

    A slot is idle when the queue has emptied before its arrival is done,
    I_k >= J_{k-1}.
    """
    dep, soj, idle = [], [], []
    j = float(j_left)
    for i, w in zip(np.asarray(arrivals).tolist(), np.asarray(services).tolist()):
        dep.append(w + max(i - j, 0.0))
        idle.append(i >= j)
        j = w + max(j - i, 0.0)
        soj.append(j)
    return np.array(dep), np.array(soj), np.array(idle)


def ballot(n: int, k: int) -> int:
    """C(n, k) = (n+k)! (n-k+1) / (k! (n+1)!): sequences of n rises and k
    falls whose prefixes never hold more falls than rises."""
    if k > n:
        return 0
    num = math.factorial(n + k) * (n - k + 1)
    den = math.factorial(k) * math.factorial(n + 1)
    if num % den:
        raise ArithmeticError(f"ballot({n}, {k}) is not an integer")
    return num // den


def run_length_pmf_exact(rho: Fraction, n: int) -> Fraction:
    """P(initial run = n) at horizontal mean rho, as an exact rational."""
    rho = Fraction(rho)
    head = 1 - 1 / rho
    if n == 0:
        return head
    return head * sum(ballot(n - 1, k) * rho ** k / (1 + rho) ** (n + k)
                      for k in range(n))


def run_length_pmf(rho: float, n: int) -> float:
    return float(run_length_pmf_exact(Fraction(rho), n))


# ---------------------------------------------------------------------------
# Exhaustive enumeration, used only by self_test on tiny inputs.

def _paths(da: int, db: int):
    """Every up-right step sequence with da e1 steps and db e2 steps."""
    for e1_at in itertools.combinations(range(da + db), da):
        chosen = set(e1_at)
        yield [0 if s in chosen else 1 for s in range(da + db)]


def _best_path_sum(y, start, end) -> float:
    best = -math.inf
    for steps in _paths(end[0] - start[0], end[1] - start[1]):
        a, b = start
        total = y[a][b]
        for s in steps:
            a, b = (a + 1, b) if s == 0 else (a, b + 1)
            total += y[a][b]
        best = max(best, total)
    return best


def self_test(seed: int = 0) -> list[str]:
    """Check every reference against exhaustive enumeration; return failures."""
    rnd = random.Random(seed)
    bad = []
    for rows, cols in [(1, 1), (1, 4), (3, 1), (3, 4), (5, 5), (6, 4)]:
        y = [[rnd.expovariate(1.0) for _ in range(cols)] for _ in range(rows)]
        g = antidiagonal_fill(np.array(y))
        for a in range(rows):
            for b in range(cols):
                ref = _best_path_sum(y, (0, 0), (a, b))
                if abs(g[a, b] - ref) > 1e-12 * max(1.0, ref):
                    bad.append(f"antidiagonal_fill {rows}x{cols} at {(a, b)}")
        if recursion_residual(g, np.array(y)) > 1e-12:
            bad.append(f"recursion_residual {rows}x{cols}")
    for rows, cols in [(3, 3), (5, 6), (7, 5)]:
        for _ in range(8):
            y = [[rnd.expovariate(1.0) for _ in range(cols)] for _ in range(rows)]
            n1, n2 = rows - 1, cols - 1
            to_west = [[_best_path_sum(y, (a, b), (n1 - 1, n2)) if a < n1 else None
                        for b in range(cols)] for a in range(rows)]
            to_south = [[_best_path_sum(y, (a, b), (n1, n2 - 1)) if b < n2 else None
                         for b in range(cols)] for a in range(rows)]
            steps = min(n1, n2) - 1
            ref = _walk_tables(np.array(to_west, dtype=object),
                               np.array(to_south, dtype=object), n1, n2, steps)
            if not np.array_equal(ref, interface_walk(np.array(y), steps)):
                bad.append(f"interface_walk {rows}x{cols}")
    for length in (1, 2, 5, 7):
        for _ in range(20):
            arr = [rnd.expovariate(0.5) for _ in range(length)]
            svc = [rnd.expovariate(1.0) for _ in range(length)]
            j_left = rnd.choice([0.0, rnd.expovariate(1.0)])
            # Two-level strip: level 0 sums arrivals, a path enters level 1
            # from the left boundary (value j_left) or at some column j.
            h1 = []
            for n in range(1, length + 1):
                routes = [j_left + sum(svc[:n])]
                routes += [sum(arr[:j]) + sum(svc[j - 1:n]) for j in range(1, n + 1)]
                h1.append(max(routes))
            h0 = np.cumsum(arr)
            dep, soj, idle = lindley_sweep(j_left, arr, svc)
            want_dep = np.diff(np.concatenate([[j_left], h1]))
            if np.max(np.abs(dep - want_dep)) > 1e-12 or \
                    np.max(np.abs(soj - (np.array(h1) - h0))) > 1e-12:
                bad.append(f"lindley_sweep length {length}")
            j_prev = np.concatenate([[j_left], np.array(h1) - h0])[:-1]
            if not np.array_equal(idle, np.array(arr) >= j_prev):
                bad.append(f"lindley_sweep idle flags length {length}")
    for n in range(8):
        for k in range(n + 2):
            count = 0
            for steps in _paths(n, k):  # 0 = rise, 1 = fall
                height = itertools.accumulate(1 if s == 0 else -1 for s in steps)
                count += all(h >= 0 for h in height)
            if count != ballot(n, k):
                bad.append(f"ballot({n}, {k})")
    for rho in (Fraction(3, 2), Fraction(2), Fraction(4)):
        if run_length_pmf_exact(rho, 0) != 1 - 1 / rho:
            bad.append(f"run_length_pmf atom at rho={rho}")
    mass = sum(run_length_pmf_exact(Fraction(4), n) for n in range(80))
    if not 0 < 1 - mass < 1e-12:
        bad.append(f"run_length_pmf mass at rho=4 is {float(mass)!r}")
    return bad
