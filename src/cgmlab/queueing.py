"""FIFO queueing operators on increment windows.

A queue is driven by an arrival increment sequence I and a service sequence
w over a window of integer slots, plus a sojourn value J at the slot left
of the window.  One sweep of the Lindley recursion produces

    departures   D:  Itilde_k = w_k + (I_k - J_{k-1})^+
    sojourn      S:  J_k      = w_k + (J_{k-1} - I_k)^+
    unused input R:  wtilde_k = min(I_k, J_{k-1})

which satisfy the conservation law I_k + J_k = J_{k-1} + Itilde_k and the
exchange law w_k + I_k = wtilde_k + Itilde_k slot by slot.  The same data
define a two-level strip passage time H whose increments reproduce the
sweep, and a reversal duality.  All of that is checked here, each
identity at one fixed tolerance: conservation (with exchange) and
duality at 1e-12; the T identity and the strip identities at 1e-9.
check_sweep_identities reads the first three off one forward sweep, the
duality adding its reverse sweep.  The intertwining of the departure
fold and the unused-input chain defined here is checked in multiclass.

The strip table H is lpp's max-plus recursion on two rows, filled by
lpp's own code: level 0 is the prefix sums of [0, I], and level 1 is one
lpp row step from [j_left, level 0 past its first column] over [0, w].
So it takes finite arrivals and services only, as every table fill does.

queue_D, queue_S, queue_R and queue_Dn close the left edge of the window
by a BoundaryPolicy, the given or the burn-in boundary: the given boundary
starts every queue from a fixed sojourn value and keeps the whole window;
the burn-in boundary starts every queue empty and cuts a prefix fraction
off the output, once, after the last stage.

lindley_iterate, queue_Dn, strip_lpp_H and the sweep and strip checks
take either one window or a stack of K aligned windows of independent
instances (see SeqWindow: time on the last axis).  j_left is
then a float or a (K,) array, and a check's max_abs_error is the maximum
over all instances.

Exactness notes: the tight checks (conservation, exchange, duality) rely
on every output slot being one rounding of its defining formula.  The
sweep scans only the sojourn sequentially, with the branch arithmetic
J_k = w_k + (J_{k-1} - I_k) when I_k < J_{k-1} and J_k = w_k otherwise.
A short single window runs that branch in a Python float loop.
A stack runs one ufunc step per slot over all instances at once,
J_k = w_k + max(J_{k-1} - I_k, 0), which is the branch bit for bit: when
J_{k-1} > I_k the difference is the branch's positive J_{k-1} - I_k, and
otherwise it is zero or negative (IEEE subtraction gives zero only for
equal operands), so the maximum is the exact +0 of a zero row and w_k + 0
is w_k.  Rewriting it as max(J_{k-1}, I_k) + (w_k - I_k) would round
differently.  The one difference is the sign of a zero: a -0.0 service
at an idle slot stays -0.0 in the float loop and becomes +0.0 in the
lockstep step, equal by ==.  An infinite arrival gives J_{k-1} - I_k =
-inf there, so the slot idles with sojourn w_k, as in the float loop;
only an infinite sojourn meeting an infinite arrival (inf - inf) gives a
NaN where the branch gives w_k.

A single window of at least 4096 slots is cut into chunks of isqrt(n)
slots, swept in lockstep as a stack: chunk 0 from j_left, every later
chunk from an empty queue.  Only the heads of chunks 1, 2, ... can then be
wrong, and they are repaired in order: from the previous chunk's true last
sojourn the branch recomputes the chunk's slots until one equals the
speculative value; from there on both chains are the same recursion on the
same inputs, so every later slot is already exact.  The repair always
ends (Loynes' coupling): the branch step is monotone in J_{k-1}, IEEE
rounding being monotone, so a chain started from 0 never exceeds the true
one, and at the true chain's first idle slot both hold exactly w_k.  A
chunk that never meets its true chain (an unstable queue) is recomputed
whole, still exactly.  The tail after the last whole chunk runs the float
loop.  So every slot is the branch bit for bit, chunk boundaries included
(up to the sign of a zero, as above).

Departures and unused input then follow elementwise from the shifted
sojourn J_{k-1}, computed through out= buffers with no branch mask:
Itilde_k = max(I_k - J_{k-1}, 0) + w_k and wtilde_k = min(I_k, J_{k-1}).
This is the branch bit for bit by the argument of the lockstep step: at a
busy slot (I_k < J_{k-1}) the difference is negative, the maximum is the
exact +0 and +0 + w_k is w_k; at an idle slot it is the branch's own
nonnegative I_k - J_{k-1}, added to w_k in one rounding (addition
commutes); and the minimum picks the operand the branch picks, either one
on a tie.  The only difference is again the sign of a zero: a -0.0
service at a busy slot gives +0.0 departures, and a tie between -0.0 and
+0.0 may pick either; all are equal by ==.  An infinite arrival gives an
infinite departure and the incoming sojourn as unused input, as the
branch does.  Nothing is summed along the time axis, so an idle slot's
sojourn is exactly its service and busy slots leave exact zeros in D - w.
Sum-based identities (strip, T) carry prefix-sum rounding, and
multiclass's intertwining compares two different folds, hence their
looser tolerance.

Identity checks reduce each error piece to its own max |e|; the maximum
is exact, so no piece needs to be joined to the others first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import SeqWindow, same_window
from .lpp import _prefix_sums, _row_step

__all__ = [
    "QueueOutput",
    "BoundaryPolicy",
    "IdentityReport",
    "StripTable",
    "lindley_iterate",
    "queue_D",
    "queue_S",
    "queue_R",
    "queue_Dn",
    "strip_lpp_H",
    "check_sweep_identities",
    "check_strip_identities",
]


@dataclass(eq=False)
class QueueOutput:
    """One Lindley sweep: departures, sojourn, and unused input, all on the
    arrival window; j_left is the sojourn value at the slot left of it
    (a (K,) array for a stack of windows)."""

    j_left: float | np.ndarray
    departures: SeqWindow
    sojourn: SeqWindow
    unused: SeqWindow

    @property
    def final_sojourn(self) -> float | np.ndarray:
        last = self.sojourn.values[..., -1]
        return float(last) if last.ndim == 0 else last


@dataclass(frozen=True)
class BoundaryPolicy:
    """How to close the left edge of a finite window: every queue starts
    from the sojourn value j_left, and the output window loses its first
    int(fraction * length) slots.

    Two rules are built, each by its constructor: given(j) starts from j
    and keeps the whole window, and burn_in(fraction) starts empty and cuts
    the burn-in prefix.
    """

    j_left: float = 0.0
    fraction: float = 0.0

    def __post_init__(self):
        if not 0 <= self.j_left < math.inf:
            raise ValueError("left sojourn value must be nonnegative and finite")
        if not 0 <= self.fraction < 1:
            raise ValueError("burn-in fraction must lie in [0, 1)")

    @staticmethod
    def given(j_left: float) -> "BoundaryPolicy":
        return BoundaryPolicy(j_left=j_left)

    @staticmethod
    def burn_in(fraction: float = 0.2) -> "BoundaryPolicy":
        return BoundaryPolicy(fraction=fraction)

    def trim(self, window):
        """window, a SeqWindow or a MultiConfig, without the burn-in prefix
        of int(fraction * length) slots; the window itself when fraction is 0."""
        if self.fraction == 0:
            return window
        return window.suffix(window.offset + int(self.fraction * window.values.shape[-1]))


DEFAULT_POLICY = BoundaryPolicy.burn_in(0.2)


@dataclass(eq=False)
class IdentityReport:
    """Result of an exact identity check over one or more instances."""

    name: str
    max_abs_error: float
    tolerance: float
    passed: bool
    extras: dict = field(default_factory=dict)

    def __str__(self):
        tag = "ok" if self.passed else "FAIL"
        return f"{self.name}: max |err| = {self.max_abs_error:.3e} (tol {self.tolerance:.0e}) {tag}"


def _check(name, pieces, tolerance, **extras) -> IdentityReport:
    """Report the largest |error| over a list of error arrays."""
    worst = [np.max(np.abs(e)) for e in pieces if np.size(e)]
    # np.max, unlike max(), keeps a NaN from any piece
    err = float(np.max(worst)) if worst else 0.0
    return IdentityReport(name, err, tolerance, err <= tolerance, dict(extras))


def _prepend(left, values: np.ndarray) -> np.ndarray:
    """[left, v_1, v_2, ...] along the last axis; left holds one value per
    instance (a float for one window, a (K,) array for a stack)."""
    return np.concatenate((np.asarray(left)[..., None], values), axis=-1)


def _append(values: np.ndarray, right) -> np.ndarray:
    """[v_1, ..., v_n, right] along the last axis, right as _prepend's left."""
    return np.concatenate((values, np.asarray(right)[..., None]), axis=-1)


def _left_values(j_left: float | np.ndarray, arr: np.ndarray) -> float | np.ndarray:
    """j_left as a float for one window, as a fresh (K,) array for a stack;
    refuses a negative, infinite or NaN value."""
    if arr.ndim == 1:
        j = float(j_left)
    else:
        j = np.broadcast_to(np.asarray(j_left, dtype=np.float64), arr.shape[:1]).copy()
    if not np.all((0 <= j) & (j < math.inf)):
        raise ValueError("left sojourn value must be nonnegative and finite")
    return j


# A single window at least this long is swept as a stack of its own chunks
# (isqrt(n) slots each) and then repaired; shorter ones, where a ufunc call
# per chunk column costs more than the float loop saves, keep the float loop.
_CHUNKED_FROM = 4096


def _sojourn_scan(j_left: float | np.ndarray, arr: np.ndarray,
                  svc: np.ndarray) -> np.ndarray:
    """J_k = w_k + (J_{k-1} - I_k)^+ from J_0 = j_left, the one sequential pass.

    A stack of windows, and the whole chunks of a long single window, are
    swept in lockstep; a long window's chunk heads are then repaired to the
    exact sojourn, and its tail (all of a short window) runs the branch in a
    Python float loop.  See the module's exactness notes.
    """
    soj = np.empty(arr.shape)
    n = arr.shape[-1]
    size = math.isqrt(n)
    head = 0
    if arr.ndim == 2:
        head, stack, j = n, (arr, svc, soj), j_left
    elif n >= _CHUNKED_FROM:
        # Chunk 0 starts from j_left, every later chunk from an empty queue.
        head = n - n % size
        stack = [x[:head].reshape(-1, size) for x in (arr, svc, soj)]
        j = np.zeros(head // size)
        j[0] = j_left
    if head:
        # One step per slot over every row, through the columns in place.
        gap = np.empty(len(stack[0]))
        zero = np.zeros(len(stack[0]))
        for i, w, out in zip(*(x.T for x in stack)):
            np.subtract(j, i, out=gap)
            np.maximum(gap, zero, out=gap)
            j = np.add(w, gap, out=out)
    if arr.ndim == 2:
        return soj
    # memoryviews hand the loops Python floats without building lists.
    a, s, out = memoryview(arr), memoryview(svc), memoryview(soj)
    # Repair chunks 1, 2, ... in order: recompute each head from the
    # previous chunk's true last sojourn until it meets the speculative
    # chain, which from there on is the same recursion on the same inputs.
    for start in range(size, head, size):
        j = out[start - 1]
        for k in range(start, start + size):
            i = a[k]
            if i >= j:
                j = s[k]
            else:
                j = s[k] + (j - i)
            if j == out[k]:
                break
            out[k] = j
    j = out[head - 1] if head else j_left
    k = head
    for i, w in zip(a[head:], s[head:]):
        if i >= j:
            j = w
        else:
            j = w + (j - i)
        out[k] = j
        k += 1
    return soj


def lindley_iterate(j_left: float | np.ndarray, arrivals: SeqWindow,
                    services: SeqWindow) -> QueueOutput:
    """One sweep of the queue recursion from the left sojourn value j_left.

    On a stack of K windows j_left is a float or a (K,) array, and each
    instance is swept exactly as it would be on its own.
    """
    same_window(arrivals, services)
    if len(arrivals) == 0:
        raise ValueError("empty window")
    arr = arrivals.values
    svc = services.values
    j_left = _left_values(j_left, arr)
    soj = _sojourn_scan(j_left, arr, svc)
    # D = max(I - J_prev, 0) + w and R = min(I, J_prev), the branch bit for
    # bit (module exactness notes); R overwrites J_prev's buffer.
    j_prev = _prepend(j_left, soj[..., :-1])
    dep = np.subtract(arr, j_prev)
    np.maximum(dep, 0.0, out=dep)
    np.add(dep, svc, out=dep)
    rel = np.minimum(arr, j_prev, out=j_prev)
    off = arrivals.offset
    return QueueOutput(j_left, SeqWindow(off, dep), SeqWindow(off, soj),
                       SeqWindow(off, rel))


def _policy_run(arrivals, services, policy) -> QueueOutput:
    if arrivals.mean() <= services.mean():
        warnings.warn("queue inputs violate the drift condition (arrival mean "
                      "<= service mean); outputs may be boundary dominated")
    return lindley_iterate(policy.j_left, arrivals, services)


def queue_D(arrivals: SeqWindow, services: SeqWindow,
            policy: BoundaryPolicy = DEFAULT_POLICY) -> SeqWindow:
    """Departure increments; under a burn-in policy the prefix is discarded."""
    return policy.trim(_policy_run(arrivals, services, policy).departures)


def queue_S(arrivals: SeqWindow, services: SeqWindow,
            policy: BoundaryPolicy = DEFAULT_POLICY) -> SeqWindow:
    """Sojourn values over the window."""
    return policy.trim(_policy_run(arrivals, services, policy).sojourn)


def queue_R(arrivals: SeqWindow, services: SeqWindow,
            policy: BoundaryPolicy = DEFAULT_POLICY) -> SeqWindow:
    """Unused input min(I_k, J_{k-1}), the service sequence handed downstream."""
    return policy.trim(_policy_run(arrivals, services, policy).unused)


def queue_Dn(sequences: list[SeqWindow],
             policy: BoundaryPolicy = DEFAULT_POLICY) -> SeqWindow:
    """Iterated departures: fold the first sequence through the rest as services.

    With a single sequence this is the identity (a queue with zero service).
    Burn-in trimming is applied once at the end so the internal stages stay
    aligned.
    """
    if not sequences:
        raise ValueError("need at least one sequence")
    same_window(*sequences)
    return policy.trim(_fold(sequences, policy.j_left))


def _fold(sequences: list[SeqWindow], j_left: float) -> SeqWindow:
    """queue_Dn untrimmed: sequences[0] departs through each of the rest in
    turn, every queue started from the left sojourn value j_left."""
    acc = sequences[0]
    for svc in sequences[1:]:
        acc = lindley_iterate(j_left, acc, svc).departures
    return acc


def _unused_chain(lines: list[SeqWindow], services: SeqWindow, j_left: float):
    """Yield each line's sweep against the unused input of the line before,
    the first line against services, untrimmed; every queue starts from the
    left sojourn value j_left: one multiline step, or a column of the
    triangular arrays.  A caller that keeps only the departures holds one
    stage's sojourn and unused input at a time."""
    w = services
    for arr in lines:
        out = lindley_iterate(j_left, arr, w)
        yield out
        w = out.unused


@dataclass(eq=False)
class StripTable:
    """Two-level strip passage times H from (m, 0), on k = m .. n.

    level0[m] = 0 and level1[m] = j_left by convention (per instance for a
    stack of windows, j_left then a (K,) array).
    """

    j_left: float | np.ndarray
    level0: SeqWindow
    level1: SeqWindow


def strip_lpp_H(j_left: float | np.ndarray, arrivals: SeqWindow,
                services: SeqWindow) -> StripTable:
    """Strip passage times, two rows of the max-plus recursion.

    level0 accumulates arrivals; level1[n] is the larger of (j_left + all
    services) and the best split (arrivals up to a column j, then services
    from j on).  Both are filled by lpp's row code: level0 as the prefix
    sums of [0, I], level1 as one row step from [j_left, level0[1:]] over
    [0, w].  Increments of level1 reproduce the departure sweep, which is
    the cross-check the tests perform.  Raises ValueError on a NaN or
    infinite arrival or service, as every table fill does.
    """
    same_window(arrivals, services)
    if len(arrivals) == 0:
        raise ValueError("empty window")
    m = arrivals.offset - 1
    arr = arrivals.values
    j_left = _left_values(j_left, arr)
    zero = np.zeros(arr.shape[:-1])
    shape = (*arr.shape[:-1], len(arrivals) + 1)
    h0, h1 = np.empty((2, *shape))
    _prefix_sums(_prepend(zero, arr), h0)
    # H1[n] = Cw[n] + max(j_left, max_{j<=n} (H0[j] - Cw[j-1]))
    _row_step(_prepend(j_left, h0[..., 1:]), _prepend(zero, services.values), h1,
              np.empty(shape))
    return StripTable(j_left, SeqWindow(m, h0), SeqWindow(m, h1))


def check_sweep_identities(j_left: float | np.ndarray, arrivals: SeqWindow,
                           services: SeqWindow) -> tuple[IdentityReport, ...]:
    """The conservation, duality and T-identity reports of one sweep.

    conservation, per slot: arrival plus outgoing sojourn equals incoming
    sojourn plus departure; service plus arrival equals unused plus
    departure; the unused input is the smaller of arrival and incoming
    sojourn.  duality: feeding the reversed outputs back through the sweep
    returns the reversed inputs, including the sojourn column.  T-identity:
    the best arrival/service split computed from the inputs equals the same
    split computed from the outputs in the reversed roles, the split index
    ranging over the full window.  The incoming sojourn J_{k-1} is built
    once, for conservation and duality both.
    """
    out = lindley_iterate(j_left, arrivals, services)
    arr, svc = arrivals.values, services.values
    dep, soj, rel = out.departures.values, out.sojourn.values, out.unused.values
    j_prev = _prepend(out.j_left, soj[..., :-1])
    conservation = _check("conservation", [
        (arr + soj) - (j_prev + dep),
        (svc + arr) - (rel + dep),
        rel - np.minimum(arr, j_prev),
    ], 1e-12)
    start = 2 - out.departures.end
    back = lindley_iterate(out.final_sojourn, SeqWindow(start, dep[..., ::-1]),
                           SeqWindow(start, rel[..., ::-1]))
    duality = _check("duality", [
        back.departures.values[..., ::-1] - arr,
        back.unused.values[..., ::-1] - svc,
        back.sojourn.values - j_prev[..., ::-1],
    ], 1e-12)

    def best_split(first: np.ndarray, second: np.ndarray) -> np.ndarray:
        pre = np.cumsum(first, axis=-1)
        suf = np.cumsum(second[..., ::-1], axis=-1)[..., ::-1]
        return np.max(pre + suf, axis=-1)

    t_direct = best_split(arr, svc)
    t_identity = _check("T-identity", [best_split(rel, dep) - t_direct], 1e-9,
                        value=t_direct)
    return conservation, duality, t_identity


def check_strip_identities(j_left: float | np.ndarray, arrivals: SeqWindow,
                           services: SeqWindow) -> IdentityReport:
    """Strip passage-time representations against the sweep outputs.

    Verified per instance: level-1 increments are the departures and the
    level gap is the sojourn, at every column; the split form (arrivals to a
    column, sojourn there, departures after) gives the level-1 endpoint for
    every split column; and for every left column the remaining strip value
    is the larger of the reversed-role split and the all-unused-plus-final-
    sojourn route, whose left-end case is the dual value identity.
    """
    table = strip_lpp_H(j_left, arrivals, services)
    out = lindley_iterate(j_left, arrivals, services)
    h0 = table.level0.values
    h1 = table.level1.values
    dep = out.departures.values
    soj = out.sojourn.values
    end = h1[..., -1:]
    errors = [
        np.diff(h1, axis=-1) - dep,
        (h1 - h0)[..., 1:] - soj,
        h1[..., 0] - h0[..., 0] - out.j_left,
    ]
    # split form: h1[end] = h0[k] + sojourn[k] + sum of departures past k
    zero = np.zeros(dep.shape[:-1])
    dep_suffix = _append(np.cumsum(dep[..., ::-1], axis=-1)[..., ::-1], zero)
    errors.append((h0 + _prepend(out.j_left, soj) + dep_suffix) - end)
    # reversed-role form: for every left column l,
    # h1[end] - h0[l] = max(best split of (unused, departures) past l,
    #                       all unused past l + final sojourn)
    a_pre = _prepend(zero, np.cumsum(out.unused.values, axis=-1))
    comb = a_pre[..., 1:] + dep_suffix[..., :-1]
    suffix_best = _append(np.maximum.accumulate(comb[..., ::-1], axis=-1)[..., ::-1],
                          zero - np.inf)
    rhs = np.maximum(suffix_best - a_pre, (a_pre[..., -1:] - a_pre) + soj[..., -1:])
    errors.append((end - h0) - rhs)
    return _check("strip-identities", errors, 1e-9)
