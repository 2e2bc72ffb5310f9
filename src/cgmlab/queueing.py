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
sweep, a reversal duality, and intertwining identities for iterated
departure maps.  All of that is checked here at fixed tolerances.

lindley_iterate, queue_Dn and the conservation, duality, T and
intertwining checks take either one window or a stack of K aligned windows
of independent instances (see SeqWindow: time on the last axis).  j_left is
then a float or a (K,) array, and a check's max_abs_error is the maximum
over all instances.

Exactness notes: the checks with tolerance 1e-12 (conservation, exchange,
duality) rely on every output slot being one rounding of its defining
formula.  The sweep scans only the sojourn sequentially, with the branch
arithmetic J_k = w_k + (J_{k-1} - I_k) when I_k < J_{k-1} and J_k = w_k
otherwise.  A short single window runs that branch in a Python float loop.
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
sojourn J_{k-1} through the same branch test, each one IEEE operation on
the same operands.  Nothing is summed along the time axis, so an idle
slot's sojourn is exactly its service and busy slots leave exact zeros in
D - w.  Sum-based identities (strip, T, the intertwining interiors) carry
prefix-sum rounding and are held to 1e-9.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .rng import RngSpec, SeqWindow, exp_from_uniform, same_window

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
    "check_conservation",
    "check_duality",
    "check_T_identity",
    "check_intertwining_identity",
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
    """How to close the left edge of a finite window.

    kind "given" starts from a fixed sojourn value, "stationary" draws the
    equilibrium sojourn (rate 1/service_mean - 1/arrival_mean, which is
    exact for exponential inputs), and "burn_in" starts empty and discards
    a prefix fraction of the output window.
    """

    kind: str
    j_left: float = 0.0
    fraction: float = 0.2
    arrival_mean: float | None = None
    service_mean: float | None = None
    rng: RngSpec | None = None

    def __post_init__(self):
        if self.kind not in ("given", "stationary", "burn_in"):
            raise ValueError(f"unknown boundary policy kind {self.kind!r}")
        if self.kind == "given" and self.j_left < 0:
            raise ValueError("left sojourn value must be nonnegative")
        if self.kind == "burn_in" and not 0 <= self.fraction < 1:
            raise ValueError("burn-in fraction must lie in [0, 1)")
        if self.kind == "stationary":
            if self.rng is None:
                raise ValueError("stationary boundary needs an RngSpec")
            if self.arrival_mean is not None and self.service_mean is not None:
                if not self.service_mean < self.arrival_mean:
                    raise ValueError("stationary boundary needs service mean < arrival mean")

    @staticmethod
    def given(j_left: float) -> "BoundaryPolicy":
        return BoundaryPolicy("given", j_left=j_left)

    @staticmethod
    def stationary(rng: RngSpec, arrival_mean: float | None = None,
                   service_mean: float | None = None) -> "BoundaryPolicy":
        return BoundaryPolicy("stationary", rng=rng,
                              arrival_mean=arrival_mean, service_mean=service_mean)

    @staticmethod
    def burn_in(fraction: float = 0.2) -> "BoundaryPolicy":
        return BoundaryPolicy("burn_in", fraction=fraction)

    def resolve_j_left(self, arrivals: SeqWindow, services: SeqWindow,
                       tag: str = "boundary") -> float:
        """The left sojourn value this policy implies for the given windows."""
        if self.kind == "given":
            return float(self.j_left)
        if self.kind == "burn_in":
            return 0.0
        lam = self.service_mean if self.service_mean is not None else services.mean()
        rho = self.arrival_mean if self.arrival_mean is not None else arrivals.mean()
        if not lam < rho:
            raise ValueError("stationary boundary needs service mean < arrival mean")
        rate = 1.0 / lam - 1.0 / rho
        u = self.rng.sub(tag).generator().random()
        return float(exp_from_uniform(np.asarray(u), 1.0 / rate))

    def trim_count(self, length: int) -> int:
        return int(self.fraction * length) if self.kind == "burn_in" else 0


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


def _check(name, errors, tolerance, **extras) -> IdentityReport:
    err = float(np.max(np.abs(errors))) if np.size(errors) else 0.0
    return IdentityReport(name, err, tolerance, err <= tolerance, dict(extras))


def _incoming(j_left: float | np.ndarray, sojourn: np.ndarray) -> np.ndarray:
    """The sojourn entering each slot, [j_left, J_1, ..., J_{n-1}], per instance."""
    return np.concatenate((np.asarray(j_left)[..., None], sojourn[..., :-1]), axis=-1)


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
    if arr.ndim == 1:
        j_left = float(j_left)
        negative = j_left < 0
    else:
        j_left = np.broadcast_to(np.asarray(j_left, dtype=np.float64), arr.shape[:1]).copy()
        negative = (j_left < 0).any()
    if negative:
        raise ValueError("left sojourn value must be nonnegative")
    soj = _sojourn_scan(j_left, arr, svc)
    j_prev = _incoming(j_left, soj)
    # idle slot: the queue empties before the arrival completes
    idle = arr >= j_prev
    dep = np.where(idle, svc + (arr - j_prev), svc)
    rel = np.where(idle, j_prev, arr)
    off = arrivals.offset
    return QueueOutput(j_left, SeqWindow(off, dep), SeqWindow(off, soj),
                       SeqWindow(off, rel))


def _policy_run(arrivals, services, policy, tag) -> tuple[QueueOutput, int]:
    if arrivals.mean() <= services.mean():
        warnings.warn("queue inputs violate the drift condition (arrival mean "
                      "<= service mean); outputs may be boundary dominated")
    j0 = policy.resolve_j_left(arrivals, services, tag)
    out = lindley_iterate(j0, arrivals, services)
    return out, policy.trim_count(len(arrivals))


def _trim(window: SeqWindow, count: int) -> SeqWindow:
    return window if count == 0 else window.suffix(window.offset + count)


def queue_D(arrivals: SeqWindow, services: SeqWindow,
            policy: BoundaryPolicy = DEFAULT_POLICY) -> SeqWindow:
    """Departure increments; under a burn-in policy the prefix is discarded."""
    out, cut = _policy_run(arrivals, services, policy, "D")
    return _trim(out.departures, cut)


def queue_S(arrivals: SeqWindow, services: SeqWindow,
            policy: BoundaryPolicy = DEFAULT_POLICY) -> SeqWindow:
    """Sojourn values over the window."""
    out, cut = _policy_run(arrivals, services, policy, "S")
    return _trim(out.sojourn, cut)


def queue_R(arrivals: SeqWindow, services: SeqWindow,
            policy: BoundaryPolicy = DEFAULT_POLICY) -> SeqWindow:
    """Unused input min(I_k, J_{k-1}), the service sequence handed downstream."""
    out, cut = _policy_run(arrivals, services, policy, "R")
    return _trim(out.unused, cut)


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
    acc = sequences[0]
    for j, svc in enumerate(sequences[1:], start=2):
        j0 = policy.resolve_j_left(acc, svc, f"Dn{j}")
        acc = lindley_iterate(j0, acc, svc).departures
    return _trim(acc, policy.trim_count(len(acc)))


@dataclass(eq=False)
class StripTable:
    """Two-level strip passage times H from (m, 0), on k = m .. n.

    level0[m] = 0 and level1[m] = j_left by convention.
    """

    j_left: float
    level0: SeqWindow
    level1: SeqWindow


def strip_lpp_H(j_left: float, arrivals: SeqWindow, services: SeqWindow) -> StripTable:
    """Strip passage times built from the definitional entry-column maxima.

    level0 accumulates arrivals; level1[n] is the larger of (j_left + all
    services) and the best split (arrivals up to a column j, then services
    from j on).  Increments of level1 reproduce the departure sweep, which
    is the cross-check the tests perform.
    """
    same_window(arrivals, services)
    if len(arrivals) == 0:
        raise ValueError("empty window")
    m = arrivals.offset - 1
    arr = arrivals.values
    svc = services.values
    h0 = np.concatenate([[0.0], np.cumsum(arr)])
    cw = np.cumsum(svc)
    # H1[n] = Cw[n] + max(j_left, max_{j<=n} (P_I[j] - Cw[j-1]))
    best = np.maximum.accumulate(np.maximum(h0[1:] - (cw - svc), j_left))
    h1 = np.concatenate([[float(j_left)], cw + best])
    return StripTable(float(j_left), SeqWindow(m, h0), SeqWindow(m, h1))


def check_duality(j_left: float | np.ndarray, arrivals: SeqWindow, services: SeqWindow,
                  tolerance: float = 1e-12) -> IdentityReport:
    """Reversal duality: feeding the reversed outputs back through the sweep
    returns the reversed inputs, including the sojourn column."""
    fwd = lindley_iterate(j_left, arrivals, services)
    rev_arr = SeqWindow(2 - fwd.departures.end, fwd.departures.values[..., ::-1])
    rev_svc = SeqWindow(rev_arr.offset, fwd.unused.values[..., ::-1])
    back = lindley_iterate(fwd.final_sojourn, rev_arr, rev_svc)
    exp_soj = _incoming(fwd.j_left, fwd.sojourn.values)[..., ::-1]
    errors = np.concatenate([
        back.departures.values[..., ::-1] - arrivals.values,
        back.unused.values[..., ::-1] - services.values,
        back.sojourn.values - exp_soj,
    ], axis=-1)
    return _check("duality", errors, tolerance)


def check_T_identity(j_left: float | np.ndarray, arrivals: SeqWindow, services: SeqWindow,
                     tolerance: float = 1e-9) -> IdentityReport:
    """Best arrival/service split computed from inputs equals the same split
    computed from the sweep outputs in the reversed roles.

    Window convention: the sojourn value j_left sits one slot left of the
    aligned input windows, and the split index ranges over the full window.
    """
    out = lindley_iterate(j_left, arrivals, services)

    def best_split(first: np.ndarray, second: np.ndarray) -> np.ndarray:
        pre = np.cumsum(first, axis=-1)
        suf = np.cumsum(second[..., ::-1], axis=-1)[..., ::-1]
        return np.max(pre + suf, axis=-1)

    t_direct = best_split(arrivals.values, services.values)
    t_dual = best_split(out.unused.values, out.departures.values)
    return _check("T-identity", t_dual - t_direct, tolerance, value=t_direct)


def check_intertwining_identity(arrival_seqs: list[SeqWindow], services: SeqWindow,
                                fraction: float = 0.2,
                                tolerance: float = 1e-9) -> IdentityReport:
    """Iterated-departure intertwining on a finite window.

    arrival_seqs = [I^n, ..., I^1] ordered from the last arrival stream to
    the first; services is the bottom service sequence.  The identity
    states D^(n+1)(I^n, ..., I^1, w) equals D^(n)(D(I^n, w^n), ..., D(I^1, w^1))
    where each w^(j+1) is the unused input R(I^j, w^j).  With two arrival
    streams this is the bracket exchange identity for nested departure
    maps.  Finite windows start empty at the west edge, so agreement is
    asserted on the interior after a burn-in fraction.
    """
    if not arrival_seqs:
        raise ValueError("need at least one arrival sequence")
    same_window(*arrival_seqs, services)
    fold = BoundaryPolicy.given(0.0)
    lhs = queue_Dn(list(arrival_seqs) + [services], fold)
    # Chain the unused input upward from the bottom stream.
    w = services
    transformed = []
    for arr in reversed(arrival_seqs):
        out = lindley_iterate(0.0, arr, w)
        transformed.append(out.departures)
        w = out.unused
    rhs = queue_Dn(list(reversed(transformed)), fold)
    cut = int(fraction * len(lhs))
    errors = lhs.values[..., cut:] - rhs.values[..., cut:]
    return _check("intertwining", errors, tolerance, order=len(arrival_seqs),
                  interior=len(lhs) - cut)


def check_conservation(j_left: float | np.ndarray, arrivals: SeqWindow, services: SeqWindow,
                       tolerance: float = 1e-12) -> IdentityReport:
    """Slot-by-slot conservation laws of one sweep.

    Checked per slot: arrival plus outgoing sojourn equals incoming sojourn
    plus departure; service plus arrival equals unused plus departure; the
    unused input is the smaller of arrival and incoming sojourn.
    """
    out = lindley_iterate(j_left, arrivals, services)
    j_prev = _incoming(out.j_left, out.sojourn.values)
    arr = arrivals.values
    svc = services.values
    errors = np.concatenate([
        (arr + out.sojourn.values) - (j_prev + out.departures.values),
        (svc + arr) - (out.unused.values + out.departures.values),
        out.unused.values - np.minimum(arr, j_prev),
    ], axis=-1)
    return _check("conservation", errors, tolerance)


def check_strip_identities(j_left: float, arrivals: SeqWindow, services: SeqWindow,
                           tolerance: float = 1e-9) -> IdentityReport:
    """Strip passage-time representations against the sweep outputs.

    Verified on one instance: level-1 increments are the departures and the
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
    errors = [
        np.diff(h1) - out.departures.values,
        (h1 - h0)[1:] - out.sojourn.values,
        [h1[0] - h0[0] - j_left],
    ]
    # split form: h1[end] = h0[k] + sojourn[k] + sum of departures past k
    dep_suffix = np.concatenate([np.cumsum(out.departures.values[::-1])[::-1], [0.0]])
    j_col = np.concatenate([[j_left], out.sojourn.values])
    errors.append((h0 + j_col + dep_suffix) - h1[-1])
    # reversed-role form: for every left column l,
    # h1[end] - h0[l] = max(best split of (unused, departures) past l,
    #                       all unused past l + final sojourn)
    a_pre = np.concatenate([[0.0], np.cumsum(out.unused.values)])
    revcum = np.cumsum(out.departures.values[::-1])[::-1]
    comb = a_pre[1:] + revcum
    suffix_best = np.concatenate(
        [np.maximum.accumulate(comb[::-1])[::-1], [-np.inf]])
    rhs = np.maximum(suffix_best - a_pre,
                     (a_pre[-1] - a_pre) + out.final_sojourn)
    errors.append((h1[-1] - h0) - rhs)
    return _check("strip-identities", np.concatenate([np.ravel(e) for e in errors]),
                  tolerance)
