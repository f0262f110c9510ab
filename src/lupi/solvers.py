"""Equilibrium-finding procedures.

Two independent routes to the symmetric equilibrium, plus the supporting
machinery around them:

* :func:`solve_ne` equalizes all per-number win chances simultaneously with
  a damped Newton iteration started from the Poisson-limit equilibrium.
* :func:`sequential_solve` fixes a target win value ``c0`` and solves for
  ``p_1, p_2, ...`` one number at a time, each by a monotone Newton
  iteration in the remaining tail mass; :func:`find_cne_sequential`
  walks ``c0`` until the chain's probabilities close to total mass 1,
  interpolating on its complete chains with bisection as the safeguard,
  and :func:`bound_c0` bisects ``c0`` to turn shallow chains into an
  interval for the equilibrium win value, which contains it down to
  ``tol`` of about ``1e-12``, as far as the chain's float classification
  goes.
* :func:`best_symmetric` maximizes the everyone-plays-it payoff over the
  simplex, and :func:`verify_ordering_inequality` checks the identity that
  forces the equilibrium to put more mass on 1 than on 2.

The two equilibrium routes share only the win-probability evaluator, so
their agreement is a meaningful cross-check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .config import NE_TOL, ClassificationError, require_int
from .game import Strategy
from .winprob import _STEP_BUDGET, PrefixChance, _kernel, _product_constants

_EPS = float(np.finfo(float).eps)

_NEWTON_MAX_ITER = 200  # solve_ne's budget; it converges in 4-7 iterations

# spectral projected gradient (best_symmetric): nonmonotone memory, Armijo
# fraction, spectral step clamp, the displacement that counts as no move, the
# random starts beside the uniform one, and each start's step budget
_SPG_MEMORY = 10
_SPG_ARMIJO = 1e-4
_SPG_LAM_MIN, _SPG_LAM_MAX = 1e-10, 1e10
_SPG_STILL = 1e-13
_SPG_RESTARTS = 10
_SPG_MAX_STEPS = 500

_ORDERING_TOL = 1e-9  # verify_ordering_inequality's bound on its identity's two sides

# Endpoints for bisections over the win value c0; a win probability of
# exactly 0 or 1 is never an equilibrium value.
_C0_LO = 1e-9
_C0_HI = 1.0 - 1e-9

# find_cne_sequential's guide aims its interpolants at T_n = 0.9 tol: T_n is
# concave in c0, so they land below their aim, and near the top of the
# accepted band [0, tol] they land inside it
_GUIDE_AIM = 0.9

REAL_ROOT = "real-root"
NO_REAL_ROOT = "no-real-root"


@dataclass(frozen=True)
class NESolution:
    """A solved symmetric equilibrium.

    ``residual`` is the largest spread ``|c_i - c_n|`` over the numbers at
    the returned strategy; ``converged`` tells whether it is at most
    :data:`lupi.config.NE_TOL`, the solver's tolerance.
    """

    strategy: Strategy
    c_ne: float
    residual: float
    iterations: int

    @property
    def converged(self) -> bool:
        return self.residual <= NE_TOL

    def to_json_obj(self) -> dict:
        return {
            "strategy": self.strategy.to_json_obj(),
            "c_ne": self.c_ne,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class SequentialEntry:
    """One step of the sequential chain.

    ``p_i`` is the probability found for the number ``i`` (``None`` when the
    equation has no real solution in the admissible interval). ``residual``
    is ``|c_i - c0|`` at the root, or, when no real root exists, its value
    at the nearer end of the interval: ``c_i`` is monotone there, so that
    is the exact minimum. It shrinks as ``c0`` approaches the equilibrium
    value, mirroring the shrinking imaginary part of the complex root it
    shadows.
    """

    i: int
    p_i: float | None
    status: str
    residual: float

    def to_json_obj(self) -> dict:
        return {"i": self.i, "p_i": self.p_i, "status": self.status, "residual": self.residual}


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of a depth-limited sequential solve.

    ``tails[j-1]`` is the tail mass ``T_j`` the chain solved on for ``p_j``.
    ``too_small`` tells that the chain stopped where a number's win chance
    stays above ``c0`` even with all the remaining mass on it, so ``c0`` is
    below the equilibrium value. Neither is in the JSON form.
    """

    c0: float
    entries: list[SequentialEntry]
    tails: list[float] = field(default_factory=list)
    too_small: bool = False

    @property
    def found(self) -> list[float]:
        return [e.p_i for e in self.entries if e.p_i is not None]

    @property
    def prefix_sum(self) -> float:
        return math.fsum(self.found)

    @property
    def complete(self) -> bool:
        return self.entries[-1].status == REAL_ROOT

    def to_json_obj(self) -> dict:
        return {
            "c0": self.c0,
            "entries": [e.to_json_obj() for e in self.entries],
            "prefix_sum": self.prefix_sum,
        }


@dataclass(frozen=True)
class C0Interval:
    """Bracketing interval for the equilibrium win value from a depth-j chain."""

    lower: float
    upper: float
    depth: int

    def to_json_obj(self) -> dict:
        return {"lower": self.lower, "upper": self.upper, "depth": self.depth}


@dataclass(frozen=True)
class SelfConsistentSolution:
    """Equilibrium located by walking the sequential chain's ``c0``.

    ``trace`` lists the walk's points as ``(c0, "large" | "small")`` pairs,
    one per iteration, as :class:`ClassificationError` carries them;
    ``iterations`` is their count.
    """

    c_ne: float
    strategy: Strategy
    sum_error: float
    trace: list[tuple[float, str]]

    @property
    def iterations(self) -> int:
        return len(self.trace)


@dataclass(frozen=True)
class SymmetricOptimum:
    """Best symmetric strategy found and its everyone-plays-it payoff."""

    strategy: Strategy
    w: float
    starts: int
    iterations: int

    def to_json_obj(self) -> dict:
        return {
            "strategy": self.strategy.to_json_obj(),
            "w": self.w,
            "starts": self.starts,
            "iterations": self.iterations,
        }


# ---------------------------------------------------------------------------
# simultaneous Newton solve
# ---------------------------------------------------------------------------


def _limit_start(n: int) -> np.ndarray:
    """The first ``n`` probabilities of the Poisson-limit equilibrium.

    The limit's equilibrium value is ``1/n``, so with ``N = n - 1`` and
    ``y_1 = n`` each ``N p_i = x_i = log y_i`` and ``y_(i+1) = y_i - x_i``
    (carried as ``d = y - 1``). As ``y - log y`` tends to 1 the entries sum
    to ``(n - 1)/N = 1``; they fall doubly exponentially to 0.
    """
    d = float(n - 1)
    x = np.empty(n)
    for i in range(n):
        x[i] = math.log1p(d)
        d -= x[i]
    return x / (n - 1)


def solve_ne(n: int) -> NESolution:
    """Solve the symmetric equilibrium: every number wins equally often.

    The system is ``c_i(p) - c_n(p) = 0`` for ``i = 1..n-1``. The strategy
    is parametrized as a softmax over ``n - 1`` free coordinates (the last
    logit pinned to 0), which encodes the normalization's n-1 degrees of
    freedom and keeps every Newton iterate strictly inside the simplex; the
    equilibrium's tail probabilities are within a whisker of 0 and plain
    simplex coordinates stall on that boundary. Each step is halved until
    the residual norm decreases.

    The iteration starts at the equilibrium of the Poisson-game limit
    (Myerson 1998; Ostling et al. 2011), whose value is ``1/n`` and whose
    probabilities have a closed form: the first ``n``, each raised to at
    least the unit roundoff ``2^-53``, give the starting logits
    ``log(q_i / q_n)``. From uniform play (all logits 0) the residual falls
    quadratically only to about ``1e-7`` at ``n = 12``; then each tail
    logit, heading for probabilities of ``1e-13`` to ``1e-16``, moves about
    one unit per step, since Newton's step on ``e^z`` is ``-1`` far from
    the root. That took 17-20 iterations at ``n = 12..17`` and stalled at
    ``n = 60``; from the limit it takes 4-7 at every ``n`` from 3 to 120,
    and 4 at each ``n`` tried from 150 to 1000, each step taken whole.

    Args:
        n: Number of players, ``3 <= n <= 1000``, the product form's range
            (``ResourceLimitError`` above it).

    Returns:
        An :class:`NESolution`, converged when ``max_i |c_i - c_n|`` is at
        most :data:`lupi.config.NE_TOL`; ``converged`` is False when the
        budget of 200 iterations or the damping floor was hit, with
        diagnostics still filled in.
    """
    n = require_int("n", n, 3)
    _product_constants(n)  # refuses n above the product form's range before the start is built

    def strategy_of(z: np.ndarray) -> np.ndarray:
        logits = np.append(z, 0.0)
        e = np.exp(logits - logits.max())
        return e / e.sum()

    q = np.maximum(_limit_start(n), 2.0**-53)  # the tail starts at the unit roundoff
    z = np.log(q[:-1] / q[-1])
    p = strategy_of(z)
    c, jac_p = _kernel(p, n, n, jacobian=n)  # each point's values and Jacobian in one call
    f = c[:-1] - c[-1]
    iterations = 0
    for iterations in range(1, _NEWTON_MAX_ITER + 1):
        if np.max(np.abs(f)) <= NE_TOL:
            iterations -= 1
            break
        # chain rule through the softmax: dp_r/dz_k = p_r (delta_rk - p_k)
        dp_dz = np.diag(p)[:, : n - 1] - np.outer(p, p[: n - 1])
        jac_f = (jac_p[:-1] - jac_p[-1]) @ dp_dz
        try:
            step = np.linalg.solve(jac_f, -f)
        except np.linalg.LinAlgError:
            break
        norm0 = float(np.linalg.norm(f))
        scale = 1.0
        moved = False
        while scale > 2.0**-30:
            z_new = z + scale * step
            p_new = strategy_of(z_new)
            c_new, jac_new = _kernel(p_new, n, n, jacobian=n)
            f_new = c_new[:-1] - c_new[-1]
            if float(np.linalg.norm(f_new)) < norm0:
                z, p, c, f, jac_p = z_new, p_new, c_new, f_new, jac_new
                moved = True
                break
            scale *= 0.5
        if not moved:
            break

    return NESolution(
        strategy=Strategy(p),
        c_ne=float(np.mean(c)),
        residual=float(np.max(np.abs(f))),
        iterations=iterations,
    )


# ---------------------------------------------------------------------------
# sequential chain
# ---------------------------------------------------------------------------


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:  # NaN fails it too
        raise ValueError(f"tol must be a finite nonnegative number, got {tol}")


def _tail_root(at_tail, rest: float, c0: float) -> tuple[float | None, float, bool]:
    """Root ``T`` of ``c(T) = c0`` on ``[0, rest]`` for an increasing ``c``.

    ``at_tail(T)`` returns ``(c, dc/dT)``; ``c`` must have nonnegative
    coefficients in ``T``, so ``h(s) = log c(e^s)`` is increasing and
    convex. The endpoints classify: ``c(rest) < c0`` or ``c(0) > c0`` has
    no root, and the endpoint's ``|c - c0|`` is the exact minimum over the
    interval. Otherwise Newton's method descends from ``T = rest`` onto the
    root and stops when ``T`` no longer decreases or ``c <= c0``. Each step
    takes the lower of the Newton points of ``c(T) = c0`` and of
    ``h(s) = log c0``: both functions are convex, so neither point passes
    the root. The step in ``log T`` stays long where ``c(rest)`` exceeds
    ``c0`` by orders of magnitude; the step in ``T`` is the faster one
    where ``c`` is nearly linear, close to a root near ``T = 0``.

    Returns ``(tail, residual, all_negative)``: ``tail`` is ``None`` when
    no root exists, and ``all_negative`` tells that ``c`` stayed below
    ``c0`` over the interval.
    """
    tail = rest
    c, slope = at_tail(tail)
    if c < c0:
        return None, c0 - c, True
    floor = at_tail(0.0)[0]
    if floor > c0:
        return None, floor - c0, False
    log_c0 = math.log(c0)
    while c > c0:
        in_log = tail * math.exp((log_c0 - math.log(c)) * c / (tail * slope))
        step = max(0.0, min(tail - (c - c0) / slope, in_log))
        if not step < tail:
            break
        tail = step
        c, slope = at_tail(tail)
    return tail, abs(c - c0), False


def _run_chain(n: int, c0: float, depth: int) -> SequentialResult:
    chance = PrefixChance(n)
    entries: list[SequentialEntry] = []
    tails: list[float] = []  # T_j = 1 - p_1 - ... - p_j
    too_small = False
    tail = c0 ** (1.0 / (n - 1))  # c_1 = T_1^(n-1)
    residual = abs(chance.at_tail(tail)[0] - c0)
    for i in range(1, depth + 1):
        if i > 1:
            chance.fix(tail)
            tail, residual, all_negative = _tail_root(chance.at_tail, chance.rest, c0)
            if tail is None:
                entries.append(SequentialEntry(i, None, NO_REAL_ROOT, residual))
                too_small = not all_negative
                break
        entries.append(SequentialEntry(i, chance.rest - tail, REAL_ROOT, residual))
        tails.append(tail)
    return SequentialResult(c0, entries, tails, too_small)


def _c0_walk(is_large, width: float, guide=None):
    """Walk the win value's bracket from ``(_C0_LO, _C0_HI)``, yielding
    each point and ``is_large(point)`` until the bracket is ``width`` wide
    or no double lies inside it.

    Without ``guide`` every point is the midpoint, so walks of different
    tests and depths visit the same dyadic midpoints until their side tests
    differ. ``guide(lo, hi)`` proposes a point or None; the walk takes a
    proposal strictly inside the bracket, else the midpoint. It asks only
    while the bracket is at most ``2^(-k/2)`` of its start after ``k``
    points, and not right after a proposal that read small, so it takes at
    most twice the bisection's points, plus one.
    """
    lo, hi = _C0_LO, _C0_HI
    taken, missed = 0, False
    while hi - lo > width:
        on_pace = hi - lo <= (_C0_HI - _C0_LO) * 0.5 ** (0.5 * taken)
        point = guide(lo, hi) if guide is not None and on_pace and not missed else None
        guided = point is not None and lo < point < hi
        if not guided:
            point = 0.5 * (lo + hi)
        large = is_large(point)
        yield point, large
        if point in (lo, hi):
            return
        if large:
            hi = point
        else:
            lo = point
        taken, missed = taken + 1, guided and not large


def sequential_solve(
    n: int,
    c0: float,
    depth: int,
) -> SequentialResult:
    """Solve ``c_i = c0`` for ``p_1, p_2, ...`` one number at a time.

    ``p_1`` has the closed form ``1 - c0^(1/(n-1))``. With ``p_1..p_{i-1}``
    fixed, ``c_i`` increases with the tail mass ``T_i = R - p_i``, so each
    later equation has at most one root in ``[0, R]``: the endpoint values
    tell whether it exists, and a monotone Newton iteration from
    ``T_i = R`` finds it in a few evaluations. The next step's ``R`` is
    ``T_i``, so the remaining mass never comes from ``1 - sum p``.
    Production stops at the requested depth or at the first index with no
    real root, whichever comes first.

    Args:
        n: Number of players (``n >= 3``).
        c0: Target win value, strictly between 0 and 1.
        depth: How many numbers to solve, ``1 <= depth <= n``.
    """
    n = require_int("n", n, 3)
    if not 0.0 < c0 < 1.0:
        raise ValueError(f"the target win value must lie in (0, 1), got {c0}")
    return _run_chain(n, float(c0), require_int("depth", depth, 1, n))


def find_cne_sequential(
    n: int,
    tol: float = 1e-8,
) -> SelfConsistentSolution:
    """Locate the equilibrium win value by walking the sequential chain's ``c0``.

    A candidate ``c0`` is classified too small when some number's win
    chance stays above it even with all the remaining mass on that number
    (the probabilities would overrun total mass 1), too large otherwise:
    when the chance stays below ``c0`` with none of the mass, or when the
    complete chain leaves tail mass ``T_n > 0`` over. The walk stops at
    the first complete chain with ``T_n <= tol``, or when the ``c0``
    interval is ``1e-16`` wide or no double lies inside it. The answer is
    the smallest ``c0`` read large, the upper end of the final bracket, as
    for the upper endpoint of :func:`bound_c0` (a complete chain is never
    too small, so the early stop ends on it); :class:`ClassificationError`
    is raised with the walk's trace if its chain is not complete.

    On the complete side ``T_n`` is smooth, increasing, concave and nearly
    linear in ``c0``. Once two complete chains are known, the walk proposes
    the ``c0`` where ``T_n = 0.9 tol`` by inverse interpolation through the
    newest three (quadratic) or two (secant), with bisection as the
    safeguard, as in Brent's zero finder (*Algorithms for Minimization
    without Derivatives*, 1973, ch. 4): 14, 12, 12 and 11 points at
    ``n = 9..12``, where bisection took 27, 29, 31 and 31.

    The assembled strategy takes the first ``n - 1`` chain probabilities
    and closes the last one with the remaining mass ``T_{n-1}``, which pins
    the one entry the near-tangent final equation resolves worst.
    ``iterations`` counts the walk's points, and ``trace`` lists them.
    """
    n = require_int("n", n, 3)
    _check_tol(tol)
    chain = functools.cache(lambda c0: _run_chain(n, c0, n))
    known: list[tuple[float, float]] = []  # (T_n, c0) of each complete chain, oldest first
    aim = _GUIDE_AIM * tol

    def guide(lo: float, hi: float) -> float | None:
        # inverse interpolation of c0 at T_n = aim: quadratic through the
        # newest three, else the secant through the newest two
        for size in (3, 2):
            last = known[-size:]
            if len({t for t, _ in last}) < size:  # too few chains, or two alike in T_n
                continue
            point = sum(c0 * math.prod((aim - u) / (t - u) for u, _ in last if u != t) for t, c0 in last)
            if lo < point < hi:
                return point
        return None

    walk = _c0_walk(lambda c0: not chain(c0).too_small, 1e-16, guide)
    trace: list[tuple[float, str]] = []
    for point, large in walk:
        trace.append((point, "large" if large else "small"))
        run = chain(point)
        if run.complete:
            if run.tails[-1] <= tol:
                break
            known.append((run.tails[-1], point))
    c0 = min((mid for mid, side in trace if side == "large"), default=None)
    run = None if c0 is None else chain(c0)
    if run is None or not run.complete:
        raise ClassificationError(
            f"the walk on the win value for n={n} closed at c0={c0} without a "
            f"complete chain there; it has not found the equilibrium",
            trace,
        )
    probs = np.array(run.found)
    probs[n - 1] = run.tails[n - 2]
    return SelfConsistentSolution(c_ne=c0, strategy=Strategy(probs), sum_error=run.tails[-1], trace=trace)


def bound_c0(
    n: int,
    depth: int,
    *,
    tol: float = 1e-4,
) -> C0Interval:
    """Bracket the equilibrium win value using only a depth-``depth`` chain.

    The lower endpoint is the threshold below which the chain is too small:
    some number's win chance stays above ``c0`` even with all the remaining
    mass on it, so the probabilities would overrun total mass 1. The upper
    endpoint is the threshold above which even a uniform tail at the last
    solved probability ``p_j`` cannot reach total mass 1:
    ``(n - j) p_j < T_j``. Each is located by bisection to ``tol`` and
    rounded outward, to the violating side: the lower endpoint is the last
    too-small midpoint, the upper one the last tail-infeasible midpoint.
    Every depth bisects over the same dyadic midpoints, so where each test
    flips once in ``c0`` the interval contains the equilibrium value and
    nests inside the interval of any shallower depth. At ``depth = n`` it
    is at most ``tol`` wide down to the gap where the too-small and
    tail-infeasible walks part, which the float classification sets, not
    ``tol``: ``bound_c0(11, 11, tol=1e-12)`` is 3.6e-12 wide, and still
    2.7e-12 at ``tol=0``. The interval contains ``c_NE`` down to
    ``tol`` of about ``1e-12``; below that the float classification decides
    the endpoints, and at ``tol=0`` the full-depth interval excludes
    ``c_NE`` of both routes for most ``n`` in ``4..12``. Each candidate
    ``c0`` runs the chain once, and both tests read that run.
    """
    n = require_int("n", n, 3)
    depth = require_int("depth", depth, 1, n)
    _check_tol(tol)

    chain = functools.cache(lambda c0: _run_chain(n, c0, depth))

    def tail_infeasible(c0: float) -> bool:
        run = chain(c0)
        return (n - len(run.found)) * run.found[-1] < run.tails[-1]

    small_walk = list(_c0_walk(lambda c0: not chain(c0).too_small, tol))
    tail_walk = list(_c0_walk(tail_infeasible, tol))
    lower = max((mid for mid, large in small_walk if not large), default=_C0_LO)
    upper = min((mid for mid, large in tail_walk if large), default=_C0_HI)
    if lower >= upper:
        raise ClassificationError(
            f"the too-small and tail-infeasible thresholds cross for n={n}, "
            f"depth={depth}: [{lower}, {upper}]",
            [(mid, "large" if large else "small") for mid, large in small_walk + tail_walk],
        )
    return C0Interval(lower=float(lower), upper=float(upper), depth=depth)


# ---------------------------------------------------------------------------
# symmetric optimum and ordering identity
# ---------------------------------------------------------------------------


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row of ``v`` onto the probability simplex
    (sort-based); each row is the same to the bit as its own projection."""
    u = np.sort(v, axis=1)[:, ::-1]
    css = u.cumsum(axis=1) - 1.0
    ranks = np.arange(1, v.shape[1] + 1)
    rho = ranks[-1] - (u - css / ranks > 0.0)[:, ::-1].argmax(axis=1)  # the last rank kept
    theta = css[np.arange(len(v)), rho - 1] / rho
    return np.maximum(v - theta[:, None], 0.0)


def _payoff_floor(n: int, w: float) -> float:
    """Rounding scale of a computed payoff ``w``: the kernel's ``n eps`` relative error."""
    return n * _EPS * w


def _row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a_r . b_r`` for each row ``r``, the same to the bit as ``a_r @ b_r``
    (``np.einsum`` sums in another order)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _payoffs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Payoff ``W = c . p`` and its gradient ``c + J^T p``, less its mean,
    at each row of ``points``: one kernel call, each row the same to the
    bit as its own call."""
    n = points.shape[1]
    c, jac = _kernel(points, n, n, jacobian=n)
    column = points[:, :, None]
    g = c + (jac.swapaxes(1, 2) @ column)[:, :, 0]
    w = (c[:, None] @ column)[:, 0, 0]
    # the part along (1, ..., 1) cannot move a point of the simplex;
    # kept, it carries the rounding of sum(d) into g^T d and s^T y
    return w, g - g.mean(axis=1, keepdims=True)


def _spg_lockstep(
    starts: np.ndarray | list[np.ndarray], max_steps: int
) -> list[tuple[np.ndarray, float, int]]:
    """The SPG ascent of :func:`best_symmetric` from every start at once, as
    one array program: start ``r`` is row ``r`` of ``(k, n)`` arrays, with
    its own payoff ``w``, spectral step ``lam``, backtracking factor ``t``,
    ``max |d|``, ``g . d``, step count and ring of its last 10 payoffs.
    Each round evaluates the point every live row waits on (its start, or
    the trial point ``p + t d`` of its line search) in one kernel call, or in
    calls of at most ``_STEP_BUDGET // n^2`` points, so that one call's step
    matrices fit the kernel's budget. One masked pass over the rows then
    runs the Armijo test, halves ``t`` or accepts the trial point, forms
    ``lam``, projects ``p + lam g`` and applies the stop tests. Returns each
    start's ``(p, w, steps)`` in start order, the same to the bit as that
    start run alone."""
    p = np.array(starts, dtype=float)
    k, n = p.shape
    per_call = max(1, _STEP_BUDGET // (n * n))
    x, g, g_x, d = p.copy(), np.zeros_like(p), np.zeros_like(p), np.zeros_like(p)
    w, w_x, t, gd = np.zeros((4, k))
    lam, steps, every = np.ones(k), np.zeros(k, dtype=int), np.arange(k)
    recent = np.full((k, _SPG_MEMORY), -np.inf)
    live = np.ones(k, dtype=bool)
    while live.any():
        rows = np.flatnonzero(live)
        for lo in range(0, rows.size, per_call):
            group = rows[lo : lo + per_call]
            w_x[group], g_x[group] = _payoffs(x[group])
        # x is a trial point once a row has stepped; below the floor the
        # payoff cannot rank moves, so the trial is accepted on the gradient
        climbing = live & (steps > 0)
        back = climbing & (gd > _payoff_floor(n, w)) & (w_x < recent.max(axis=1) + _SPG_ARMIJO * t * gd)
        took, moved = live & ~back, climbing & ~back
        s = x - p
        curvature = -_row_dot(s, g_x - g)
        bent = moved & (curvature > 0.0)
        quotient = np.divide(_row_dot(s, s), curvature, out=np.full(k, _SPG_LAM_MAX), where=bent)
        lam = np.where(moved, np.minimum(np.maximum(quotient, _SPG_LAM_MIN), _SPG_LAM_MAX), lam)
        np.copyto(p, x, where=took[:, None])
        np.copyto(g, g_x, where=took[:, None])
        w = np.where(took, w_x, w)
        recent[every, (steps - 1 + took) % _SPG_MEMORY] = w  # a backtracking row rewrites its w in place
        step = took & (steps < max_steps)
        steps += step
        np.copyto(d, _project_to_simplex(p + lam[:, None] * g) - p, where=step[:, None])
        size, gd = np.abs(d).max(axis=1), _row_dot(g, d)
        t = np.where(step, 1.0, np.where(back, 0.5 * t, t))
        # a start ends out of steps, on no move, on no ascent, or when its line search fails
        live = (back & (t * size > _SPG_STILL)) | (step & (size > _SPG_STILL) & (gd > 0.0))
        x = p + t[:, None] * d
    return [(p[r].copy(), float(w[r]), int(steps[r])) for r in range(k)]


def best_symmetric(n: int, *, seed: int = 20240917) -> SymmetricOptimum:
    """Maximize the everyone-plays-it payoff over the probability simplex.

    Spectral projected gradient (SPG2 of Birgin, Martinez and Raydan, SIAM
    J. Optim. 2000) on the analytic gradient ``g = c + J^T p`` of
    ``W(p) = sum_i p_i c_i(p)``, less its mean (the part along
    ``(1, ..., 1)`` does not move a point of the simplex), multi-start from the uniform strategy plus
    10 seeded random interior points. Each step projects
    ``p + lam g`` onto the simplex once, backtracks along the resulting
    direction ``d`` under the nonmonotone Armijo test against the best of
    the last 10 payoffs, and takes the next ``lam`` from the
    Barzilai-Borwein quotient ``s^T s / (-s^T y)``. ``W`` is invariant
    under relabelling the numbers, so at the uniform strategy its Hessian
    on the simplex is a multiple of the identity and that quotient is the
    Newton step. A start stops when ``max |d| <= 1e-13``, when ``d`` is no
    ascent direction, when the line search fails, or after 500 steps.

    The payoff is known only to its rounding floor ``n eps W``. Once the
    predicted gain ``g^T d`` falls below it the payoff cannot rank moves, so
    the step is accepted on the gradient alone, which stays accurate. Every
    start reaches the same maximizer, and a later start replaces the best
    so far only by beating it by more than the floor, so a rounding tie
    keeps the uniform start, which comes first.

    The starts climb in lockstep as one array program, each row as it would
    alone: a round evaluates the point every unfinished start waits on (its
    start point, or a trial point of its line search) in one stacked kernel
    call, whose rows are the same to the bit as one call per point, and one
    masked numpy pass then takes every row's Armijo test, spectral step and
    projection. Up to ``n = 77`` one call takes all 11 starts, and from
    ``n = 256`` one point, so that a call's step matrices stay within the
    kernel's budget. At ``n = 10`` the 99 steps take 11 rounds, 12 kernel
    calls with the compensated payoff, where one call per point made 100.

    ``iterations`` counts the steps over all starts, each start's closing
    stationarity check included. This is a confirmation tool, not an
    equilibrium: the maximizer is the uniform strategy, which no
    self-interested player sticks to.
    """
    n = require_int("n", n, 3)
    seed = require_int("seed", seed, 0)
    _product_constants(n)  # refuses n above the product form's range before the starts are built
    raw = np.random.default_rng(seed).random((_SPG_RESTARTS, n)) + 0.1  # the numbers of one random(n) per restart
    starts = np.vstack([np.full((1, n), 1.0 / n), raw / raw.sum(axis=1, keepdims=True)])

    best_p: np.ndarray | None = None
    best_w = -math.inf
    total_steps = 0
    for p, w, steps in _spg_lockstep(starts, _SPG_MAX_STEPS):
        total_steps += steps
        if best_p is None or w > best_w + _payoff_floor(n, best_w):
            best_p, best_w = p, w
    assert best_p is not None
    best_w = math.fsum(_kernel(best_p, n, n) * best_p)  # report the compensated value
    return SymmetricOptimum(
        strategy=Strategy(best_p), w=best_w, starts=len(starts), iterations=total_steps
    )


def verify_ordering_inequality(p: Strategy) -> bool:
    """Check the identity equating the first two win chances at equilibrium.

    Setting ``c_1 = c_2`` rearranges to
    ``(1 - p_2)^(n-1) - (1 - p_1)^(n-1) = (n-1) p_1 (1 - p_1 - p_2)^(n-2)``;
    the right side is positive for an interior strategy, which forces
    ``p_2 < p_1``. Returns True when the identity holds within ``1e-9`` and
    the ordering is strict. The uniform strategy fails it: the left side
    vanishes while the right side does not.
    """
    n = p.n
    p1, p2 = float(p.probs[0]), float(p.probs[1])
    lhs = (1.0 - p2) ** (n - 1) - (1.0 - p1) ** (n - 1)
    rhs = (n - 1) * p1 * (1.0 - p1 - p2) ** (n - 2)
    return abs(lhs - rhs) <= _ORDERING_TOL and p2 < p1
