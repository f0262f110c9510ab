"""Equilibrium-finding procedures.

Two independent routes to the symmetric equilibrium, plus the supporting
machinery around them:

* :func:`solve_ne` equalizes all per-number win chances simultaneously with
  a damped Newton iteration started from the uniform strategy.
* :func:`sequential_solve` fixes a target win value ``c0`` and solves for
  ``p_1, p_2, ...`` one number at a time, each by a monotone Newton
  iteration in the remaining tail mass; :func:`find_cne_sequential`
  bisects ``c0`` until the chain's probabilities close to total mass 1, and
  :func:`bound_c0` turns shallow chains into an interval for the
  equilibrium win value, which contains it down to ``tol`` of about
  ``1e-12``, as far as the chain's float classification goes.
* :func:`best_symmetric` maximizes the everyone-plays-it payoff over the
  simplex, and :func:`verify_ordering_inequality` checks the identity that
  forces the equilibrium to put more mass on 1 than on 2.

The two equilibrium routes share only the win-probability evaluator, so
their agreement is a meaningful cross-check.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import NE_PLAYER_CAP_DEFAULT, ClassificationError, require_cap, require_int
from .game import Strategy
from .winprob import PrefixChance, _kernel

_EPS = float(np.finfo(float).eps)

# spectral projected gradient (best_symmetric): nonmonotone memory, Armijo
# fraction, spectral step clamp, and the displacement that counts as no move
_SPG_MEMORY = 10
_SPG_ARMIJO = 1e-4
_SPG_LAM_MIN, _SPG_LAM_MAX = 1e-10, 1e10
_SPG_STILL = 1e-13

# Endpoints for bisections over the win value c0; a win probability of
# exactly 0 or 1 is never an equilibrium value.
_C0_LO = 1e-9
_C0_HI = 1.0 - 1e-9

REAL_ROOT = "real-root"
NO_REAL_ROOT = "no-real-root"


@dataclass(frozen=True)
class NESolution:
    """A solved symmetric equilibrium.

    ``residual`` is the largest spread ``|c_i - c_n|`` over the numbers at
    the returned strategy; ``converged`` means it met the solver tolerance.
    """

    strategy: Strategy
    c_ne: float
    residual: float
    iterations: int
    converged: bool

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
    """Equilibrium located by bisecting the sequential chain on ``c0``."""

    c_ne: float
    strategy: Strategy
    sum_error: float
    iterations: int


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


def _check_tol(tol: float) -> None:
    if not 0.0 <= tol < math.inf:  # NaN fails it too
        raise ValueError(f"tol must be a finite nonnegative number, got {tol}")


def solve_ne(
    n: int,
    tol: float = 1e-12,
    max_iter: int = 200,
    *,
    n_max: int | None = None,
) -> NESolution:
    """Solve the symmetric equilibrium: every number wins equally often.

    The system is ``c_i(p) - c_n(p) = 0`` for ``i = 1..n-1``. The strategy
    is parametrized as a softmax over ``n - 1`` free coordinates (the last
    logit pinned to 0), which encodes the normalization's n-1 degrees of
    freedom and keeps every Newton iterate strictly inside the simplex; the
    equilibrium's tail probabilities are within a whisker of 0 and plain
    simplex coordinates stall on that boundary. The iteration starts at the
    uniform strategy (all logits 0) and halves the step until the residual
    norm decreases.

    Args:
        n: Number of players, ``3 <= n <= n_max`` (default cap 20).
        tol: Convergence threshold on ``max_i |c_i - c_n|``.
        max_iter: Newton iteration budget.
        n_max: Override of the player cap.

    Returns:
        An :class:`NESolution`; ``converged`` is False when the budget or
        the damping floor was hit, with diagnostics still filled in.
    """
    n = require_int("n", n, 3)
    _check_tol(tol)
    max_iter = require_int("max_iter", max_iter, 0)
    require_cap(n, "n_max", n_max, NE_PLAYER_CAP_DEFAULT, "equilibrium solve")

    def strategy_of(z: np.ndarray) -> np.ndarray:
        logits = np.append(z, 0.0)
        e = np.exp(logits - logits.max())
        return e / e.sum()

    z = np.zeros(n - 1)
    p = strategy_of(z)
    c, jac_p = _kernel(p, n, n, jacobian=n)  # each point's values and Jacobian in one call
    f = c[:-1] - c[-1]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(f)) <= tol:
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

    residual = float(np.max(np.abs(f)))
    return NESolution(
        strategy=Strategy(p),
        c_ne=float(np.mean(c)),
        residual=residual,
        iterations=iterations,
        converged=residual <= tol,
    )


# ---------------------------------------------------------------------------
# sequential chain
# ---------------------------------------------------------------------------


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
            chance.fix(entries[-1].p_i, rest=tail)
            tail, residual, all_negative = _tail_root(chance.at_tail, chance.rest, c0)
            if tail is None:
                entries.append(SequentialEntry(i, None, NO_REAL_ROOT, residual))
                too_small = not all_negative
                break
        entries.append(SequentialEntry(i, chance.rest - tail, REAL_ROOT, residual))
        tails.append(tail)
    return SequentialResult(c0, entries, tails, too_small)


def _c0_walk(is_large, width: float):
    """Bisect the win value over ``(_C0_LO, _C0_HI)``, yielding each midpoint
    ``0.5 (lo + hi)`` and ``is_large(mid)`` until the bracket is ``width``
    wide or no double lies inside it. Walks of different tests and depths
    visit the same dyadic midpoints until their side tests differ."""
    lo, hi = _C0_LO, _C0_HI
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        large = is_large(mid)
        yield mid, large
        if mid in (lo, hi):
            return
        if large:
            hi = mid
        else:
            lo = mid


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
    """Locate the equilibrium win value by bisecting the sequential chain.

    A candidate ``c0`` is classified too small when some number's win
    chance stays above it even with all the remaining mass on that number
    (the probabilities would overrun total mass 1), too large otherwise:
    when the chance stays below ``c0`` with none of the mass, or when the
    complete chain leaves tail mass ``T_n > 0`` over. Bisection stops at
    the first complete chain with ``T_n <= tol``, or when the ``c0``
    interval is ``1e-16`` wide or no double lies inside it; the best
    complete chain seen is returned either way.

    The assembled strategy takes the first ``n - 1`` chain probabilities
    and closes the last one with the remaining mass ``T_{n-1}``, which pins
    the one entry the near-tangent final equation resolves worst.
    """
    n = require_int("n", n, 3)
    _check_tol(tol)
    chain = functools.cache(lambda c0: _run_chain(n, c0, n))
    walk = _c0_walk(lambda c0: not chain(c0).too_small, 1e-16)
    trace: list[tuple[float, str]] = []
    best: tuple[float, float, SequentialResult] | None = None  # (sum_error, c0, chain)
    for iterations, (mid, large) in enumerate(walk, 1):
        run = chain(mid)
        if run.complete:
            err = run.tails[-1]
            if best is None or err < best[0]:
                best = (err, mid, run)
            if err <= tol:
                break
        trace.append((mid, "large" if large else "small"))
    if best is None:
        raise ClassificationError(
            f"bisection on the win value for n={n} never produced a complete "
            f"chain; the too-small/too-large signal is inconsistent",
            trace,
        )
    sum_error, c0, run = best
    probs = np.array(run.found)
    probs[n - 1] = run.tails[n - 2]
    return SelfConsistentSolution(
        c_ne=c0, strategy=Strategy(probs), sum_error=sum_error, iterations=iterations
    )


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
    """Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    mask = u - css / ranks > 0.0
    rho = int(ranks[mask][-1])
    theta = css[mask][-1] / rho
    return np.maximum(v - theta, 0.0)


def _payoff_floor(n: int, w: float) -> float:
    """Rounding scale of a computed payoff ``w``: the kernel's ``n eps`` relative error."""
    return n * _EPS * w


def _spg_ascent(p: np.ndarray, max_steps: int) -> tuple[np.ndarray, float, int]:
    """One start of :func:`best_symmetric`: the point reached, its payoff and the steps."""
    n = p.size

    def payoff_and_gradient(p: np.ndarray) -> tuple[float, np.ndarray]:
        c, jac = _kernel(p, n, n, jacobian=n)
        g = c + jac.T @ p
        # the part along (1, ..., 1) cannot move a point of the simplex;
        # kept, it carries the rounding of sum(d) into g^T d and s^T y
        return float(c @ p), g - g.mean()

    w, g = payoff_and_gradient(p)
    recent = deque([w], maxlen=_SPG_MEMORY)
    lam = 1.0
    steps = 0
    while steps < max_steps:
        steps += 1
        d = _project_to_simplex(p + lam * g) - p
        size, gd = float(np.max(np.abs(d))), float(g @ d)
        if size <= _SPG_STILL or gd <= 0.0:
            break
        t, trial = 1.0, p + d
        w_t, g_t = payoff_and_gradient(trial)  # most steps are accepted at t = 1
        # below the floor the payoff cannot rank moves: accept on the gradient
        while gd > _payoff_floor(n, w) and w_t < max(recent) + _SPG_ARMIJO * t * gd:
            t *= 0.5
            if t * size <= _SPG_STILL:
                break
            trial = p + t * d
            w_t, g_t = payoff_and_gradient(trial)
        if t * size <= _SPG_STILL:
            break
        s, y = trial - p, g_t - g
        curvature = -float(s @ y)
        lam = _SPG_LAM_MAX
        if curvature > 0.0:
            lam = min(max(float(s @ s) / curvature, _SPG_LAM_MIN), _SPG_LAM_MAX)
        p, w, g = trial, w_t, g_t
        recent.append(w)
    return p, w, steps


def best_symmetric(
    n: int,
    *,
    restarts: int = 10,
    max_steps: int = 500,
    seed: int = 20240917,
) -> SymmetricOptimum:
    """Maximize the everyone-plays-it payoff over the probability simplex.

    Spectral projected gradient (SPG2 of Birgin, Martinez and Raydan, SIAM
    J. Optim. 2000) on the analytic gradient ``g = c + J^T p`` of
    ``W(p) = sum_i p_i c_i(p)``, less its mean (the part along
    ``(1, ..., 1)`` does not move a point of the simplex), multi-start from the uniform strategy plus
    ``restarts`` seeded random interior points. Each step projects
    ``p + lam g`` onto the simplex once, backtracks along the resulting
    direction ``d`` under the nonmonotone Armijo test against the best of
    the last 10 payoffs, and takes the next ``lam`` from the
    Barzilai-Borwein quotient ``s^T s / (-s^T y)``. ``W`` is invariant
    under relabelling the numbers, so at the uniform strategy its Hessian
    on the simplex is a multiple of the identity and that quotient is the
    Newton step. A start stops when ``max |d| <= 1e-13``, when ``d`` is no
    ascent direction, when the line search fails, or after ``max_steps``.

    The payoff is known only to its rounding floor ``n eps W``. Once the
    predicted gain ``g^T d`` falls below it the payoff cannot rank moves, so
    the step is accepted on the gradient alone, which stays accurate. Every
    start reaches the same maximizer, and a later start replaces the best
    so far only by beating it by more than the floor, so a rounding tie
    keeps the uniform start, which comes first.

    ``iterations`` counts the steps over all starts, each start's closing
    stationarity check included. This is a confirmation tool, not an
    equilibrium: the maximizer is the uniform strategy, which no
    self-interested player sticks to.
    """
    n = require_int("n", n, 3)
    restarts = require_int("restarts", restarts, 0)
    max_steps = require_int("max_steps", max_steps, 0)
    rng = np.random.default_rng(seed)
    starts = [np.full(n, 1.0 / n)]
    for _ in range(restarts):
        raw = rng.random(n) + 0.1
        starts.append(raw / raw.sum())

    best_p: np.ndarray | None = None
    best_w = -math.inf
    total_steps = 0
    for p0 in starts:
        p, w, steps = _spg_ascent(p0, max_steps)
        total_steps += steps
        if best_p is None or w > best_w + _payoff_floor(n, best_w):
            best_p, best_w = p, w
    assert best_p is not None
    best_w = math.fsum(_kernel(best_p, n, n) * best_p)  # report the compensated value
    return SymmetricOptimum(
        strategy=Strategy(best_p), w=best_w, starts=len(starts), iterations=total_steps
    )


def verify_ordering_inequality(p: Strategy, *, tol: float = 1e-9) -> bool:
    """Check the identity equating the first two win chances at equilibrium.

    Setting ``c_1 = c_2`` rearranges to
    ``(1 - p_2)^(n-1) - (1 - p_1)^(n-1) = (n-1) p_1 (1 - p_1 - p_2)^(n-2)``;
    the right side is positive for an interior strategy, which forces
    ``p_2 < p_1``. Returns True when the identity holds within ``tol`` and
    the ordering is strict. The uniform strategy fails it: the left side
    vanishes while the right side does not.
    """
    n = p.n
    p1, p2 = float(p.probs[0]), float(p.probs[1])
    lhs = (1.0 - p2) ** (n - 1) - (1.0 - p1) ** (n - 1)
    rhs = (n - 1) * p1 * (1.0 - p1 - p2) ** (n - 2)
    return abs(lhs - rhs) <= tol and p2 < p1
