"""Equilibrium-finding procedures.

Two independent routes to the symmetric equilibrium, plus the supporting
machinery around them:

* :func:`solve_ne` equalizes all per-number win chances simultaneously with
  a damped Newton iteration started from the uniform strategy.
* :func:`sequential_solve` fixes a target win value ``c0`` and solves for
  ``p_1, p_2, ...`` one number at a time; :func:`find_cne_sequential`
  bisects ``c0`` until the chain's probabilities close to total mass 1, and
  :func:`bound_c0` turns shallow chains into a rigorous interval for the
  equilibrium win value.
* :func:`best_symmetric` maximizes the everyone-plays-it payoff over the
  simplex, and :func:`verify_ordering_inequality` checks the identity that
  forces the equilibrium to put more mass on 1 than on 2.

The two equilibrium routes share only the win-probability evaluator, so
their agreement is a meaningful cross-check.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .config import NE_PLAYER_CAP_DEFAULT, ClassificationError, ResourceLimitError
from .game import Strategy
from .winprob import PrefixChance, _check_cap, _kernel

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
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
    is ``|c_i - c0|`` at the root, or the smallest value attainable over the
    interval when no real root exists; that minimum shrinks as ``c0``
    approaches the equilibrium value, mirroring the shrinking imaginary part
    of the complex root it shadows.
    """

    i: int
    p_i: float | None
    status: str
    residual: float

    def to_json_obj(self) -> dict:
        return {"i": self.i, "p_i": self.p_i, "status": self.status, "residual": self.residual}


@dataclass(frozen=True)
class SequentialResult:
    """Outcome of a depth-limited sequential solve."""

    c0: float
    entries: list[SequentialEntry]
    prefix_sum: float

    @property
    def found(self) -> list[float]:
        return [e.p_i for e in self.entries if e.p_i is not None]

    @property
    def complete(self) -> bool:
        return all(e.status == REAL_ROOT for e in self.entries)

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


# ---------------------------------------------------------------------------
# simultaneous Newton solve
# ---------------------------------------------------------------------------


def solve_ne(
    n: int,
    tol: float = 1e-12,
    max_iter: int = 200,
    *,
    n_max: int | None = None,
    cap: int | None = None,
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
        cap: Override of the subset-enumeration cap.

    Returns:
        An :class:`NESolution`; ``converged`` is False when the budget or
        the damping floor was hit, with diagnostics still filled in.
    """
    if int(n) != n or n < 3:
        raise ValueError(f"the game is defined for n >= 3 players, got n={n}")
    limit = NE_PLAYER_CAP_DEFAULT if n_max is None else n_max
    if n > limit:
        raise ResourceLimitError(
            f"equilibrium solve for n={n} is above the practical cap n={limit}"
        )

    def strategy_of(z: np.ndarray) -> np.ndarray:
        logits = np.append(z, 0.0)
        e = np.exp(logits - logits.max())
        return e / e.sum()

    _check_cap(n, cap)
    z = np.zeros(n - 1)
    p = strategy_of(z)
    c = _kernel(p, n, n)
    f = c[:-1] - c[-1]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if np.max(np.abs(f)) <= tol:
            iterations -= 1
            break
        _, jac_p = _kernel(p, n, n, jacobian=n)
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
            c_new = _kernel(p_new, n, n)
            f_new = c_new[:-1] - c_new[-1]
            if float(np.linalg.norm(f_new)) < norm0:
                z, p, c, f = z_new, p_new, c_new, f_new
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


def _bisect_root(func, a: float, b: float, fa: float) -> float:
    """Plain bisection inside a sign-change bracket."""
    for _ in range(200):
        mid = 0.5 * (a + b)
        fm = func(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
        if b - a <= 1e-15 * max(1.0, abs(b)):
            break
    return 0.5 * (a + b)


def _refine_extremum(func, a: float, b: float, minimize: bool) -> tuple[float, float]:
    """Golden-section extremum of ``func`` on ``[a, b]``; returns (x, f(x))."""
    sign = 1.0 if minimize else -1.0
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = sign * func(c)
    fd = sign * func(d)
    for _ in range(120):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = sign * func(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = sign * func(d)
        if b - a <= 1e-18:
            break
    if fc < fd:
        return c, sign * fc
    return d, sign * fd


def _first_root(f, upper: float, grid_points: int) -> tuple[float | None, float, bool]:
    """First root of ``f`` on the open interval ``(0, upper)``.

    ``f`` takes an array of points or a float. Scans an equally spaced
    interior grid, with ``f(0)`` in front of it, for a sign change and
    bisects the first one (the smallest root). With no sign change, the
    extremum nearest zero is polished by golden section: near-tangent
    crossings dip below the grid resolution and would otherwise be missed.
    Only a bracket whose ends differ in sign is bisected.

    Returns ``(root, residual, all_negative)`` where ``root`` is ``None``
    when no real crossing exists; ``residual`` is then the smallest ``|f|``
    attained over the interval, and ``all_negative`` tells which side of
    zero the function stayed on.
    """
    xs = upper * np.arange(1, grid_points + 1) / (grid_points + 1)
    fs = f(xs)
    f0 = float(f(0.0))
    if f0 * fs[0] < 0.0:
        # the first crossing lies left of the grid
        root = _bisect_root(f, 0.0, float(xs[0]), f0)
        return root, abs(f(root)), False

    exact = np.flatnonzero(fs == 0.0)
    change = np.flatnonzero(fs[:-1] * fs[1:] < 0.0)
    first_exact = int(exact[0]) if exact.size else None
    first_change = int(change[0]) if change.size else None
    if first_exact is not None and (first_change is None or first_exact <= first_change):
        x = float(xs[first_exact])
        return x, abs(f(x)), False
    if first_change is not None:
        k = first_change
        root = _bisect_root(f, float(xs[k]), float(xs[k + 1]), float(fs[k]))
        return root, abs(f(root)), False

    positive = bool(fs[0] > 0.0)
    k = int(np.argmin(np.abs(fs)))
    a = float(xs[k - 1]) if k > 0 else 0.0
    b = float(xs[k + 1]) if k < grid_points - 1 else upper
    x_star, f_star = _refine_extremum(f, a, b, minimize=positive)
    f_a = f(a)
    if f_a * f_star < 0.0:
        # hidden dip or bump: the first crossing sits just left of the refined point
        root = _bisect_root(f, a, x_star, f_a)
        return root, abs(f(root)), False
    residual = min(abs(f_star), float(np.min(np.abs(fs))))
    return None, residual, not positive


@dataclass
class _ChainState:
    """Internal outcome of one sequential chain run."""

    chance: PrefixChance  # its prefix holds the solved p_1, p_2, ...
    entries: list[SequentialEntry] = field(default_factory=list)
    all_negative: bool = False  # set when the failing index stayed below c0


def _run_chain(n: int, c0: float, depth: int, grid_points: int, cap: int | None) -> _ChainState:
    chance = PrefixChance(n, cap)
    state = _ChainState(chance)
    p1 = 1.0 - c0 ** (1.0 / (n - 1))
    state.entries.append(SequentialEntry(1, p1, REAL_ROOT, abs(chance(p1) - c0)))
    chance.fix(p1)
    for i in range(2, depth + 1):
        root, residual, all_neg = _first_root(lambda x: chance(x) - c0, chance.rest, grid_points)
        if root is None:
            state.entries.append(SequentialEntry(i, None, NO_REAL_ROOT, residual))
            state.all_negative = all_neg
            break
        state.entries.append(SequentialEntry(i, root, REAL_ROOT, residual))
        chance.fix(root)
    return state


def sequential_solve(
    n: int,
    c0: float,
    depth: int,
    *,
    grid_points: int = 1024,
    cap: int | None = None,
) -> SequentialResult:
    """Solve ``c_i = c0`` for ``p_1, p_2, ...`` one number at a time.

    ``p_1`` has the closed form ``1 - c0^(1/(n-1))``; each later ``p_i`` is
    the first root of ``c_i(p_1..p_i) = c0`` in the open interval
    ``(0, 1 - sum found so far)``, located by a sign scan over an interior
    grid followed by bisection. Production stops at the requested depth or
    at the first index with no real root, whichever comes first.

    Args:
        n: Number of players (``n >= 3``).
        c0: Target win value, strictly between 0 and 1.
        depth: How many numbers to solve, ``1 <= depth <= n``.
        grid_points: Sign-scan resolution of the root bracket.
        cap: Override of the subset-enumeration cap.
    """
    if int(n) != n or n < 3:
        raise ValueError(f"the game is defined for n >= 3 players, got n={n}")
    if not 0.0 < c0 < 1.0:
        raise ValueError(f"the target win value must lie in (0, 1), got {c0}")
    if int(depth) != depth or not 1 <= depth <= n:
        raise ValueError(f"depth {depth} outside 1..{n}")
    state = _run_chain(n, float(c0), depth, grid_points, cap)
    return SequentialResult(
        c0=float(c0), entries=state.entries, prefix_sum=math.fsum(state.chance.prefix)
    )


def _classify_incomplete(state: _ChainState, n: int) -> str:
    """Which side of the self-consistent value an early-stopped chain is on.

    A failing index whose win chance stayed below ``c0`` everywhere means no
    admissible probability wins often enough: ``c0`` too large. Otherwise
    the uniform-tail feasibility sum at the last solved index decides: if
    even ``sum + (n - j) p_j`` cannot reach 1 the chain is infeasible
    (again too large), while a feasible partial chain that still ran out of
    real roots was headed past total mass 1 (too small).
    """
    if state.all_negative:
        return "large"
    j = len(state.chance.prefix)
    feasibility = math.fsum(state.chance.prefix) + (n - j) * state.chance.prefix[-1] - 1.0
    return "small" if feasibility >= 0.0 else "large"


def find_cne_sequential(
    n: int,
    tol: float = 1e-8,
    *,
    grid_points: int = 1024,
    cap: int | None = None,
    max_bisections: int = 200,
) -> SelfConsistentSolution:
    """Locate the equilibrium win value by bisecting the sequential chain.

    A candidate ``c0`` is classified too small when the chain's
    probabilities overrun the total mass (or its feasibility sum says they
    would), too large when they cannot add up to 1. Bisection stops at the
    first complete chain whose total mass is within ``tol`` of 1, or when
    the ``c0`` interval collapses to machine width; the best complete chain
    seen is returned either way.

    The assembled strategy takes the first ``n - 1`` chain probabilities
    and closes the last one by normalization, which pins the one entry the
    near-tangent final equation resolves worst.
    """
    if int(n) != n or n < 3:
        raise ValueError(f"the game is defined for n >= 3 players, got n={n}")
    lo, hi = _C0_LO, _C0_HI
    trace: list[tuple[float, str]] = []
    best: tuple[float, float, list[float]] | None = None  # (sum_error, c0, prefix)
    iterations = 0
    for iterations in range(1, max_bisections + 1):
        mid = 0.5 * (lo + hi)
        state = _run_chain(n, mid, n, grid_points, cap)
        if len(state.chance.prefix) == n:
            total = math.fsum(state.chance.prefix)
            err = abs(total - 1.0)
            if best is None or err < best[0]:
                best = (err, mid, list(state.chance.prefix))
            if err <= tol:
                break
            side = "small" if total > 1.0 else "large"
        else:
            side = _classify_incomplete(state, n)
        trace.append((mid, side))
        if side == "small":
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * max(1.0, hi):
            break
    if best is None:
        raise ClassificationError(
            f"bisection on the win value for n={n} never produced a complete "
            f"chain; the too-small/too-large signal is inconsistent",
            trace,
        )
    sum_error, c0, prefix = best
    probs = np.array(prefix)
    probs[n - 1] = 1.0 - math.fsum(prefix[: n - 1])
    return SelfConsistentSolution(
        c_ne=c0, strategy=Strategy(probs), sum_error=sum_error, iterations=iterations
    )


def bound_c0(
    n: int,
    depth: int,
    *,
    tol: float = 1e-4,
    grid_points: int = 1024,
    cap: int | None = None,
) -> C0Interval:
    """Bracket the equilibrium win value using only a depth-``depth`` chain.

    The lower endpoint is the threshold below which the chain stops
    producing real roots (the probabilities would overrun the total mass);
    the upper endpoint is the threshold above which even a uniform tail at
    the last solved probability cannot reach total mass 1. Both are located
    by bisection to ``tol``; the returned interval takes the outer
    (violating) side of the lower threshold and the satisfying side of the
    upper one, so the equilibrium value is contained by construction.
    """
    if int(n) != n or n < 3:
        raise ValueError(f"the game is defined for n >= 3 players, got n={n}")
    if int(depth) != depth or not 1 <= depth <= n:
        raise ValueError(f"depth {depth} outside 1..{n}")

    def chain(c0: float) -> _ChainState:
        return _run_chain(n, c0, depth, grid_points, cap)

    def exists(c0: float) -> bool:
        return len(chain(c0).chance.prefix) == depth

    def tail_feasible(c0: float) -> bool:
        state = chain(c0)
        j = len(state.chance.prefix)
        return math.fsum(state.chance.prefix) + (n - j) * state.chance.prefix[-1] >= 1.0

    scan = np.linspace(0.01, 0.95, 48)

    seed_exists = next((float(c) for c in scan if exists(c)), None)
    if seed_exists is None:
        raise ClassificationError(
            f"no candidate win value admits a depth-{depth} chain for n={n}", []
        )
    if exists(_C0_LO):
        lower = _C0_LO  # the chain exists arbitrarily close to 0 (depth 1 does)
    else:
        bad, good = _C0_LO, seed_exists
        while good - bad > tol:
            mid = 0.5 * (bad + good)
            if exists(mid):
                good = mid
            else:
                bad = mid
        lower = bad

    feasible = [float(c) for c in scan if tail_feasible(c)]
    if not feasible:
        raise ClassificationError(
            f"no candidate win value satisfies the uniform-tail sum for "
            f"n={n}, depth={depth}",
            [],
        )
    good, bad = max(feasible), _C0_HI
    if tail_feasible(bad):
        upper = bad
    else:
        while bad - good > tol:
            mid = 0.5 * (good + bad)
            if tail_feasible(mid):
                good = mid
            else:
                bad = mid
        upper = good

    # re-verify the endpoint semantics after bisection: the lower endpoint
    # must violate existence, the upper endpoint must satisfy the tail sum
    if lower > _C0_LO and exists(lower):
        lower = max(_C0_LO, lower - tol)
    if upper < _C0_HI and not tail_feasible(upper):
        upper -= tol

    if lower >= upper:  # depth == n pinches the interval to the equilibrium value
        lower, upper = min(lower, upper) - tol, max(lower, upper) + tol
    return C0Interval(lower=float(lower), upper=float(upper), depth=int(depth))


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

    def payoff(p: np.ndarray) -> float:
        return float(_kernel(p, n, n) @ p)

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
            w_t = payoff(trial)
        if t * size <= _SPG_STILL:
            break
        if t < 1.0:
            w_t, g_t = payoff_and_gradient(trial)
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
    cap: int | None = None,
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
    if int(n) != n or n < 3:
        raise ValueError(f"the game is defined for n >= 3 players, got n={n}")
    _check_cap(n, cap)
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
