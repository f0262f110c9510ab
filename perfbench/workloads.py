"""The four benchmark workloads and the checks on their results.

Each workload builds its inputs from the seed, then hands the runner a list
of tasks. A task makes one or more calls into lupi's public API through
``Runner.op``, which times the call and then checks the result with a second
route (enumeration, exact polynomials, an asymptote, a simulation, or the
other equilibrium solver). A failed check is a failed operation; the run
goes on.

``replays`` holds the calls made only in a traced run: the win-chance
kernel re-run at the solved strategies and the CLI's bare process start.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from statistics import NormalDist
from typing import Callable

import numpy as np

import lupi
from lupi import Strategy

NE_SIZES = (12, 13, 14, 15, 16, 17)
BESTSYM_SIZES = (8, 10)
CNE_SIZES = (9, 10, 11, 12)
BOUNDS = ((9, 4), (12, 6))
CHAIN = (9, 0.0985, 4)  # sequential_solve(n, c0, depth)
ENUM_STRATEGIES = {9: 4, 10: 4}  # seeded random strategies per n
POLY_POINTS = {7: 3, 8: 2}  # seeded rational points per n
LARGE_N = (10**4, 10**6)
LARGE_N_DEPTH = 20
SIMULATIONS = {5: 2 * 10**6, 12: 10**6}  # rounds at the n=5 equilibrium, under uniform(12)
REPEAT_ROUNDS = 20_000
CLI_N_LIST = ",".join(str(n) for n in range(3, 15))
CLI_WARM_RUNS = 20

SPREAD_TOL = 1e-10  # c_i spread at a solved equilibrium
CNE_TOL = 1e-6  # Newton vs sequential-chain win value
UNIFORM_TOL = 1e-6  # best_symmetric vs the uniform strategy
AGREE_TOL = 1e-12  # closed form vs enumeration and vs exact polynomials
ASYMPTOTE_TOL = 1e-3  # large-n closed form vs its e^-1 (1 - e^-1)^(i-1) limit
JACOBIAN_TOL = 1e-7  # analytic vs central-difference directional derivative
# two-sided tail of one 4-sigma test; simulation checks share it across
# their estimates (Bonferroni), so a run with k estimates tests each at
# the z that keeps the family-wise false-alarm rate at this value
FOUR_SIGMA_TAIL = 2.0 * (1.0 - NormalDist().cdf(4.0))


@dataclass(frozen=True)
class Task:
    """One named unit of timed work; ``group`` is the end-to-end metric it adds to."""

    name: str
    group: str | None
    fn: Callable
    units: int = 0  # simulated rounds, for rate metrics


def _spread(values) -> float:
    return float(np.max(values) - np.min(values))


def _random_strategy(rng: np.random.Generator, n: int) -> Strategy:
    raw = rng.random(n) + 0.05
    return Strategy(raw / raw.sum())


def _rational_point(rng: np.random.Generator, n: int) -> list[Fraction]:
    weights = [int(w) for w in rng.integers(1, 10, size=n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def _ne_problem(sol) -> str | None:
    if not sol.converged:
        return f"no convergence: residual {sol.residual:.3e} after {sol.iterations} iterations"
    spread = _spread(lupi.win_prob_vector(sol.strategy).values)
    if spread > SPREAD_TOL:
        return f"c_i spread {spread:.3e} > {SPREAD_TOL:g}"
    return None


def _sigma_problem(stats, c: np.ndarray, w: float) -> str | None:
    """Every per-number estimate and the overall win rate within 4 sigma, family-wise."""
    pairs = [(est, err, c[k]) for k, (est, err) in enumerate(zip(stats.est_ci, stats.std_err))
             if est is not None]
    pairs.append((stats.w_estimate, stats.w_std_err, w))
    z_max = NormalDist().inv_cdf(1.0 - FOUR_SIGMA_TAIL / (2 * len(pairs)))
    for est, err, expected in pairs:
        if abs(est - expected) > z_max * max(err, 1e-300):
            return f"estimate {est:.6g} vs {expected:.6g} is beyond {z_max:.2f} sigma ({err:.3g})"
    return None


class Workload:
    """Seeded inputs (built in ``__init__``), a warm-up call, and the tasks of one pass."""

    name = ""

    def warm_up(self) -> None:
        raise NotImplementedError

    def tasks(self) -> list[Task]:
        raise NotImplementedError

    def replays(self, r) -> None:
        """Calls made only in a traced run, for per-layer metrics."""

    def derived(self, m: dict) -> dict:
        """Per-layer metrics computed from the measured ones in ``m``."""
        return {}


class Equilibrium(Workload):
    """Newton solves n = 12..17 and best_symmetric n = 8, 10."""

    name = "equilibrium"

    def __init__(self, seed: int, ctx) -> None:
        rng = np.random.default_rng([seed, 1])
        self.bestsym_seeds = {n: int(rng.integers(2**32)) for n in BESTSYM_SIZES}
        self.solved: dict[int, Strategy] = {}

    def warm_up(self) -> None:
        lupi.solve_ne(5)

    def tasks(self) -> list[Task]:
        # costliest first: a run stops part way through its last pass, and
        # the long tasks, which dominate the pass time, get the extra sample
        solve = {n: Task(f"solve_ne.n{n}", "ne_solve_s", lambda r, n=n: self._solve(r, n))
                 for n in NE_SIZES}
        best = {n: Task(f"best_symmetric.n{n}", "bestsym_s", lambda r, n=n: self._bestsym(r, n))
                for n in BESTSYM_SIZES}
        return [solve[17], best[10], solve[16], solve[15], best[8], solve[14], solve[13], solve[12]]

    def _solve(self, r, n: int) -> None:
        sol = r.op(f"solvers.solve_ne.n{n}", lupi.solve_ne, n, check=_ne_problem)
        if sol is not None:
            r.count(f"solvers.solve_ne_iters.n{n}", sol.iterations)
            self.solved.setdefault(n, sol.strategy)

    def _bestsym(self, r, n: int) -> None:
        def problem(opt) -> str | None:
            gap = float(np.max(np.abs(opt.strategy.probs - 1.0 / n)))
            return f"max |p - 1/n| = {gap:.3e}" if gap > UNIFORM_TOL else None

        opt = r.op(f"solvers.best_symmetric.n{n}", lupi.best_symmetric, n,
                   seed=self.bestsym_seeds[n], check=problem)
        if opt is not None:
            r.count(f"solvers.best_symmetric_steps.n{n}", opt.iterations)

    def replays(self, r) -> None:
        for n, s in sorted(self.solved.items()):
            for _ in range(5):
                r.op(f"winprob.c_vector.n{n}", lupi.win_prob_vector, s,
                     check=lambda v: (None if _spread(v.values) <= SPREAD_TOL
                                      else f"c_i spread {_spread(v.values):.3e}"))
            for _ in range(3):
                r.op(f"winprob.jacobian.n{n}", _jacobian, s, check=lambda jac, s=s: _jacobian_problem(jac, s))

    def derived(self, m: dict) -> dict:
        out = {}
        for n in NE_SIZES:
            keys = (f"solvers.solve_ne_iters.n{n}", f"winprob.c_vector_s.n{n}",
                    f"winprob.jacobian_s.n{n}", f"solvers.solve_ne_s.n{n}")
            if all(k in m for k in keys):
                iters, c_vector, jacobian, solve = (m[k] for k in keys)
                out[f"solvers.kernel_share_est.n{n}"] = iters * (c_vector + jacobian) / solve
        return out


def _jacobian(s: Strategy) -> np.ndarray:
    return np.array([lupi.win_prob_gradient(i, s) for i in range(1, s.n + 1)])


def _jacobian_problem(jac: np.ndarray, s: Strategy) -> str | None:
    """Compare J (e_1 - e_2) with a central difference of the c-vector."""
    h = 1e-5
    d = np.zeros(s.n)
    d[0], d[1] = 1.0, -1.0
    plus = lupi.win_prob_vector(Strategy(s.probs + h * d)).values
    minus = lupi.win_prob_vector(Strategy(s.probs - h * d)).values
    err = float(np.max(np.abs((plus - minus) / (2 * h) - jac @ d)))
    return f"directional derivative off by {err:.3e}" if err > JACOBIAN_TOL else None


class Sequential(Workload):
    """The one-number-at-a-time chain: find_cne_sequential, bound_c0, sequential_solve."""

    name = "sequential"

    def __init__(self, seed: int, ctx) -> None:
        # Newton references for the cross-checks, solved once here
        self.reference = {n: lupi.solve_ne(n) for n in CNE_SIZES}

    def warm_up(self) -> None:
        lupi.sequential_solve(CHAIN[0], CHAIN[1], 2)

    def tasks(self) -> list[Task]:
        # costliest first, as in Equilibrium.tasks
        cne = {n: Task(f"find_cne_sequential.n{n}", "cne_sequential_s", lambda r, n=n: self._cne(r, n))
               for n in CNE_SIZES}
        bound = {n: Task(f"bound_c0.n{n}d{d}", "bound_s", lambda r, n=n, d=d: self._bound(r, n, d))
                 for n, d in BOUNDS}
        chain = Task("sequential_solve.n{}d{}".format(CHAIN[0], CHAIN[2]), "bound_s", self._chain)
        return [cne[12], cne[11], bound[12], cne[10], cne[9], bound[9], chain]

    def _cne(self, r, n: int) -> None:
        c_ref = self.reference[n].c_ne

        def problem(sol) -> str | None:
            gap = abs(sol.c_ne - c_ref)
            return f"|c_seq - c_newton| = {gap:.3e}" if gap > CNE_TOL else None

        sol = r.op(f"solvers.find_cne_sequential.n{n}", lupi.find_cne_sequential, n, check=problem)
        if sol is not None:
            r.count(f"solvers.find_cne_sequential_bisections.n{n}", sol.iterations)

    def _bound(self, r, n: int, depth: int) -> None:
        c_ref = self.reference[n].c_ne

        def problem(interval) -> str | None:
            if interval.lower <= c_ref <= interval.upper:
                return None
            return f"[{interval.lower:.6g}, {interval.upper:.6g}] misses c_ne {c_ref:.10g}"

        r.op(f"solvers.bound_c0.n{n}d{depth}", lupi.bound_c0, n, depth, check=problem)

    def _chain(self, r) -> None:
        n, c0, depth = CHAIN

        def problem(res) -> str | None:
            if not res.complete or len(res.entries) != depth:
                return f"chain incomplete: {[e.status for e in res.entries]}"
            worst = max(e.residual for e in res.entries)
            if worst > 1e-12 or not 0.0 < res.prefix_sum < 1.0:
                return f"residual {worst:.3e}, prefix sum {res.prefix_sum!r}"
            return None

        res = r.op(f"solvers.sequential_solve.n{n}d{depth}", lupi.sequential_solve, n, c0, depth,
                   check=problem)
        if res is not None:
            r.count(f"solvers.sequential_solve_entries.n{n}d{depth}", len(res.found))

    def replays(self, r) -> None:
        for n in (9, 12):
            sol = self.reference[n]
            for _ in range(5):
                r.op(f"winprob.scalar.n{n}", _scalar_sweep, sol.strategy,
                     check=lambda c, sol=sol: (None if max(abs(v - sol.c_ne) for v in c) <= SPREAD_TOL
                                               else "scalar c_i off the equilibrium value"))


def _scalar_sweep(s: Strategy) -> list[float]:
    return [lupi.win_prob(i, s) for i in range(1, s.n + 1)]


class Crosscheck(Workload):
    """Closed form against enumeration, exact polynomials, the large-n limit and simulation."""

    name = "crosscheck"

    def __init__(self, seed: int, ctx) -> None:
        rng = np.random.default_rng([seed, 3])
        self.enum = {n: [_random_strategy(rng, n) for _ in range(k)] for n, k in ENUM_STRATEGIES.items()}
        self.points = {n: [_rational_point(rng, n) for _ in range(k)] for n, k in POLY_POINTS.items()}
        self.large = {big: Strategy.uniform(big) for big in LARGE_N}
        s5 = lupi.solve_ne(5).strategy
        self.sim = {5: s5, 12: Strategy.uniform(12)}
        self.sim_seeds = {key: int(rng.integers(2**63)) for key in (*SIMULATIONS, "repeat")}
        self.expected = {n: lupi.win_prob_vector(s).values for n, s in self.sim.items()}

    def warm_up(self) -> None:
        s = Strategy.uniform(5)
        lupi.exact_win_prob(1, s)
        lupi.win_prob_vector(s)

    def tasks(self) -> list[Task]:
        return ([Task(f"exact_win_prob.n{n}", "exact_s", lambda r, n=n: self._enumerate(r, n))
                 for n in ENUM_STRATEGIES]
                + [Task(f"win_prob_poly.n{n}", "exact_s", lambda r, n=n: self._poly(r, n))
                   for n in POLY_POINTS]
                + [Task(f"large_n.n{big}", "large_n_s", lambda r, big=big: self._large(r, big))
                   for big in LARGE_N]
                + [Task(f"simulate.n{n}", "sim_rounds_per_s", lambda r, n=n: self._simulate(r, n),
                        units=rounds) for n, rounds in SIMULATIONS.items()]
                + [Task("simulate.repeat", None, self._repeat)])

    def _enumerate(self, r, n: int) -> None:
        for s in self.enum[n]:
            r.op(f"oracle.exact_win_prob.n{n}", _enumerate_all, s,
                 check=lambda exact, s=s: self._agree(r, "winprob.max_abs_err_vs_enum", exact,
                                                      lupi.win_prob_vector(s).values))

    def _poly(self, r, n: int) -> None:
        def problem(polys) -> str | None:
            leaked = [i for i, q in enumerate(polys, 1) if any(e[i - 1] for e in q.terms)]
            return f"win_prob_poly({n}, i) still holds p_i for i in {leaked}" if leaked else None

        polys = r.op(f"polynomials.win_prob_poly.n{n}", _polys, n, check=problem)
        if polys is None:
            return
        r.count(f"polynomials.terms.n{n}", sum(len(q.terms) for q in polys))
        for point in self.points[n]:
            r.op(f"polynomials.evaluate.n{n}", _evaluate_all, polys, point,
                 check=lambda exact, point=point: self._agree(
                     r, "winprob.max_abs_err_vs_poly", [float(v) for v in exact],
                     lupi.win_prob_vector(Strategy([float(x) for x in point])).values))

    @staticmethod
    def _agree(r, name: str, reference, closed) -> str | None:
        err = float(np.max(np.abs(np.asarray(reference, dtype=float) - closed)))
        r.error(name, err)
        return f"closed form off by {err:.3e}" if err > AGREE_TOL else None

    def _large(self, r, big: int) -> None:
        def problem(values) -> str | None:
            gaps = [abs(v - lupi.uniform_asymptotic_win_prob(i)) for i, v in enumerate(values, 1)]
            return f"gap to the limit {max(gaps):.3e}" if max(gaps) > ASYMPTOTE_TOL else None

        r.op(f"winprob.large_n.n{big}", _large_sweep, self.large[big], check=problem)

    def _simulate(self, r, n: int) -> None:
        s, c = self.sim[n], self.expected[n]
        r.op(f"oracle.simulate.n{n}", lupi.simulate, s, s, SIMULATIONS[n], self.sim_seeds[n],
             check=lambda st: _sigma_problem(st, c, float(np.dot(s.probs, c))))

    def _repeat(self, r) -> None:
        s, c = self.sim[5], self.expected[5]
        first = r.op("oracle.simulate.repeat", lupi.simulate, s, s, REPEAT_ROUNDS, self.sim_seeds["repeat"],
                     check=lambda st: _sigma_problem(st, c, float(np.dot(s.probs, c))))
        if first is not None:
            r.op("oracle.simulate.repeat", lupi.simulate, s, s, REPEAT_ROUNDS, self.sim_seeds["repeat"],
                 check=lambda st: (None if st.to_json_obj() == first.to_json_obj()
                                   else "seeded repeat differs"))

    def derived(self, m: dict) -> dict:
        return {f"oracle.simulate_rounds_per_s.n{n}": rounds / m[f"oracle.simulate_s.n{n}"]
                for n, rounds in SIMULATIONS.items() if f"oracle.simulate_s.n{n}" in m}


def _enumerate_all(s: Strategy) -> list[float]:
    return [lupi.exact_win_prob(i, s) for i in range(1, s.n + 1)]


def _polys(n: int) -> list:
    return [lupi.win_prob_poly(n, i) for i in range(1, n + 1)]


def _evaluate_all(polys: list, point: list[Fraction]) -> list[Fraction]:
    return [q.evaluate(point) for q in polys]


def _large_sweep(s: Strategy) -> list[float]:
    return [lupi.win_prob(i, s) for i in range(1, LARGE_N_DEPTH + 1)]


class Cli(Workload):
    """``python -m lupi.cli figure --which fig1``: one cold run, then warm runs on its cache."""

    name = "cli"

    def __init__(self, seed: int, ctx) -> None:
        self.ctx = ctx
        self.cycle = 0
        self.cache_path = ""
        self.cold_stdout = b""

    def _run(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "lupi.cli", *args], cwd=self.ctx.root,
                              env=self.ctx.env, capture_output=True, timeout=120, check=False)

    def _figure(self) -> subprocess.CompletedProcess:
        return self._run("figure", "--which", "fig1", "--n-list", CLI_N_LIST,
                         "--cache-path", self.cache_path)

    def warm_up(self) -> None:
        self._run("--version")

    def tasks(self) -> list[Task]:
        return ([Task("figure.cold", "cli_cold_s", self._cold)]
                + [Task("figure.warm", "cli_warm_s", self._warm)] * CLI_WARM_RUNS)

    def _cold(self, r) -> None:
        self.cycle += 1
        self.cache_path = os.path.join(self.ctx.tmpdir, f"ne_cache_{self.cycle}.json")
        proc = r.op("cli.figure.cold", self._figure, check=_fig1_problem)
        self.cold_stdout = proc.stdout if proc is not None else b""
        if os.path.exists(self.cache_path):
            r.count("cli.cache_bytes", os.path.getsize(self.cache_path))

    def _warm(self, r) -> None:
        before = _stat(self.cache_path)

        def problem(proc) -> str | None:
            if proc.returncode != 0:
                return f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
            return None if proc.stdout == self.cold_stdout else "warm stdout differs from cold"

        r.op("cli.figure.warm", self._figure, check=problem)
        r.count("cli.warm_cache_writes", int(_stat(self.cache_path) != before))

    def replays(self, r) -> None:
        expected = f"lupi {lupi.__version__}\n".encode()
        for _ in range(10):
            r.op("cli.process_start", self._run, "--version",
                 check=lambda proc: (None if proc.returncode == 0 and proc.stdout == expected
                                     else f"--version gave {proc.returncode}, {proc.stdout!r}"))


def _stat(path: str):
    try:
        st = os.stat(path)
    except FileNotFoundError:
        return None
    return st.st_ino, st.st_mtime_ns, st.st_size


def _fig1_problem(proc) -> str | None:
    """Exit code 0, and each n in the list gets n rows of probabilities summing to 1."""
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr.decode(errors='replace')[-200:]}"
    lines = proc.stdout.decode().splitlines()
    if not lines or lines[0] != "n,i,p_ne":
        return "fig1 header missing"
    rows: dict[int, list[float]] = {}
    for line in lines[1:]:
        n, _, p = line.split(",")
        rows.setdefault(int(n), []).append(float(p))
    for n in range(3, 15):
        probs = rows.get(n, [])
        if len(probs) != n or abs(math.fsum(probs) - 1.0) > 1e-8:
            return f"fig1 rows for n={n} do not form a strategy"
    return None


WORKLOAD_CLASSES = {w.name: w for w in (Equilibrium, Sequential, Crosscheck, Cli)}
