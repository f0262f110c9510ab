"""Equilibrium solvers: the Newton route, the sequential route, their
agreement, the interval bound, and the symmetric optimum."""

import functools
import math
import time
import warnings

import numpy as np
import pytest

import lupi.solvers
import lupi.winprob
from lupi import (
    ClassificationError,
    ResourceLimitError,
    SequentialEntry,
    SequentialResult,
    Strategy,
    best_symmetric,
    bound_c0,
    exact_win_prob,
    find_cne_sequential,
    no_winner_poly,
    no_winner_poly_by_subsets,
    opponents_outcome_poly,
    sequential_solve,
    solve_ne,
    symmetric_payoff,
    verify_ordering_inequality,
    win_prob_poly,
    win_prob_vector,
)
from lupi.solvers import _limit_start, _payoffs, _project_to_simplex, _row_dot, _spg_lockstep, _tail_root
from lupi.winprob import PrefixChance

SQRT3 = math.sqrt(3.0)
CNE3 = 28 - 16 * SQRT3
NE3_PROBS = (2 * SQRT3 - 3, 2 - SQRT3, 2 - SQRT3)

# best_symmetric(n).w recorded from the projected-gradient ascent that the
# spectral method replaced: the compensated payoff of the uniform strategy
BEST_SYMMETRIC_W = {
    3: 0.2962962962962963,
    4: 0.2109375,
    5: 0.18688000000000002,
    6: 0.1575360082304527,
    7: 0.13862299843481157,
    8: 0.12240934371948242,
    9: 0.10973602379609819,
    10: 0.09918836100000002,
    11: 0.09045198422740237,
    12: 0.08306485105120871,
}


def _project_one(v):
    """Sort-based projection of one point onto the simplex: the one-point
    form that the row-wise _project_to_simplex must match to the bit."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ranks = np.arange(1, v.size + 1)
    mask = u - css / ranks > 0.0
    rho = int(ranks[mask][-1])
    theta = css[mask][-1] / rho
    return np.maximum(v - theta, 0.0)


def _climb_alone(p, max_steps):
    """One start of best_symmetric's ascent climbed by itself, with one-point
    payoffs, scalar dot products and a plain list of recent payoffs (SPG2:
    memory 10, Armijo fraction 1e-4, step clamp [1e-10, 1e10], stop at a
    move of 1e-13). Returns (p, w, steps)."""

    def payoff(q):
        w, g = _payoffs(q[None, :])
        return float(w[0]), g[0]

    n = p.size
    w, g = payoff(p)
    recent, lam, steps = [w], 1.0, 0
    while steps < max_steps:
        steps += 1
        d = _project_one(p + lam * g) - p
        size, gd = float(np.max(np.abs(d))), float(g @ d)
        if size <= 1e-13 or gd <= 0.0:
            break
        t, trial = 1.0, p + d
        w_t, g_t = payoff(trial)
        while gd > n * np.finfo(float).eps * w and w_t < max(recent[-10:]) + 1e-4 * t * gd:
            t *= 0.5
            if t * size <= 1e-13:
                return p, w, steps
            trial = p + t * d
            w_t, g_t = payoff(trial)
        s, y = trial - p, g_t - g
        curvature = -float(s @ y)
        lam = min(max(float(s @ s) / curvature, 1e-10), 1e10) if curvature > 0.0 else 1e10
        p, w, g = trial, w_t, g_t
        recent.append(w)
    return p, w, steps


class TestSolveNE:
    def test_three_players_closed_form(self):
        sol = solve_ne(3)
        assert sol.converged
        assert np.max(np.abs(sol.strategy.probs - NE3_PROBS)) <= 1e-10
        assert abs(sol.c_ne - CNE3) <= 1e-10

    def test_nine_players_digits(self):
        sol = solve_ne(9)
        assert sol.converged
        expected = (0.2515, 0.2348, 0.2086, 0.1641)
        assert np.max(np.abs(sol.strategy.probs[:4] - expected)) <= 5e-4

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_solution_invariants(self, n):
        sol = solve_ne(n)
        assert sol.converged
        p = sol.strategy.probs
        assert abs(float(np.sum(p)) - 1.0) <= 1e-12
        assert np.all(p > 0.0) and np.all(p < 1.0)
        c = win_prob_vector(sol.strategy).values
        assert np.max(c) - np.min(c) <= 10 * 1e-12
        assert p[0] > p[1]

    def test_tail_decreases(self):
        # monotone decay across the numbers is an empirical observation, not
        # a guarantee: flag it, do not fail the build on it
        for n in (5, 9, 12):
            p = solve_ne(n).strategy.probs
            assert p[0] > p[1]
            if not np.all(np.diff(p) <= 1e-12):
                warnings.warn(f"n={n}: equilibrium strategy is not monotone decreasing")

    def test_cross_checked_by_enumeration(self):
        sol = solve_ne(5)
        cs = [exact_win_prob(i, sol.strategy) for i in range(1, 6)]
        assert max(cs) - min(cs) <= 1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            solve_ne(2)
        for flag in (True, np.True_):
            with pytest.raises(ValueError):
                solve_ne(flag)
        with pytest.raises(ResourceLimitError):
            solve_ne(1001)
        # the tolerance and the iteration budget are constants, not keywords
        for kwargs in ({"tol": float("nan")}, {"tol": float("inf")}, {"tol": -1.0}, {"max_iter": -3}):
            with pytest.raises(TypeError):
                solve_ne(5, **kwargs)

    def test_range_refused_before_the_start(self, monkeypatch):
        # the O(n) start is never built for an n the kernel cannot serve
        monkeypatch.setattr(lupi.solvers, "_limit_start", lambda n: pytest.fail("start built"))
        with pytest.raises(ResourceLimitError, match="cap n=1000"):
            solve_ne(10**9)

    def test_iteration_counts_are_pinned(self):
        # every Newton iterate rests on the kernel's values and Jacobian to
        # the bit: a kernel change that moves one shows here as a changed count
        assert [solve_ne(n).iterations for n in range(3, 21)] == [5, 7, 6, 6, 4] + [5] * 13

    @pytest.mark.parametrize("n", [12, 20, 100, 400, 1000])
    def test_limit_start_sums_to_one(self, n):
        # y - log y tends to 1, so the limit's entries sum to (n - 1)/(n - 1)
        assert abs(math.fsum(_limit_start(n)) - 1.0) <= 8 * np.finfo(float).eps

    @pytest.mark.parametrize("n", [12, 20, 40, 100, 150])
    def test_gap_to_the_limit_value(self, n):
        # the limit's value is 1/n; the finite game's lies about 1/n^2 below
        # it (measured 1.151, 1.148, 1.124, 1.082 and 1.066 in these units)
        c_ne = solve_ne(n).c_ne
        assert 1.0 <= n * (1.0 / n - c_ne) / c_ne <= 1.2

    def test_nonconvergence_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(lupi.solvers, "_NEWTON_MAX_ITER", 2)
        sol = solve_ne(9)
        assert not sol.converged
        assert sol.iterations <= 2
        assert sol.residual > 1e-12


class TestSequentialSolve:
    def test_three_player_walkthrough(self):
        result = sequential_solve(3, 0.287, 3)
        e1, e2, e3 = result.entries
        assert e1.p_i == pytest.approx(0.4643, abs=5e-5)
        assert e2.p_i == pytest.approx(0.2684, abs=5e-5)
        assert e3.status == "no-real-root" and e3.p_i is None

    def test_residual_shrinks_with_better_target(self):
        loose = sequential_solve(3, 0.287, 3)
        tight = sequential_solve(3, 0.287187, 3)
        assert tight.entries[2].status == "no-real-root"
        assert tight.entries[2].residual < loose.entries[2].residual

    def test_nine_player_reproduction(self):
        result = sequential_solve(9, 0.0985, 4)
        expected = (0.2515, 0.2349, 0.2087, 0.1643)
        found = [e.p_i for e in result.entries]
        assert all(e.status == "real-root" for e in result.entries)
        assert np.max(np.abs(np.array(found) - expected)) <= 5e-4

    def test_first_probability_closed_form(self):
        n, c0 = 7, 0.2
        result = sequential_solve(n, c0, 1)
        assert result.entries[0].p_i == pytest.approx(1 - c0 ** (1 / (n - 1)), abs=1e-15)

    def test_roots_satisfy_equations(self):
        result = sequential_solve(9, 0.0985, 6)
        for entry in result.entries:
            if entry.status == "real-root" and entry.i > 1:
                assert entry.residual <= 1e-12

    def test_root_close_to_zero_probability(self):
        # c_2 - c0 is +0.339 at p_2 = 0 and crosses zero at p_2 = 7.6e-4,
        # close to the left end of [0, R]: the descent from T = R reaches it
        result = sequential_solve(1000, 0.3, 3)
        entry = result.entries[1]
        assert entry.status == "real-root"
        assert abs(entry.p_i - 7.560385e-4) <= 1e-9
        assert entry.residual <= 1e-12
        tail, residual, _ = _tail_root(lambda t: (t, 1.0), 1.0, 0.99, 0.0)
        assert 1.0 - tail == pytest.approx(0.01, abs=1e-15) and residual <= 1e-15

    def test_scaled_form_above_the_size_limit(self):
        # n = 2000 evaluates c_i by the Poisson-scaled form; p_2 and p_3 are
        # pinned to values found by an independent evaluator and root finder
        result = sequential_solve(2000, 0.3, 3)
        assert result.complete
        _, e2, e3 = result.entries
        assert abs(e2.p_i - 3.7796507525499854e-4) <= 1e-12
        assert abs(e3.p_i - 1.5863844936984576e-4) <= 1e-12
        assert max(e.residual for e in result.entries) <= 1e-12

    def test_prefix_stays_normalized(self):
        result = sequential_solve(9, 0.05, 9)  # too-small target overruns mass
        assert result.prefix_sum < 1.0
        assert all(e.p_i is None or 0.0 < e.p_i < 1.0 for e in result.entries)

    def test_validation(self):
        with pytest.raises(ValueError):
            sequential_solve(3, 1.5, 2)
        with pytest.raises(ValueError):
            sequential_solve(3, 0.0, 2)
        with pytest.raises(ValueError):
            sequential_solve(3, 0.2, 0)
        with pytest.raises(ValueError):
            sequential_solve(3, 0.2, 4)
        for flag in (True, np.True_):  # int(True) == 1, yet a boolean is no depth
            with pytest.raises(ValueError, match="depth"):
                sequential_solve(9, 0.0985, flag)

    def test_tails_are_the_solved_tail_masses(self):
        # each p_j is the step from the previous tail mass to the one solved
        # for, so a replay advanced on the tails sees the chain's intervals
        result = sequential_solve(9, 0.0985, 6)
        assert len(result.tails) == len(result.found)
        for rest, tail, p_j in zip([1.0, *result.tails], result.tails, result.found):
            assert p_j == rest - tail

    def test_json_shape(self):
        obj = sequential_solve(3, 0.287, 3).to_json_obj()
        assert set(obj) == {"c0", "entries", "prefix_sum"}
        assert set(obj["entries"][0]) == {"i", "p_i", "status", "residual"}


class TestTailRoot:
    @staticmethod
    def counted(at_tail):
        calls = []

        def wrapped(t):
            calls.append(t)
            return at_tail(t)

        return wrapped, calls

    def test_monomial_in_one_step(self):
        # log c is linear in log T: the first Newton step lands on the root,
        # after the one endpoint evaluation (the floor c(0) comes with the
        # call) and before the one that stops
        at_tail, calls = self.counted(lambda t: (t**5, 5 * t**4))
        tail, residual, all_negative = _tail_root(at_tail, 0.8, 0.01, 0.0)
        assert calls[0] == 0.8
        assert calls[1] == pytest.approx(0.01**0.2, rel=1e-15)
        assert tail == pytest.approx(0.01**0.2, rel=1e-15) and not all_negative
        assert residual <= 1e-17 and len(calls) <= 3

    def test_target_above_the_right_end(self):
        at_tail, calls = self.counted(lambda t: (0.1 + t * t, 2 * t))
        tail, residual, all_negative = _tail_root(at_tail, 0.5, 0.4, 0.1)
        assert tail is None and all_negative
        assert residual == 0.4 - (0.1 + 0.5 * 0.5)
        assert calls == [0.5]

    def test_target_below_the_left_end(self):
        tail, residual, all_negative = _tail_root(lambda t: (0.1 + t * t, 2 * t), 0.5, 0.04, 0.1)
        assert tail is None and not all_negative
        assert residual == 0.1 - 0.04

    def test_chain_steps_take_few_evaluations(self, monkeypatch):
        # one endpoint value (the floor is read without a pass) and a few
        # Newton steps per root, over the chains of the walks at n = 9..12;
        # the walks open on the limit band, so their chains stop early
        # (390 steps when they opened on the far midpoints 0.5, 0.25, ...)
        calls, fixed = 0, 0

        class Counted(PrefixChance):
            def at_tail(self, tail):
                nonlocal calls
                calls += 1
                return super().at_tail(tail)

            def fix(self, tail):
                nonlocal fixed
                fixed += 1
                super().fix(tail)

        monkeypatch.setattr(lupi.solvers, "PrefixChance", Counted)
        for n in range(9, 13):
            find_cne_sequential(n)
        assert 200 < fixed < 300 and calls <= 6 * fixed

    def test_bound_runs_each_chain_once(self, monkeypatch):
        runs = 0
        run_chain = lupi.solvers._run_chain

        def counted(*args):
            nonlocal runs
            runs += 1
            return run_chain(*args)

        monkeypatch.setattr(lupi.solvers, "_run_chain", counted)
        bound_c0(9, 4)
        assert runs <= 30  # two walks of 14 midpoints, the shared ones run once


class TestFindCneSequential:
    def test_three_players(self):
        found = find_cne_sequential(3)
        assert abs(found.c_ne - CNE3) <= 1e-8
        assert np.max(np.abs(found.strategy.probs - solve_ne(3).strategy.probs)) <= 1e-6

    def test_nine_players(self):
        found = find_cne_sequential(9)
        assert abs(found.c_ne - 0.0985) <= 1e-3

    @pytest.mark.parametrize("n", list(range(4, 13)))
    def test_agrees_with_newton(self, n):
        found = find_cne_sequential(n)
        newton = solve_ne(n)
        assert np.max(np.abs(found.strategy.probs - newton.strategy.probs)) <= 1e-6

    @pytest.mark.parametrize("n", [20, 30, 40, 60, 100])
    def test_agrees_with_newton_beyond_the_cap(self, n):
        # the chain carries tail masses, so its remaining mass, 1e-13 and
        # less at these n, does not drown in the rounding of 1 - sum p
        found = find_cne_sequential(n, tol=1e-13)
        newton = solve_ne(n)
        assert newton.converged
        assert abs(found.c_ne - newton.c_ne) <= 1e-12

    @pytest.mark.parametrize("n", [60, 100])
    def test_equalizes_win_chances_at_large_n(self, n):
        found = find_cne_sequential(n, tol=1e-13)
        c = win_prob_vector(found.strategy).values
        assert np.max(np.abs(c - found.c_ne)) <= 1e-12

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_validation(self, tol):
        with pytest.raises(ValueError):
            find_cne_sequential(5, tol=tol)

    def test_walk_closing_off_a_complete_chain_raises(self, monkeypatch):
        # chains complete (leftover 0.4) from c0 = 1/3, large but incomplete
        # on [0.3, 1/3), too small below: the walk opens on the band's upper
        # end (small) and 1/3, closes on 0.3, where no chain completes, and
        # the complete chain at 1/3 is no answer
        def staged(n, c0, depth):
            if c0 >= 1 / 3:
                entries = [SequentialEntry(i, p, "real-root", 0.0) for i, p in ((1, 0.3), (2, 0.3), (3, 0.0))]
                return SequentialResult(c0, entries, [0.7, 0.4, 0.4])
            entries = [SequentialEntry(1, 0.3, "real-root", 0.0), SequentialEntry(2, None, "no-real-root", 0.1)]
            return SequentialResult(c0, entries, [0.7], too_small=c0 < 0.3)

        monkeypatch.setattr(lupi.solvers, "_run_chain", staged)
        with pytest.raises(ClassificationError) as info:
            find_cne_sequential(3)
        assert info.value.trace[:2] == [((1 - 1 / 3) / 3, "small"), (1 / 3, "large")]
        assert abs(min(mid for mid, side in info.value.trace if side == "large") - 0.3) <= 1e-15
        # no midpoint reads large: nothing to answer with
        monkeypatch.setattr(lupi.solvers, "_run_chain", lambda n, c0, depth: staged(n, 0.0, depth))
        with pytest.raises(ClassificationError):
            find_cne_sequential(3)


class TestGuidedWalk:
    # (n, tol): the points the plain bisection on c0 took before the walk
    # was guided by interpolation on its complete chains
    BISECTION_POINTS = {
        **{(n, 1e-8): k for n, k in zip(range(3, 13), (54, 26, 31, 29, 28, 30, 27, 29, 31, 31))},
        **{(n, 1e-13): k for n, k in zip(
            [*range(3, 13), 15, 20, 25, 30, 40, 50, 60, 80, 100],
            (54, 43, 47, 46, 46, 46, 47, 47, 47, 48, 46, 50, 48, 48, 49, 48, 47, 43, 50),
        )},
        **{(n, 0.0): 54 for n in (3, 5, 9, 12, 20)},
    }
    # the same cases: the points the guided walk took before it opened on
    # the Poisson-limit band and closed from both sides
    GUIDED_POINTS = {
        **{(n, 1e-8): k for n, k in zip(range(3, 13), (17, 8, 14, 10, 15, 12, 14, 12, 12, 11))},
        **{(n, 1e-13): k for n, k in zip(
            [*range(3, 13), 15, 20, 25, 30, 40, 50, 60, 80, 100],
            (16, 9, 15, 11, 27, 12, 22, 13, 14, 17, 15, 19, 15, 13, 18, 14, 17, 21, 18),
        )},
        **dict(zip([(n, 0.0) for n in (3, 5, 9, 12, 20)], (17, 17, 29, 14, 15))),
    }

    @staticmethod
    def linear(root):
        # T_n = 10 (c0 - root): complete above root, too small below it
        def staged(n, c0, depth):
            if c0 < root:
                entries = [SequentialEntry(1, 0.5, "real-root", 0.0), SequentialEntry(2, None, "no-real-root", 0.1)]
                return SequentialResult(c0, entries, [0.5], too_small=True)
            entries = [SequentialEntry(i, p, "real-root", 0.0) for i, p in ((1, 0.5), (2, 0.25), (3, 0.25))]
            return SequentialResult(c0, entries, [0.5, 0.25, 10.0 * (c0 - root)])

        return staged

    @staticmethod
    def band(n):
        return (1 - 1 / n) / n, (1 - 1.2 / n) / n, 1 / n

    @staticmethod
    @functools.cache
    def walk_points():
        return {case: find_cne_sequential(*case).iterations for case in TestGuidedWalk.BISECTION_POINTS}

    def test_points_at_the_benchmark_sizes(self):
        points = {n: find_cne_sequential(n).iterations for n in range(9, 13)}
        assert points == {9: 9, 10: 8, 11: 9, 12: 7}
        assert max(points.values()) <= 16

    def test_never_more_points_than_bisection(self):
        points = self.walk_points()
        for case, bisection in self.BISECTION_POINTS.items():
            assert points[case] <= bisection, case
        assert sum(points.values()) <= sum(self.BISECTION_POINTS.values()) / 2

    def test_never_more_points_than_the_walk_before_the_band(self):
        points = self.walk_points()
        for case, guided in self.GUIDED_POINTS.items():
            assert points[case] <= guided, case
        assert points[7, 1e-13] <= 17 and points[9, 1e-13] <= 17

    def test_few_points_at_large_n(self):
        # the walk before the band took 19 and 23 points here
        assert find_cne_sequential(200, tol=1e-13).iterations <= 10
        assert find_cne_sequential(400, tol=1e-13).iterations <= 10

    @pytest.mark.parametrize("n", range(3, 13))
    def test_agrees_with_newton_at_tight_tol(self, n):
        assert abs(find_cne_sequential(n, tol=1e-13).c_ne - solve_ne(n).c_ne) <= 1e-13

    def test_trace_lists_every_point(self):
        found = find_cne_sequential(9)
        assert len(found.trace) == found.iterations
        assert found.trace[-1] == (found.c_ne, "large")
        assert found.trace[:2] == [(self.band(9)[0], "large"), (self.band(9)[1], "small")]
        assert {side for _, side in found.trace} == {"large", "small"}

    def test_bracket_is_the_final_bracket(self):
        found = find_cne_sequential(9)
        small, large = found.bracket
        assert small == max(c0 for c0, side in found.trace if side == "small")
        assert large == found.c_ne and small < solve_ne(9).c_ne < large

    def test_both_band_ends_on_their_sides(self, monkeypatch):
        # the root lies inside the band: its upper end reads large, its
        # lower end small, and 1/n, above the bracket, is never taken
        monkeypatch.setattr(lupi.solvers, "_run_chain", self.linear(0.21))
        found = find_cne_sequential(3)
        assert found.trace[:2] == [(self.band(3)[0], "large"), (self.band(3)[1], "small")]
        assert self.band(3)[2] not in dict(found.trace)
        assert 0.21 <= found.c_ne <= 0.21 + 1e-9

    def test_upper_band_end_reads_small(self, monkeypatch):
        # the root lies above the band: 1/n comes next, and the lower end,
        # now below the bracket, is never taken
        monkeypatch.setattr(lupi.solvers, "_run_chain", self.linear(0.3))
        found = find_cne_sequential(3)
        assert found.trace[:2] == [(self.band(3)[0], "small"), (self.band(3)[2], "large")]
        assert self.band(3)[1] not in dict(found.trace)
        assert 0.3 <= found.c_ne <= 0.3 + 1e-9

    def test_root_below_the_band(self, monkeypatch):
        # both band ends read large; the walk goes on below the lower end
        monkeypatch.setattr(lupi.solvers, "_run_chain", self.linear(0.05))
        found = find_cne_sequential(3)
        assert found.trace[:2] == [(self.band(3)[0], "large"), (self.band(3)[1], "large")]
        assert self.band(3)[2] not in dict(found.trace)
        assert 0.05 <= found.c_ne <= 0.05 + 1e-9

    def test_linear_leftover_found_by_interpolation(self, monkeypatch):
        # the band's two ends give two complete chains; through them the
        # secant lands on the linear leftover's aim
        monkeypatch.setattr(lupi.solvers, "_run_chain", self.linear(0.1))
        found = find_cne_sequential(3)
        assert found.trace[:2] == [(self.band(3)[0], "large"), (self.band(3)[1], "large")]
        assert found.iterations <= 2 + 1
        assert 0.0 <= found.sum_error <= 1e-8 and 0.1 <= found.c_ne <= 0.1 + 1e-9

    def test_constant_leftover_takes_the_bisection_midpoints(self, monkeypatch):
        # no two complete chains differ in T_n, so the guide never proposes
        # a point and the walk after the band is the plain bisection to the end
        def staged(n, c0, depth):
            run = self.linear(0.1)(n, c0, depth)
            return run if run.too_small else SequentialResult(c0, run.entries, [0.5, 0.25, 0.4])

        monkeypatch.setattr(lupi.solvers, "_run_chain", staged)
        found = find_cne_sequential(3)
        walk = lupi.solvers._c0_walk(lambda c0: c0 >= 0.1, 1e-16, probes=self.band(3))
        assert found.trace == [(mid, "large" if large else "small") for mid, large in walk]
        assert found.c_ne == min(mid for mid, side in found.trace if side == "large")


class TestBoundC0:
    def test_contains_equilibrium_value(self):
        for n in range(3, 13):
            cne = solve_ne(n).c_ne
            for depth in range(1, n + 1):
                interval = bound_c0(n, depth)
                assert interval.lower < cne < interval.upper, (n, depth)

    def test_nested_as_depth_grows(self):
        for n in range(3, 13):
            intervals = [bound_c0(n, depth) for depth in range(1, n + 1)]
            for depth, (outer, inner) in enumerate(zip(intervals, intervals[1:]), 2):
                assert outer.lower <= inner.lower and inner.upper <= outer.upper, (n, depth)
                assert inner.lower < inner.upper

    def test_nine_player_nesting(self):
        shallow = bound_c0(9, 4)
        deeper = bound_c0(9, 5)
        assert shallow.lower <= deeper.lower and deeper.upper <= shallow.upper

    def test_endpoints_are_the_bisection_midpoints(self):
        # bound_c0 walks plain dyadic midpoints, never interpolated ones
        assert (bound_c0(9, 4).lower, bound_c0(9, 4).upper) == (0.07751464928247073, 0.14685058664379885)
        assert (bound_c0(12, 6).lower, bound_c0(12, 6).upper) == (0.07244873132385254, 0.09527587971569826)
        # full depth, where the two walks part below tol (3.6e-12 wide)
        interval = bound_c0(11, 11, tol=1e-12)
        assert (interval.lower, interval.upper) == (0.08230956089438315, 0.08230956089802113)

    def test_full_depth_pins_the_value(self):
        # the default tol, and one below which the width is no longer tol's
        # alone (3.6e-12 at n = 11): both routes' c_NE stay inside
        for n in range(3, 13):
            routes = (solve_ne(n).c_ne, find_cne_sequential(n, tol=1e-13).c_ne)
            for tol in (1e-4, 1e-12):
                interval = bound_c0(n, n, tol=tol)
                for cne in routes:
                    assert interval.lower <= cne <= interval.upper, (n, tol)
                assert interval.upper - interval.lower <= 1e-4, (n, tol)

    def test_crossed_walks_raise(self, monkeypatch):
        # a chain that reads too small and tail-infeasible at every c0 puts
        # the lower endpoint above the upper one
        def crossed(n, c0, depth):
            entries = [SequentialEntry(1, 0.1, "real-root", 0.0),
                       SequentialEntry(2, None, "no-real-root", 0.1)]
            return SequentialResult(c0, entries, [0.9], too_small=True)

        monkeypatch.setattr(lupi.solvers, "_run_chain", crossed)
        with pytest.raises(ClassificationError) as info:
            bound_c0(5, 2)
        assert info.value.trace

    def test_depth_one_upper_is_uniform_chance(self):
        # depth 1: the tail sum is n p_1 >= 1, which flips exactly where the
        # first number's win chance under uniform play sits
        n = 6
        interval = bound_c0(n, 1)
        assert interval.upper == pytest.approx((1 - 1 / n) ** (n - 1), abs=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_c0(5, 0)
        with pytest.raises(ValueError):
            bound_c0(5, 6)
        with pytest.raises(ValueError):
            bound_c0(5, 2.5)
        for flag in (True, np.True_):
            with pytest.raises(ValueError, match="depth"):
                bound_c0(5, flag)

    def test_zero_tol_walk_ends(self):
        # below the spacing of doubles the walk ends once no double lies
        # between its ends; otherwise it would repeat its last midpoint
        start = time.perf_counter()
        interval = bound_c0(5, 2, tol=0.0)
        assert time.perf_counter() - start < 1.0
        assert interval.lower < solve_ne(5).c_ne < interval.upper

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_validation(self, tol):
        with pytest.raises(ValueError):
            bound_c0(5, 2, tol=tol)


class TestBestSymmetric:
    def test_three_players_uniform(self):
        opt = best_symmetric(3)
        assert np.max(np.abs(opt.strategy.probs - 1 / 3)) <= 1e-6
        assert opt.w == pytest.approx(8 / 27, abs=1e-10)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_uniform_wins(self, n):
        opt = best_symmetric(n)
        assert np.array_equal(opt.strategy.probs, Strategy.uniform(n).probs)
        assert opt.w == BEST_SYMMETRIC_W[n]

    @pytest.mark.parametrize("n", [3, 8, 12])
    def test_every_start_reaches_uniform(self, n):
        # each start converges on its own, not only the uniform one that wins
        # ties; the worst of 450 starts at n = 3..12 was 1e-13 from uniform.
        # The 20 starts climb in lockstep, and each ends where it ends alone.
        rng = np.random.default_rng(n)
        starts = [rng.dirichlet(np.full(n, concentration)) for concentration in (5.0, 0.5) for _ in range(10)]
        for start, (p, w, steps) in zip(starts, _spg_lockstep(starts, 500)):
            assert np.max(np.abs(p - 1 / n)) <= 1e-12
            assert steps < 500
            alone, w_alone, steps_alone = _spg_lockstep([start], 500)[0]
            assert (p.tobytes(), w, steps) == (alone.tobytes(), w_alone, steps_alone)

    def test_uniform_start_is_stationary(self, monkeypatch):
        monkeypatch.setattr(lupi.solvers, "_SPG_RESTARTS", 0)
        opt = best_symmetric(7)
        assert np.array_equal(opt.strategy.probs, Strategy.uniform(7).probs)
        assert (opt.starts, opt.iterations) == (1, 1)

    def test_step_budget(self, monkeypatch):
        monkeypatch.setattr(lupi.solvers, "_SPG_RESTARTS", 4)
        monkeypatch.setattr(lupi.solvers, "_SPG_MAX_STEPS", 3)
        opt = best_symmetric(8)
        assert opt.starts == 5
        assert opt.iterations <= opt.starts * 3

    def test_validation(self):
        # the starts and the step budget are constants, not keywords
        for kwargs in ({"restarts": -1}, {"max_steps": -1}):
            with pytest.raises(TypeError):
                best_symmetric(5, **kwargs)
        for kwargs in ({"seed": -1}, {"seed": 1.5}, {"seed": math.nan}, {"seed": True}, {"seed": np.True_}):
            with pytest.raises(ValueError):
                best_symmetric(5, **kwargs)

    def test_range_refused_before_the_starts(self, monkeypatch):
        # the 11 O(n) starts are never built for an n the kernel
        # cannot serve
        monkeypatch.setattr(lupi.solvers.np.random, "default_rng", lambda seed: pytest.fail("starts built"))
        with pytest.raises(ResourceLimitError, match="cap n=1000"):
            best_symmetric(10**9)

    @staticmethod
    def _points_per_call(monkeypatch) -> list[int]:
        """Record the number of points of each kernel call the solvers make."""
        points = []

        def counted(probs, *args, **kwargs):
            points.append(1 if np.ndim(probs) == 1 else len(probs))
            return kernel(probs, *args, **kwargs)

        kernel = lupi.solvers._kernel
        monkeypatch.setattr(lupi.solvers, "_kernel", counted)
        return points

    @pytest.mark.parametrize("n", [8, 10, 12])
    def test_work_count(self, n, monkeypatch):
        # spectral steps converge in tens of steps per start, and the starts
        # climb in lockstep: one kernel call per round for every start still
        # climbing (12, 11 and 12 rounds here), then one for the compensated
        # payoff, where one call per point made 97, 100 and 104
        points = self._points_per_call(monkeypatch)
        opt = best_symmetric(n)
        assert opt.iterations <= 150
        assert len(points) <= 15
        assert points[0] == opt.starts and points[-1] == 1

    def test_calls_stay_within_the_step_budget(self, monkeypatch):
        # a call takes at most _STEP_BUDGET // n^2 points, 10 at n = 80, so
        # that its step matrices fit the kernel's budget: the 11 starts'
        # rounds take two calls each
        n = 80
        points = self._points_per_call(monkeypatch)
        monkeypatch.setattr(lupi.solvers, "_SPG_MAX_STEPS", 1)
        best_symmetric(n)
        assert max(points) == lupi.winprob._STEP_BUDGET // (n * n) == 10

    def test_rows_split_across_calls_climb_as_alone(self, monkeypatch):
        # at n = 80 a call takes 10 points, so the 11 starts' first round
        # takes two calls; the uniform start stops there, and the rows
        # behind it move into the first call of later rounds
        n = 80
        rng = np.random.default_rng(n)
        starts = [np.full(n, 1.0 / n)] + [rng.dirichlet(np.ones(n)) for _ in range(10)]
        points = self._points_per_call(monkeypatch)
        climbed = _spg_lockstep(starts, 3)
        assert points[:3] == [10, 1, 10] and max(points) == 10
        assert climbed[0][2] == 1 and all(steps == 3 for _, _, steps in climbed[1:])
        for start, (p, w, steps) in zip(starts, climbed):
            alone, w_alone, steps_alone = _climb_alone(start, 3)
            assert (p.tobytes(), w, steps) == (alone.tobytes(), w_alone, steps_alone)

    @pytest.mark.parametrize("n", [4, 9])
    def test_rows_climb_as_alone(self, n):
        # every row of the array program takes the steps, line-search
        # halvings and spectral steps of its start climbed by itself
        rng = np.random.default_rng(n)
        starts = [np.full(n, 1.0 / n)] + [rng.dirichlet(np.full(n, 0.5)) for _ in range(8)]
        for start, (p, w, steps) in zip(starts, _spg_lockstep(starts, 500)):
            alone, w_alone, steps_alone = _climb_alone(start, 500)
            assert (p.tobytes(), w, steps) == (alone.tobytes(), w_alone, steps_alone)

    @pytest.mark.parametrize("n", [3, 8, 17, 40])
    def test_row_dot_matches_one_point_dot(self, n):
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((2, 64, n))
        assert _row_dot(a, b).tolist() == [float(a[r] @ b[r]) for r in range(64)]

    @pytest.mark.parametrize("n", [3, 8, 17, 40])
    def test_projection_matches_one_point_projection(self, n):
        # rows spread wide enough to clip entries to 0, rows of tied
        # entries, and rows already on the simplex
        rng = np.random.default_rng(n)
        stack = np.concatenate([
            1.0 / n + rng.standard_normal((50, n)) * rng.choice([1e-3, 0.1, 10.0], (50, 1)),
            rng.integers(-2, 3, (50, n)) / 4.0,
            rng.dirichlet(np.ones(n), 50),
            np.full((1, n), 1.0 / n),
        ])
        projected = _project_to_simplex(stack)
        assert (projected == 0.0).any() and min(len(set(row)) for row in stack) < n
        for row, out in zip(stack, projected):
            assert out.tobytes() == _project_one(row).tobytes()
        assert (projected >= 0.0).all()
        # sums to 1 within n eps of the row's scale: theta carries the rounding of its largest entries
        scale = np.maximum(1.0, np.abs(stack).max(axis=1))
        assert (np.abs(projected.sum(axis=1) - 1.0) <= n * np.finfo(float).eps * scale).all()

    def test_step_counts_are_pinned(self):
        # the kernel's rounding steers every SPG step: a kernel change that
        # moves one iterate shows here as a changed count
        assert {n: best_symmetric(n).iterations for n in (8, 10)} == {8: 96, 10: 99}

    def test_random_perturbations_never_beat_uniform(self):
        rng = np.random.default_rng(55)
        for n in (4, 7):
            w_uniform = symmetric_payoff(Strategy.uniform(n))
            for _ in range(50):
                raw = 1 / n + 0.05 * (rng.random(n) - 0.5)
                raw = np.clip(raw, 1e-4, None)
                s = Strategy(raw / raw.sum())
                assert symmetric_payoff(s) <= w_uniform + 1e-15


class TestOrderingInequality:
    def test_holds_at_equilibrium(self):
        assert verify_ordering_inequality(Strategy(NE3_PROBS))
        for n in (4, 6, 9):
            assert verify_ordering_inequality(solve_ne(n).strategy)

    def test_fails_at_uniform(self):
        assert not verify_ordering_inequality(Strategy.uniform(5))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_tol_validation(self, tol):
        # the bound is a constant: a caller's tol=inf would pass any strategy with p_2 < p_1
        with pytest.raises(TypeError):
            verify_ordering_inequality(Strategy([0.5, 0.3, 0.2]), tol=tol)


class TestPayoffOrdering:
    def test_chain_at_n5(self):
        n = 5
        w_uniform = symmetric_payoff(Strategy.uniform(n))
        cne = solve_ne(n).c_ne
        others = max(
            symmetric_payoff(Strategy.zeng(n)), symmetric_payoff(Strategy.flitney(n))
        )
        assert w_uniform > cne > others

    def test_theoretical_cap(self):
        for n in (3, 5, 8):
            for s in (Strategy.uniform(n), Strategy.zeng(n), Strategy.flitney(n)):
                assert symmetric_payoff(s) <= 1 / n + 1e-15


class TestSizeCaps:
    # each call at n one above its cap, which is a constant of the module it
    # guards: the keyword that once raised the cap is gone, so no cap value,
    # integer or not, reaches the check or switches it off
    ENUMERATION = "enumeration for n=11 is above the cap n=10"
    SYMBOLIC = "symbolic expansion for n=9 is above the cap n=8"
    CALLS = [
        pytest.param(exact_win_prob, (1, Strategy.uniform(11)), "max_players", ENUMERATION,
                     id="exact_win_prob"),
        pytest.param(opponents_outcome_poly, (9,), "limit", SYMBOLIC, id="opponents_outcome_poly"),
        pytest.param(no_winner_poly, (9, 0), "limit", SYMBOLIC, id="no_winner_poly"),
        pytest.param(no_winner_poly_by_subsets, (9, 0), "limit", SYMBOLIC,
                     id="no_winner_poly_by_subsets"),
        pytest.param(win_prob_poly, (9, 1), "limit", SYMBOLIC, id="win_prob_poly"),
    ]

    @pytest.mark.parametrize("cap", [math.nan, math.inf, 8.5, "9"], ids=["nan", "inf", "fraction", "string"])
    @pytest.mark.parametrize("func, args, keyword, message", CALLS)
    def test_cap_must_be_an_integer(self, func, args, keyword, message, cap):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            func(*args, **{keyword: cap})

    @pytest.mark.parametrize("func, args, keyword, message", CALLS)
    def test_refused_above_the_cap(self, func, args, keyword, message):
        with pytest.raises(ResourceLimitError, match=f"^{message}$"):
            func(*args)


class TestFixedEffort:
    # the solvers' effort is fixed: a tolerance, iteration budget, start
    # count or step budget that a caller could once pass is refused, also
    # at a value that used to work
    @pytest.mark.parametrize("func, args, keyword, value", [
        pytest.param(solve_ne, (5,), "tol", 1e-8, id="solve_ne-tol"),
        pytest.param(solve_ne, (5,), "max_iter", 50, id="solve_ne-max_iter"),
        pytest.param(best_symmetric, (5,), "restarts", 2, id="best_symmetric-restarts"),
        pytest.param(best_symmetric, (5,), "max_steps", 10, id="best_symmetric-max_steps"),
        pytest.param(verify_ordering_inequality, (Strategy(NE3_PROBS),), "tol", 1e-6,
                     id="verify_ordering_inequality-tol"),
    ])
    def test_effort_keyword_refused(self, func, args, keyword, value):
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{keyword}'"):
            func(*args, **{keyword: value})
