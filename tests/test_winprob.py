"""Closed-form evaluator against the enumeration oracle, the exact polynomial
layer, finite differences, and the values the construction must reproduce."""

import itertools
import math
import sys
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

import lupi.winprob
from lupi import (
    ResourceLimitError,
    Strategy,
    WinProbVector,
    exact_win_prob,
    expected_payoff,
    solve_ne,
    symmetric_payoff,
    uniform_asymptotic_win_prob,
    win_prob,
    win_prob_gradient,
    win_prob_poly,
    win_prob_vector,
)
from lupi.winprob import (
    _LOG_ZERO,
    _PRODUCT_N_MAX,
    _SCALED_ABOVE,
    PrefixChance,
    _kernel,
    _log_weights,
    _no_unique_row,
    _product_constants,
    _scaled,
    _scaled_chance,
    _steps,
)

UNIT_ROUNDOFF = 2.0**-53

SQRT3 = math.sqrt(3.0)
NE3 = Strategy([2 * SQRT3 - 3, 2 - SQRT3, 2 - SQRT3])
CNE3 = 28 - 16 * SQRT3


def random_strategy(rng, n):
    raw = rng.random(n) + 1e-3
    return Strategy(raw / raw.sum())


class TestWinProb:
    def test_uniform3_first_number(self):
        assert win_prob(1, Strategy.uniform(3)) == pytest.approx(4 / 9, abs=1e-15)

    def test_uniform3_third_number_oracle_value(self):
        # both opponents must collide on one number while avoiding 3: the
        # enumeration oracle (and a hand count) gives 2/9
        s = Strategy.uniform(3)
        assert exact_win_prob(3, s) == pytest.approx(2 / 9, abs=1e-15)
        assert win_prob(3, s) == pytest.approx(2 / 9, abs=1e-12)

    def test_equilibrium_point_closed_form(self):
        for i in (1, 2, 3):
            assert win_prob(i, NE3) == pytest.approx(CNE3, abs=1e-12)

    def test_point_mass_on_one(self):
        s = Strategy([1.0, 0.0, 0.0, 0.0])
        assert win_prob(1, s) == 0.0

    def test_index_out_of_range(self):
        s = Strategy.uniform(3)
        with pytest.raises(ValueError):
            win_prob(0, s)
        with pytest.raises(ValueError):
            win_prob(4, s)
        for flag in (True, np.True_):  # int(True) == 1, yet a boolean is no index
            with pytest.raises(ValueError):
                win_prob(flag, s)


class TestOracleEquivalence:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_random_strategies(self, n):
        rng = np.random.default_rng(1000 + n)
        for _ in range(25):
            s = random_strategy(rng, n)
            for i in range(1, n + 1):
                assert abs(win_prob(i, s) - exact_win_prob(i, s)) <= 1e-12

    def test_sparse_strategies(self):
        # zeros in the strategy exercise the empty-interval edge cases
        for s in (Strategy.zeng(5), Strategy.flitney(5), Strategy([0.0, 0.5, 0.0, 0.5, 0.0])):
            for i in range(1, 6):
                assert abs(win_prob(i, s) - exact_win_prob(i, s)) <= 1e-12

    def test_nine_player_uniform_decay(self):
        # win chances fall off with the number under uniform play, and the
        # enumeration oracle confirms every value at this size
        s = Strategy.uniform(9)
        values = win_prob_vector(s).values
        assert np.all(np.diff(values) < 0.0)
        for i in range(1, 10):
            assert abs(values[i - 1] - exact_win_prob(i, s)) <= 1e-12


class TestSymbolicEquivalence:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_rational_points(self, n):
        rng = np.random.default_rng(77 + n)
        for _ in range(5):
            ints = rng.integers(1, 30, size=n)
            total = int(ints.sum())
            point = [Fraction(int(v), total) for v in ints]
            s = Strategy([float(q) for q in point])
            for i in range(1, n + 1):
                exact = win_prob_poly(n, i).evaluate(point)
                assert abs(float(exact) - win_prob(i, s)) <= 1e-12

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_independence_of_own_probability(self, n):
        # the exact polynomial for number i contains no p_i, so the closed
        # form cannot depend on it either (its p_i appearance is only the
        # normalization rewrite of the remaining mass)
        for i in range(1, n + 1):
            assert all(e[i - 1] == 0 for e in win_prob_poly(n, i).terms)


class TestPayoffs:
    def test_uniform3_symmetric(self):
        assert symmetric_payoff(Strategy.uniform(3)) == pytest.approx(8 / 27, abs=1e-15)

    def test_product_form_n3(self):
        s = Strategy([0.5, 0.3, 0.2])
        assert symmetric_payoff(s) == pytest.approx(0.5 * 0.7 * 0.8, abs=1e-12)
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = random_strategy(rng, 3)
            p1, p2, p3 = s.probs
            assert symmetric_payoff(s) == pytest.approx(
                (1 - p1) * (1 - p2) * (1 - p3), abs=1e-12
            )

    def test_equilibrium_symmetric_payoff(self):
        assert symmetric_payoff(NE3) == pytest.approx(CNE3, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 4, 6, 9])
    def test_zeng_closed_form(self, n):
        assert symmetric_payoff(Strategy.zeng(n)) == 2.0 ** (1 - n)

    def test_point_mass_payoff_reduces_to_c1(self):
        p = Strategy([0.4, 0.35, 0.25])
        point = Strategy([1.0, 0.0, 0.0])
        assert expected_payoff(point, p).w == pytest.approx(win_prob(1, p), abs=1e-15)

    def test_mismatched_n_rejected(self):
        with pytest.raises(ValueError):
            expected_payoff(Strategy.uniform(3), Strategy.uniform(4))

    def test_above_the_product_form(self):
        # n = 1500 takes the Poisson-scaled vector, and no size limit refuses
        # it: a point mass on 1 earns c_1 = (1 - 1/n)^(n-1), and n W under
        # uniform play is the chance that someone wins, 1 but for the chance
        # that none of the 1500 players picks a number no one else picks
        n = 1500
        s = Strategy.uniform(n)
        point = Strategy(np.eye(1, n)[0])
        assert expected_payoff(point, s).w == pytest.approx((1 - 1 / n) ** (n - 1), rel=1e-12)
        assert n * symmetric_payoff(s) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_normalization_form_equivalence(self, n):
        # summing (c_i - c_n) pi_i + c_n over the free coordinates matches
        # the plain weighted sum: the payoff has only n - 1 degrees of freedom
        rng = np.random.default_rng(10 + n)
        for _ in range(10):
            p = random_strategy(rng, n)
            pi = random_strategy(rng, n)
            c = win_prob_vector(p).values
            w = expected_payoff(pi, p).w
            folded = math.fsum((c[i] - c[n - 1]) * pi.probs[i] for i in range(n - 1)) + c[n - 1]
            assert w == pytest.approx(folded, abs=1e-12)

    def test_report_bounds(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = random_strategy(rng, 5)
            pi = random_strategy(rng, 5)
            report = expected_payoff(pi, p)
            assert 0.0 <= report.w <= 1.0
            assert report.w <= float(np.max(report.per_number.values)) + 1e-15


class TestVector:
    def test_uniform3_vector(self):
        v = win_prob_vector(Strategy.uniform(3)).values
        assert np.allclose(v, [4 / 9, 2 / 9, 2 / 9], atol=1e-12)

    def test_equilibrium_vector_constant(self):
        v = win_prob_vector(NE3).values
        assert np.max(v) - np.min(v) <= 1e-12

    def test_matches_elementwise_calls(self):
        rng = np.random.default_rng(23)
        for n in (3, 6, 11, 20):
            s = random_strategy(rng, n)
            v = win_prob_vector(s).values
            for i in range(1, n + 1):
                assert v[i - 1] == win_prob(i, s)

    def test_no_cap_on_the_number_index(self):
        # the whole vector costs O(n^3), and no setting refuses it
        s = Strategy.uniform(30)
        assert np.array_equal(win_prob_vector(s).values, _kernel(s.probs, 30, 30))

    @pytest.mark.parametrize("n", [_SCALED_ABOVE, _SCALED_ABOVE + 1, 1000, 1001, 1500])
    def test_matches_win_prob_across_the_switch(self, n):
        # the product form at the switch and the Poisson-scaled walk above
        # it, up to and past the product form's own limit of n = 1000: each
        # row of the whole vector is win_prob's value to the bit
        for s in (Strategy.uniform(n), random_strategy(np.random.default_rng(5000 + n), n)):
            v = win_prob_vector(s).values
            for i in (1, 2, 17, n):
                assert v[i - 1] == win_prob(i, s)

    def test_one_poisson_row_per_distinct_mass(self, monkeypatch):
        # the scaled walk builds r_j once for each distinct lam_j = N p_j:
        # once under uniform play, three times for three distinct masses
        lams = []

        def counted(lam):
            lams.append(lam)
            return _no_unique_row(lam)

        monkeypatch.setattr(lupi.winprob, "_no_unique_row", counted)
        win_prob_vector(Strategy.uniform(1000))
        assert len(lams) == 1
        lams.clear()
        raw = np.tile([1.0, 2.0, 3.0], 200)
        win_prob_vector(Strategy(raw / raw.sum()))
        assert len(lams) == len(set(lams)) == 3

    @pytest.mark.parametrize("n", [401, 500, 2000])
    def test_point_mass_chances_stay_probabilities(self, n):
        # with all mass on 1 every later number wins for sure; the scaled
        # walk rounds c_2 a few ulps past 1 at n = 500, and win_prob gives
        # the clipped value too, to the bit
        s = Strategy(np.eye(1, n)[0])
        v = win_prob_vector(s).values
        for i in (2, 3, n):
            assert win_prob(i, s) == v[i - 1] and v[i - 1] <= 1.0

    def test_entries_are_probabilities(self):
        rng = np.random.default_rng(29)
        for n in (3, 5, 9):
            s = random_strategy(rng, n)
            v = win_prob_vector(s).values
            assert np.all(v >= 0.0) and np.all(v <= 1.0)

    @pytest.mark.parametrize("bad", [[math.nan, 0.5, 0.5], [0.5, -0.1, 0.6], [0.2, 0.3, 1.5]])
    def test_rejects_entries_outside_the_unit_interval(self, bad):
        with pytest.raises(ValueError):
            WinProbVector(np.array(bad))


class TestGradient:
    def test_first_number_self_derivative(self):
        s = Strategy.uniform(3)
        g = win_prob_gradient(1, s)
        assert g[0] == pytest.approx(-4 / 3, abs=1e-12)

    def test_first_number_independent_of_others(self):
        g = win_prob_gradient(1, Strategy.uniform(3))
        assert g[1] == 0.0 and g[2] == 0.0

    def test_matches_central_differences(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        for n in (3, 5, 7):
            for _ in range(5):
                s = random_strategy(rng, n)
                x = np.array(s.probs)
                for i in range(1, n + 1):
                    g = win_prob_gradient(i, s)
                    for j in range(n):
                        up = x.copy()
                        dn = x.copy()
                        up[j] += h
                        dn[j] -= h
                        fd = (_kernel(up, n, i)[-1] - _kernel(dn, n, i)[-1]) / (2 * h)
                        assert abs(fd - g[j]) <= 1e-6

    def test_zero_beyond_own_number(self):
        s = Strategy([0.3, 0.3, 0.2, 0.2])
        g = win_prob_gradient(2, s)
        assert g[2] == 0.0 and g[3] == 0.0

    def test_handles_zero_probabilities(self):
        g = win_prob_gradient(3, Strategy.zeng(4))
        assert np.all(np.isfinite(g))

    def test_matches_jacobian_rows(self):
        rng = np.random.default_rng(41)
        for n in (6, 17, 40):
            s = random_strategy(rng, n)
            jac = _kernel(s.probs, n, n, jacobian=n)[1]
            for i in range(1, n + 1):
                scale = np.max(np.abs(jac[i - 1]))
                assert np.max(np.abs(win_prob_gradient(i, s) - jac[i - 1])) <= 1e-13 * scale

    def test_scaled_form_gradient(self):
        # the Poisson-scaled form's gradient against the product form's
        # Jacobian: each gradient entry is a difference of two nonnegative
        # parts, the through-tail slope D = |J_ii| and D + J_ij, so each form
        # errs by at most its relative bound times |J_ij| + 2 D (2 n^2 u for
        # the product form; twice the value bound of the scaled form, whose
        # extra convolution and adjoint sweep repeat its operation count)
        for n in (40, 200, 1000):
            s = random_strategy(np.random.default_rng(43 + n), n)
            for i in sorted({1, 2, 5, min(n, 40)}):  # O(i n^2) rows
                row = _kernel(s.probs, n, i, jacobian=1)[1][0]
                bound = 2 * n * n * UNIT_ROUNDOFF + 2 * scaled_bound(i, s.probs, n)
                grad = _scaled(s.probs, n, i, gradient=True)
                assert np.all(grad[i:] == 0.0)
                assert np.all(np.abs(grad - row) <= bound * (np.abs(row) + 2 * abs(row[i - 1])))

    def test_underflow_to_zero(self):
        # under uniform play at n = 1600 every entry of the prefix table for
        # c_1600 falls below the smallest normal double: the chance and its
        # gradient are 0, not an error
        s = Strategy.uniform(1600)
        assert win_prob(1600, s) == 0.0
        assert np.all(win_prob_gradient(1600, s) == 0.0)

    def test_large_game_matches_central_differences(self):
        # win_prob_gradient at n = 10^4 goes through the Poisson-scaled form;
        # central differences are off by their truncation error, about
        # h^2 n^2 relative since each derivative of c_i in p_j gains a factor ~ n
        n, h = 10**4, 1e-7
        s = random_strategy(np.random.default_rng(47), n)
        for i in (1, 2, 5, 10):
            g = win_prob_gradient(i, s)
            assert np.all(g[i:] == 0.0)
            for j in range(i):
                up, dn = s.probs.copy(), s.probs.copy()
                up[j] += h
                dn[j] -= h
                fd = (_scaled(up, n, i)[-1] - _scaled(dn, n, i)[-1]) / (2 * h)
                assert abs(fd - g[j]) <= h * h * n * n * np.max(np.abs(g))

    @pytest.mark.parametrize("n", [2000, 10**4])
    def test_large_game_matches_decimal_derivatives(self, n):
        # win_prob_gradient and the chain's slope in the tail mass against
        # central differences of the 60-digit reference (step 1e-25, so
        # their own error is below 1e-30 relative), at a random strategy
        # and with p_1 = 0.1 (N p_1 = 200 and 1000; at n = 10^4 its row is
        # anchored at the mode and starts above k = 0)
        skewed = np.full(n, 0.9 / (n - 1))
        skewed[0] = 0.1
        for s, i in itertools.product(
            (random_strategy(np.random.default_rng(53 + n), n), Strategy(skewed)), (1, 2, 5, 10)
        ):
            ref = decimal_gradient(i, s.probs, n)
            slope = abs(ref[i - 1])
            grad = win_prob_gradient(i, s)
            bound = 2 * scaled_bound(i, s.probs, n)
            assert np.all(np.abs(grad[:i] - ref) <= bound * (np.abs(ref) + 2 * slope))

            chance = PrefixChance(n)
            for j in range(i - 1):
                chance.fix(math.fsum([1.0, *(-s.probs[: j + 1])]))
            tail = math.fsum([1.0, *(-s.probs[:i])])
            value, at_tail = chance.at_tail(tail)
            # at_tail takes T itself: its log costs N u more than log1p(-S_i)
            tol = scaled_bound(i, s.probs, n) + n * UNIT_ROUNDOFF
            exact = decimal_chance(s.probs[: i - 1], Decimal(tail), n)
            assert abs(value - float(exact)) <= tol * float(exact)
            assert abs(at_tail - decimal_tail_slope(s.probs[: i - 1], tail, n)) <= 2 * tol * slope


def decimal_chance(prefix, tail, n):
    """The paper's inclusion-exclusion sum for ``c_i``, ``i = len(prefix) + 1``,
    at the tail mass ``tail = T_i`` (a Decimal), in 60-digit decimal
    arithmetic from the exact binary inputs. ``1 - p_i - sum_S p_j`` is
    ``T_i`` plus the prefix mass outside ``S``, so subsets that take the
    same count of each distinct prefix value share one term: 40 terms cover
    ``i = 40`` under uniform play."""
    big_n = n - 1
    with localcontext() as ctx:
        ctx.prec = 60
        exact = (v if isinstance(v, Decimal) else Decimal(float(v)) for v in prefix)
        groups = list(Counter(exact).items())
        total = Decimal(0)
        for sizes in itertools.product(*(range(count + 1) for _, count in groups)):
            size = sum(sizes)
            weight, base = Decimal((-1) ** size * math.perm(big_n, size)), tail
            for (v, count), k in zip(groups, sizes):
                weight *= math.comb(count, k) * v**k
                base += (count - k) * v
            total += weight * base ** (big_n - size)
        return +total


def decimal_win_prob(i, probs, n):
    """``c_i`` at raw coordinates by :func:`decimal_chance`."""
    with localcontext() as ctx:
        ctx.prec = 60
        tail = 1 - sum(Decimal(float(v)) for v in probs[:i])
    return decimal_chance(probs[: i - 1], tail, n)


def decimal_gradient(i, probs, n, h=Decimal("1e-25")):
    """Central differences of the decimal reference in ``p_1..p_i``."""
    out = []
    for j in range(i):
        with localcontext() as ctx:
            ctx.prec = 60
            prefix = [Decimal(float(v)) for v in probs[: i - 1]]
            tail = 1 - sum(Decimal(float(v)) for v in probs[:i])
            if j < i - 1:
                up, dn = list(prefix), list(prefix)
                up[j] += h
                dn[j] -= h
                diff = decimal_chance(up, tail - h, n) - decimal_chance(dn, tail + h, n)
            else:
                diff = decimal_chance(prefix, tail - h, n) - decimal_chance(prefix, tail + h, n)
            out.append(float(diff / (2 * h)))
    return np.array(out)


def decimal_tail_slope(prefix, tail, n, h=Decimal("1e-25")):
    """``dc_i/dT`` of the decimal reference at the tail mass ``tail``."""
    with localcontext() as ctx:
        ctx.prec = 60
        t = Decimal(tail)
        return float((decimal_chance(prefix, t + h, n) - decimal_chance(prefix, t - h, n)) / (2 * h))


def scaled_bound(i, probs, n):
    """Relative error bound of the Poisson-scaled form, ``24 (N S_i + i) u``.

    First order in ``u``, per term ``g[m] w_m`` (all nonnegative, so the
    sum's relative error is the term-weighted mean of theirs):
    * ``log w_m`` adds ``N S_(i-1)``, ``(N-m) log1p(-S_i)`` and the falling
      product (size about ``m``), each a few roundings from exact: an
      absolute error of ``3 (N S_(i-1) + N S_i + m) u``;
    * a Poisson entry ``pmf(k; lam_j)`` has ``e^-lam`` (``u``), the rounded
      ``lam_j = N p_j`` (``(k + lam_j) u``) and ``k`` recurrence steps of
      two roundings: ``(3k + lam_j + 1) u``, so ``(3m + N S_(i-1) + i) u``
      over the ``i - 1`` numbers;
    * each convolution adds a product and a sum of nonnegative terms whose
      addends below ``u`` times the entry change it by less than
      themselves: about 20 significant addends for ``N p_j <= 5`` (Poisson
      mass above ``u`` reaches ``k = 18`` at ``lam = 1``), ``21 i u``;
    * weighted by the terms, ``m`` averages at most ``1.6 N S_(i-1)``:
      a count ``k != 1`` of a Poisson(lam) has mean
      ``lam (1 - e^-lam) / (1 - lam e^-lam) <= lam / (1 - 1/e)``.
    Together ``(4 N S_(i-1) + 3 N S_i + 6 m + 22 i) u <= (17 N S_i + 22 i) u``,
    under ``24 (N S_i + i) u``.
    """
    return 24 * ((n - 1) * math.fsum(probs[:i]) + i) * UNIT_ROUNDOFF


def product_form_exact(probs, n):
    """``c_1..c_n`` of the product form in rational arithmetic: the table
    ``F_j[m] = sum_{k != 1} C(m, k) p_j^k F_{j-1}[m-k]`` and
    ``c_i = sum_m C(N, m) F_{i-1}[m] T_i^(N-m)``, ``T_i = 1 - p_1 - ... - p_i``."""
    big_n = n - 1
    table = [Fraction(1)] + [Fraction(0)] * big_n
    tail = Fraction(1)
    out = []
    for p in probs:
        tail -= p
        out.append(sum(math.comb(big_n, m) * f * tail ** (big_n - m) for m, f in enumerate(table)))
        powers = [p**k for k in range(n)]
        table = [
            sum(math.comb(m, k) * powers[k] * table[m - k] for k in range(m + 1) if k != 1)
            for m in range(n)
        ]
    return out


class TestProductForm:
    @pytest.mark.parametrize("n", [20, 22, 24])
    def test_matches_exact_rationals(self, n):
        # Error bound from the operation count: each of the i - 1 table steps
        # sums at most n nonnegative products of three factors (relative
        # error (n + 3) u), and the final sum adds the power T^(N-m) of an
        # exactly rounded T (N u) and n more terms, so the relative error
        # of c_i stays below (i - 1)(n + 3) u + 2 n u <= 2 n^2 u.
        rng = np.random.default_rng(2000 + n)
        strategies = [random_strategy(rng, n) for _ in range(2)] + [Strategy.uniform(n)]
        if n == 20:
            strategies.append(solve_ne(20).strategy)
        bound = 2 * n * n * UNIT_ROUNDOFF
        for s in strategies:
            exact = product_form_exact([Fraction(x) for x in s.probs.tolist()], n)
            values = _kernel(s.probs, n, n)
            for c, e in zip(values, exact):
                assert abs(Fraction(float(c)) - e) <= bound * e

    def test_route_follows_the_game_size(self):
        # up to the size limit every number takes the product form, above it
        # the Poisson-scaled form, so c11 and the large-game checks run on it
        s = random_strategy(np.random.default_rng(53), 40)
        for i in (1, 4, 10, 40):
            assert win_prob(i, s) == _kernel(s.probs, 40, 40)[i - 1]
        s = Strategy.uniform(10**4)
        for i in (1, 4, 10, 20):
            assert win_prob(i, s) == _scaled(s.probs, 10**4, i)[-1]

    @pytest.mark.parametrize("n", [40, 200, 1000])
    def test_scaled_form_agrees_at_moderate_n(self, n):
        # the Poisson-scaled form against the product form below the size
        # limit, where both serve: within the sum of their bounds
        rng = np.random.default_rng(3000 + n)
        for s in (random_strategy(rng, n), Strategy.uniform(n)):
            product = _kernel(s.probs, n, 40)  # O(n^3) in full
            for i in (1, 2, 5, 10, 20, 39, 40):
                tol = 2 * n * n * UNIT_ROUNDOFF + scaled_bound(i, s.probs, n)
                assert abs(_scaled(s.probs, n, i)[-1] - product[i - 1]) <= tol * product[i - 1]

    @pytest.mark.parametrize("n", [10**4, 10**6])
    def test_error_above_the_size_limit(self, n):
        # uniform play, c_1..c_40, and a seeded first 10 numbers with masses
        # (0.5..1.5) 3/n, c_1..c_11, against the 60-digit reference
        seeded = np.empty(n)
        seeded[:10] = (0.5 + np.random.default_rng(n).random(10)) * 3 / n
        seeded[10:] = (1.0 - math.fsum(seeded[:10])) / (n - 10)
        for s, depth in ((Strategy.uniform(n), 40), (Strategy(seeded), 11)):
            for i in range(1, depth + 1):
                exact = decimal_win_prob(i, s.probs, n)
                error = abs(Decimal(win_prob(i, s)) - exact) / exact
                assert error <= scaled_bound(i, s.probs, n)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 4.5, 700.0, 1000.0, 12345.6])
    def test_poisson_rows(self, lam):
        # each entry against exact decimal probabilities: the anchor (k = 0
        # by e^-lam, or the mode by the saddle-point form) is within 6
        # roundings, and each recurrence step adds two; the row ends where
        # the probabilities leave the normal range, and its k = 1 entry is 0
        lo, row = _no_unique_row(lam)
        anchor = int(lam) if lam > -math.log(sys.float_info.min) else 0
        with localcontext() as ctx:
            ctx.prec = 60
            x = Decimal(lam)
            mode = int(lam)
            exact = {mode: (-x).exp() * x**mode / Decimal(math.factorial(mode))}
            for k in range(mode, lo + row.size):
                exact[k + 1] = exact[k] * x / (k + 1)
            for k in range(mode, max(lo - 1, 0), -1):
                exact[k - 1] = exact[k] * k / x
        tiny = Decimal(sys.float_info.min)
        assert exact[lo + row.size] < tiny and (lo == 0 or exact[lo - 1] < tiny)
        if lo <= 1:
            assert row[1 - lo] == 0.0
            exact[1] = Decimal(0)
        for k, value in enumerate(row.tolist(), lo):
            bound = Decimal((2 * abs(k - anchor) + 8) * UNIT_ROUNDOFF)
            assert abs(Decimal(value) - exact[k]) <= bound * exact[k]

    @pytest.mark.parametrize("n", [9, 24, 200, 2000])
    def test_prefix_chance_matches_win_prob(self, n):
        # the chain's evaluator (Horner's rule in R - p_i, or the
        # Poisson-scaled form above the size limit) against the product form
        # or the decimal reference, within the product form's 2 n^2 u. The
        # slope in the tail mass T = R - p_i is minus the derivative in p_i.
        rng = np.random.default_rng(4000 + n)
        s = random_strategy(rng, n)
        chance = PrefixChance(n)
        for i in range(1, 5):
            candidates = np.append(s.probs[i - 1], rng.random(7) * chance.rest)
            for x in candidates:
                probs = s.probs.copy()
                probs[i - 1] = x
                if n > _PRODUCT_N_MAX:
                    ref = float(decimal_win_prob(i, probs, n))
                    ref_slope = -decimal_gradient(i, probs, n)[i - 1]
                else:
                    values, jac = _kernel(probs, n, i, jacobian=1)
                    ref, ref_slope = values[-1], -jac[0, i - 1]
                tol = 2 * n * n * UNIT_ROUNDOFF
                at_tail, slope = chance.at_tail(chance.rest - float(x))
                assert abs(at_tail - ref) <= tol * ref
                assert abs(slope - ref_slope) <= tol * ref_slope
            chance.fix(math.fsum([1.0, *(-s.probs[:i])]))

    @pytest.mark.parametrize("n", [401, 500])
    def test_prefix_chance_weights_formed_at_fix(self, n):
        # above the product form the weights of the fixed prefix are formed
        # once per fix: the same bits as forming them inline at every call
        s = random_strategy(np.random.default_rng(4100 + n), n)
        chance = PrefixChance(n)
        for i in range(1, 5):
            weights = _log_weights(chance._table, n - 1, (n - 1) * math.fsum(chance.prefix))
            for tail in (chance.rest, 0.5 * chance.rest, 0.0):
                log_tail = math.log(tail) if tail > 0.0 else _LOG_ZERO
                inline = _scaled_chance(chance._table, weights, log_tail)
                assert [v.hex() for v in chance.at_tail(tail)] == [v.hex() for v in inline]
            chance.fix(math.fsum([1.0, *(-s.probs[:i])]))

    def test_constants_hold_one_binomial_row(self):
        # a view of the last row would keep the whole (n, n) table cached
        binom_n = _product_constants(12)[0]
        assert binom_n.base is None and not binom_n.flags.writeable
        assert binom_n.tolist() == [math.comb(11, m) for m in range(12)]

    def test_no_overflow_at_the_size_limit(self):
        n = _PRODUCT_N_MAX
        with pytest.raises(ResourceLimitError):
            _product_constants(n + 1)
        skewed = np.full(n, 0.001 / (n - 1))
        skewed[0] = 0.999  # p near 1 makes C(m, k) p^k largest
        for probs in (np.full(n, 1.0 / n), skewed):
            values = _kernel(probs, n, 26)
            assert np.all(np.isfinite(values)) and np.all((values >= 0.0) & (values <= 1.0))
            for i in range(2, 7):
                assert values[i - 1] == pytest.approx(float(decimal_win_prob(i, probs, n)), rel=1e-12)
        _, jac = _kernel(skewed, n, 3, jacobian=3)
        assert np.all(np.isfinite(jac))
        assert np.all(np.isfinite(win_prob_gradient(26, Strategy(skewed))))


def bits(result) -> bytes:
    """The bytes of one array or of a tuple of them: equal only when every
    bit is, the sign of zero included."""
    arrays = result if isinstance(result, tuple) else (result,)
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)


def one_step_kernel(probs, n, upto, jacobian=0):
    """``_kernel`` as written before its step matrices came in chunks: each
    ``W_j`` and ``dW_j/dp_j`` gathered from one power row when it is used.
    The reference for the bits of every chunking."""
    binom_n, coef, slope, _ = _product_constants(n)
    k = np.maximum(np.arange(n)[:, None] - np.arange(n), 0)

    def step(p):
        return coef * np.power(p, np.arange(n))[k]

    expo = np.arange(n - 1, -1, -1)
    tables = np.zeros((upto, n))
    tables[0, 0] = 1.0
    for j in range(1, upto):
        tables[j] = step(float(probs[j - 1])) @ tables[j - 1]
    terms = [1.0, *(-v for v in probs[:upto].tolist())]
    tails = np.array([[math.fsum(terms[: i + 1])] for i in range(1, upto + 1)])
    weights = binom_n * np.power(tails, expo)
    values = (weights * tables).sum(axis=1)
    if not jacobian:
        return values
    first = upto - jacobian
    power = np.power(tails[first:], np.maximum(expo - 1, 0))
    through_tail = (binom_n * expo * power * tables[first:]).sum(axis=1)
    jac = -through_tail[:, None] * (np.arange(n) < np.arange(first + 1, upto + 1)[:, None])
    adjoint = np.zeros((n, jacobian))
    for j in range(upto - 1, 0, -1):
        if j >= first:
            adjoint[:, j - first] = weights[j]
        p = float(probs[j - 1])
        lowered = np.concatenate(([0.0], np.power(p, np.arange(n - 1))))
        jac[:, j - 1] += adjoint.T @ ((slope * lowered[k]) @ tables[j - 1])
        adjoint = step(p).T @ adjoint
    return values, jac


class TestStepBatches:
    """The kernel builds its step matrices in chunks of ``_STEP_BUDGET``
    entries and reuses them in the reverse sweep; no chunking may move a bit."""

    @pytest.mark.parametrize("n", [3, 12, 17, 40])
    def test_steps_match_one_power_row(self, n):
        # the strided view against the plain gather C(m, k) p^k, k = m - m'
        # clamped at 0, with p^(k-1) for the slopes
        _, coef, slope, _ = _product_constants(n)
        rows = np.arange(n)[:, None]
        k = np.maximum(rows - np.arange(n), 0)
        probs = np.array([0.0, 1.0 / n, 0.3, 1.0])
        out, slopes = np.empty((4, n, n)), np.empty((4, n, n))
        _steps(probs[:, None], n, out, slopes)
        for p, step, derivative in zip(probs.tolist(), out, slopes):
            lowered = np.concatenate(([0.0], np.power(p, np.arange(n - 1))))
            assert bits(_steps(p, n)) == bits(step) == bits(coef * np.power(p, np.arange(n))[k])
            assert bits(derivative) == bits(slope * lowered[k])

    @pytest.mark.parametrize("n", [3, 12, 17, 40])
    def test_bits_do_not_depend_on_the_budget(self, n, monkeypatch):
        # the default (one chunk up to n = 40), one step per chunk and a
        # chunk boundary inside the sweep, on a strategy with zero entries:
        # each the same to the bit as one step at a time, whose C-ordered
        # matrices fix the summation order of every matrix-vector product
        rng = np.random.default_rng(6000 + n)
        raw = rng.random(n) + 1e-3
        raw[rng.random(n) < 0.3] = 0.0
        raw[0] += 0.1
        probs = raw / raw.sum()
        calls = [(upto, r) for upto in sorted({2, n // 2 + 1, n}) for r in sorted({0, 1, upto})]
        reference = [bits(one_step_kernel(probs, n, upto, jacobian=r)) for upto, r in calls]
        for budget in (lupi.winprob._STEP_BUDGET, 1, 3 * n * n):
            monkeypatch.setattr(lupi.winprob, "_STEP_BUDGET", budget)
            assert [bits(_kernel(probs, n, upto, jacobian=r)) for upto, r in calls] == reference

    @pytest.mark.parametrize("n", [3, 8, 17, 40])
    def test_each_point_of_a_stack_matches_its_own_call(self, n, monkeypatch):
        # a stack of points, with zero entries and the uniform point, under
        # budgets that put chunk boundaries inside the stacked sweep: each
        # point's values and Jacobian the same to the bit as its own call
        rng = np.random.default_rng(7000 + n)
        raw = rng.random((4, n)) + 1e-3
        raw[rng.random((4, n)) < 0.3] = 0.0
        raw[:, 0] += 0.1
        stack = np.vstack((raw / raw.sum(axis=1, keepdims=True), np.full(n, 1.0 / n)))
        calls = [(upto, r) for upto in sorted({2, n // 2 + 1, n}) for r in sorted({0, 1, upto})]
        for budget in (lupi.winprob._STEP_BUDGET, 1, 3 * n * n, 3 * len(stack) * n * n):
            monkeypatch.setattr(lupi.winprob, "_STEP_BUDGET", budget)
            for upto, r in calls:
                together = _kernel(stack, n, upto, jacobian=r)
                lanes = zip(*together) if r else together
                for p, lane in zip(stack, lanes):
                    assert bits(lane) == bits(_kernel(p, n, upto, jacobian=r))

    def test_memory_stays_bounded(self):
        # from n = 256 a chunk is one step matrix per buffer, so the full
        # Jacobian at n = 400 peaks near 11 MiB; built one step at a time
        # it peaked at 8.6 MiB, and with no budget it would hold 1 GiB
        probs = Strategy.uniform(400).probs
        _product_constants(400)
        tracemalloc.start()
        try:
            _kernel(probs, 400, 400, jacobian=400)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 9 * 2**20


class TestAsymptotics:
    def test_first_values(self):
        assert uniform_asymptotic_win_prob(1) == pytest.approx(math.exp(-1), abs=1e-15)
        assert uniform_asymptotic_win_prob(2) == pytest.approx(0.23254415793483, abs=1e-12)

    def test_geometric_series_sums_to_one(self):
        assert math.fsum(uniform_asymptotic_win_prob(i) for i in range(1, 400)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_large_game_uniform_play(self):
        s = Strategy.uniform(10**4)
        for i in (1, 2, 3):
            assert abs(win_prob(i, s) - uniform_asymptotic_win_prob(i)) <= 1e-3

    def test_bad_index(self):
        with pytest.raises(ValueError):
            uniform_asymptotic_win_prob(0)
