"""Closed-form evaluator against the enumeration oracle, the exact polynomial
layer, finite differences, and the values the construction must reproduce."""

import math
from fractions import Fraction

import numpy as np
import pytest

from lupi import (
    ResourceLimitError,
    Strategy,
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
    _PRODUCT_N_MAX,
    PrefixChance,
    _ci_subsets,
    _ci_subsets_gradient,
    _kernel,
    _product_constants,
    _signed_falling,
    _subset_blocks,
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

    def test_subset_cap(self):
        s = Strategy.uniform(40)
        with pytest.raises(ResourceLimitError):
            win_prob(30, s, cap=20)

    def test_subset_cap_env(self, monkeypatch):
        monkeypatch.setenv("LUPI_SUBSET_CAP", "3")
        s = Strategy.uniform(8)
        with pytest.raises(ResourceLimitError):
            win_prob(6, s)
        assert win_prob(3, s) > 0.0


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

    def test_entries_are_probabilities(self):
        rng = np.random.default_rng(29)
        for n in (3, 5, 9):
            s = random_strategy(rng, n)
            v = win_prob_vector(s).values
            assert np.all(v >= 0.0) and np.all(v <= 1.0)


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
                assert np.max(np.abs(win_prob_gradient(i, s, cap=n) - jac[i - 1])) <= 1e-13 * scale

    def test_subset_sum_gradient(self):
        # the route above the product form's size limit: against the
        # kernel's Jacobian off the simplex, where the subset sum's
        # cancellation costs up to about 1e-12 relative
        rng = np.random.default_rng(43)
        for n in (5, 14):
            x = random_strategy(rng, n).probs + rng.normal(0.0, 1e-3, n)
            jac = _kernel(x, n, n, jacobian=n)[1]
            for i in range(1, n + 1):
                scale = np.max(np.abs(jac[i - 1]))
                assert np.max(np.abs(_ci_subsets_gradient(i, x, n) - jac[i - 1])) <= 1e-11 * scale

    def test_large_game_matches_central_differences(self):
        # win_prob_gradient at n = 10^4 goes through the subset sum; central
        # differences are off by their truncation error, about h^2 n^2
        # relative since each derivative of c_i in p_j gains a factor ~ n
        n, h = 10**4, 1e-7
        s = random_strategy(np.random.default_rng(47), n)
        for i in (1, 2, 5, 10):
            g = win_prob_gradient(i, s)
            assert np.all(g[i:] == 0.0)
            for j in range(i):
                up, dn = s.probs.copy(), s.probs.copy()
                up[j] += h
                dn[j] -= h
                fd = (subsets(i, up, n) - subsets(i, dn, n)) / (2 * h)
                assert abs(fd - g[j]) <= h * h * n * n * np.max(np.abs(g))


def subsets(i, probs, n):
    """``c_i`` by the inclusion-exclusion sum at raw coordinates."""
    return _ci_subsets(probs[: i - 1], float(probs[i - 1]), n)


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


def subset_sum_magnitude(i, probs, n):
    """Sum of the absolute values of the inclusion-exclusion terms for c_i."""
    coef = np.abs(_signed_falling(n, i - 1))
    return sum(
        float(np.sum(coef[size] * prod * np.power(1.0 - probs[i - 1] - total, n - 1 - size)))
        for prod, total, size in _subset_blocks(probs[: i - 1])
    )


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
        # the subset sum, so c11 and the large-game checks run as before
        s = random_strategy(np.random.default_rng(53), 40)
        for i in (1, 4, 10, 40):
            assert win_prob(i, s, cap=40) == _kernel(s.probs, 40, 40)[i - 1]
        s = Strategy.uniform(10**4)
        for i in (1, 4, 10, 20):
            assert win_prob(i, s) == subsets(i, s.probs, 10**4)

    @pytest.mark.parametrize("n", [30, 36, 40])
    def test_subset_sum_agrees_at_moderate_n(self, n):
        # the product form's error is 2 n^2 u relative; the subset sum's
        # terms each carry a relative error of at most about
        # (N - s)(s + 1) u / base <= n^2 u with bases above 1/4 here, and
        # their cancellation (sum |term| up to 1e4 c_i) multiplies it
        rng = np.random.default_rng(3000 + n)
        for s in (random_strategy(rng, n), Strategy.uniform(n)):
            product = _kernel(s.probs, n, 14)
            for i in range(1, 15):
                magnitude = subset_sum_magnitude(i, s.probs, n)
                tol = n * n * UNIT_ROUNDOFF * (2 * product[i - 1] + magnitude)
                assert abs(product[i - 1] - subsets(i, s.probs, n)) <= tol

    @pytest.mark.parametrize("n", [9, 24, 200, 2000])
    def test_prefix_chance_matches_win_prob(self, n):
        # the chain's evaluator (Horner's rule in R - p_i, or the subset sum
        # above the size limit, pairwise on arrays) against the scalar route,
        # within the product form's 2 n^2 u; the subset sum at n = 2000 only
        # reaches i = 4, where its cancellation is mild
        rng = np.random.default_rng(4000 + n)
        s = random_strategy(rng, n)
        chance = PrefixChance(n)
        for i in range(1, 5):
            candidates = np.append(s.probs[i - 1], rng.random(7) * chance.rest)
            for x, value in zip(candidates, chance(candidates)):
                probs = s.probs.copy()
                probs[i - 1] = x
                ref = subsets(i, probs, n) if n > _PRODUCT_N_MAX else _kernel(probs, n, i)[-1]
                assert abs(value - ref) <= 2 * n * n * UNIT_ROUNDOFF * ref
                assert abs(chance(float(x)) - ref) <= 2 * n * n * UNIT_ROUNDOFF * ref
            chance.fix(s.probs[i - 1])

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
                assert values[i - 1] == pytest.approx(subsets(i, probs, n), rel=1e-12)
        _, jac = _kernel(skewed, n, 3, jacobian=3)
        assert np.all(np.isfinite(jac))
        assert np.all(np.isfinite(win_prob_gradient(26, Strategy(skewed))))


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
