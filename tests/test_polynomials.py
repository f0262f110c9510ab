"""Exact polynomial layer: operators, identities, and the game polynomials."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from lupi import (
    ResourceLimitError,
    SparsePolynomial,
    differentiate,
    eliminate,
    no_winner_poly,
    no_winner_poly_by_subsets,
    opponents_outcome_poly,
    project_linear,
    win_prob_poly,
)
from lupi.polynomials import _outcome_terms

WIN_PROB_POLY_SHA256 = {
    3: "b3c9cc24753d28bf29eae3c4f90b25740384cb455d5af326f696f018d121c9e7",
    4: "40d6f0de550f46f6ac80edd4fb03b6605dcae6557119695c6effe9fb6376f4d6",
    5: "16fe802b4e203d84006b65989ccafbd47307ea4105abe8183b72774975a69a30",
    6: "38441905baf07400e6dc1047d7f7d8a77b503000bf322788bb450e324960293a",
    7: "2b24630ed91919e49d707de00a412bec16c508cfe637b430bf3dbc88c79985b1",
    8: "5e491c0ddd437586aac2efc198f7a2d861a55a69afa8081e3baca01aed192101",
}


def poly(nvars, terms):
    return SparsePolynomial(nvars, terms)


def random_poly(rng, nvars, max_terms=6, max_degree=5):
    """Random sparse polynomial with exact rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        total = rng.randint(0, max_degree)
        exps = [0] * nvars
        for _ in range(total):
            exps[rng.randrange(nvars)] += 1
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if coeff:
            terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return SparsePolynomial(nvars, terms)


def evaluate_by_terms(q, values):
    """Term-by-term Fraction evaluation: the reference for the exact path."""
    total = Fraction(0)
    for exps, coeff in q.terms.items():
        term = coeff
        for v, e in zip(values, exps):
            if e:
                term = term * Fraction(v) ** e
        total = total + term
    return total


def assert_clean(q):
    """Stored terms are length-nvars int tuples with nonzero Fractions."""
    for exps, coeff in q.terms.items():
        assert type(exps) is tuple and len(exps) == q.nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert type(coeff) is Fraction and coeff != 0


class TestOperators:
    def test_differentiate_power_rule(self):
        q = poly(2, {(2, 1): 1})  # p1^2 p2
        assert differentiate(q, 1) == poly(2, {(1, 1): 2})

    def test_differentiate_constant_in_var(self):
        q = poly(2, {(2, 0): 1})
        assert differentiate(q, 2) == poly(2, {})

    def test_differentiate_linear(self):
        q = poly(1, {(1,): 3})
        assert differentiate(q, 1) == poly(1, {(0,): 3})

    def test_eliminate_substitutes_zero(self):
        q = poly(2, {(1, 1): 1, (0, 2): 1})  # p1 p2 + p2^2
        assert eliminate(q, 1) == poly(2, {(0, 2): 1})

    def test_eliminate_unrelated_var(self):
        q = poly(3, {(1, 1, 0): 1})
        assert eliminate(q, 3) == q

    def test_eliminate_to_zero(self):
        assert eliminate(poly(1, {(1,): 1}), 1) == poly(1, {})

    def test_project_kills_quadratic(self):
        q = poly(2, {(2, 1): 3})  # 3 p1^2 p2
        assert project_linear(q, 1) == poly(2, {})

    def test_project_keeps_linear(self):
        q = poly(2, {(1, 1): 2})
        assert project_linear(q, 1) == q

    def test_project_extracts_linear_term(self):
        q = poly(2, {(1, 0): 1, (0, 1): 1, (0, 3): 1})  # p1 + p2 + p2^3
        assert project_linear(q, 2) == poly(2, {(0, 1): 1})

    def test_project_is_composite_of_operators(self):
        # the direct filter against its definition by differentiation and
        # elimination; high degrees make every exponent 0..3 of p_i appear
        rng = random.Random(12)
        for _ in range(60):
            nvars = rng.randint(1, 5)
            q = random_poly(rng, nvars, max_terms=12, max_degree=8)
            for i in range(1, nvars + 1):
                composite = SparsePolynomial.variable(nvars, i) * eliminate(differentiate(q, i), i)
                assert project_linear(q, i) == composite

    def test_outputs_stay_clean(self):
        rng = random.Random(77)
        for _ in range(30):
            q1, q2 = random_poly(rng, 4), random_poly(rng, 4)
            i = rng.randint(1, 4)
            outputs = [
                differentiate(q1, i),
                eliminate(q1, i),
                project_linear(q1, i),
                q1 + q2,
                q1 - q2,
                q1 + q1.scale(-1),
                -q1,
            ]
            for q in outputs:
                assert_clean(q)
            assert q1 - q1 == SparsePolynomial(4, {})
        for n in (3, 5):
            assert_clean(opponents_outcome_poly(n))
            for i in range(1, n + 1):
                assert_clean(no_winner_poly(n, i))
                assert_clean(no_winner_poly_by_subsets(n, i))
                assert_clean(win_prob_poly(n, i))

    @pytest.mark.parametrize("build", [
        lambda: SparsePolynomial(2, {(1.5, 0): 1}),
        lambda: SparsePolynomial(2.5, {}),
        lambda: SparsePolynomial(2, {(1, 0): 1}) ** 1.5,
    ], ids=["exponent", "nvars", "power"])
    def test_fractions_are_not_truncated(self, build):
        with pytest.raises(ValueError):
            build()

    def test_index_out_of_range(self):
        q = poly(2, {(1, 0): 1})
        for op in (differentiate, eliminate, project_linear):
            with pytest.raises(ValueError):
                op(q, 0)
            with pytest.raises(ValueError):
                op(q, 3)


class TestOutcomePolynomial:
    def test_three_player_expansion(self):
        expected = poly(
            3,
            {
                (2, 0, 0): 1,
                (0, 2, 0): 1,
                (0, 0, 2): 1,
                (1, 1, 0): 2,
                (1, 0, 1): 2,
                (0, 1, 1): 2,
            },
        )
        assert opponents_outcome_poly(3) == expected

    def test_matches_repeated_multiplication(self):
        for n in (3, 4, 5):
            linear = SparsePolynomial(
                n, {tuple(1 if j == k else 0 for j in range(n)): 1 for k in range(n)}
            )
            assert opponents_outcome_poly(n) == linear ** (n - 1)

    def test_coefficient_sum(self):
        assert opponents_outcome_poly(4).coefficient_sum() == 4**3

    def test_term_count(self):
        assert len(opponents_outcome_poly(3).terms) == 6

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            opponents_outcome_poly(9)

    def test_cached_terms_not_shared(self):
        first = opponents_outcome_poly(5)
        first.terms.clear()
        second = opponents_outcome_poly(5)
        assert second.coefficient_sum() == 5**4
        assert second.terms is not opponents_outcome_poly(5).terms

    def test_cap_checked_before_build(self):
        _outcome_terms.cache_clear()
        with pytest.raises(ResourceLimitError):
            opponents_outcome_poly(9)
        assert _outcome_terms.cache_info().currsize == 0


class TestNoWinnerPolynomial:
    def test_first_projection_n3(self):
        # (p1+p2+p3)^2 - 2 p1 (p2+p3)
        expected = poly(
            3,
            {
                (2, 0, 0): 1,
                (0, 2, 0): 1,
                (0, 0, 2): 1,
                (1, 1, 0): 0,
                (1, 0, 1): 0,
                (0, 1, 1): 2,
            },
        )
        assert no_winner_poly(3, 1) == expected

    def test_depth_zero_is_outcome_poly(self):
        assert no_winner_poly(5, 0) == opponents_outcome_poly(5)

    def test_no_linear_terms_survive(self):
        q = no_winner_poly(4, 2)
        for i in (1, 2):
            assert project_linear(q, i) == SparsePolynomial(4, {})

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_recursion_equals_subset_expansion(self, n):
        for k in range(n + 1):
            assert no_winner_poly(n, k) == no_winner_poly_by_subsets(n, k)

    def test_depth_out_of_range(self):
        with pytest.raises(ValueError):
            no_winner_poly(4, 5)
        with pytest.raises(ValueError):
            no_winner_poly(4, -1)


class TestWinProbPolynomial:
    def test_first_number_n3(self):
        # (p2+p3)^2
        expected = poly(3, {(0, 2, 0): 1, (0, 0, 2): 1, (0, 1, 1): 2})
        assert win_prob_poly(3, 1) == expected

    def test_second_number_n3(self):
        # (p1+p3)^2 - 2 p1 p3
        expected = poly(3, {(2, 0, 0): 1, (0, 0, 2): 1, (1, 0, 1): 0})
        assert win_prob_poly(3, 2) == expected

    def test_elimination_idempotent(self):
        for i in (1, 2, 3, 4):
            q = win_prob_poly(4, i)
            assert eliminate(q, i) == q

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_own_variable_absent(self, n):
        # the win-with-i polynomial never references p_i at all
        for i in range(1, n + 1):
            q = win_prob_poly(n, i)
            assert all(exps[i - 1] == 0 for exps in q.terms)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_equals_the_public_recursion(self, n):
        # p_i is eliminated first; the public operators, in the order of the
        # definition, give the same terms, coefficients and key order
        for i in range(1, n + 1):
            reference = eliminate(no_winner_poly(n, i - 1), i)
            assert list(win_prob_poly(n, i).terms.items()) == list(reference.terms.items())

    @pytest.mark.parametrize("n", range(3, 9))
    def test_golden_digest(self, n):
        # sha256 over canonical_text of win_prob_poly(n, 1..n), recorded
        # when opponents_outcome_poly built its terms afresh on every call
        digest = hashlib.sha256()
        for i in range(1, n + 1):
            digest.update(win_prob_poly(n, i).canonical_text().encode())
        assert digest.hexdigest() == WIN_PROB_POLY_SHA256[n]


class TestOperatorIdentities:
    """The projection-operator identity suite on random polynomials."""

    def setup_method(self):
        self.rng = random.Random(20240917)

    def cases(self, count=20, nvars=5):
        for _ in range(count):
            yield random_poly(self.rng, nvars)

    def test_idempotence(self):
        for q in self.cases():
            i = self.rng.randint(1, q.nvars)
            assert project_linear(project_linear(q, i), i) == project_linear(q, i)

    def test_commutation(self):
        for q in self.cases():
            i, j = self.rng.sample(range(1, q.nvars + 1), 2)
            assert project_linear(project_linear(q, j), i) == project_linear(
                project_linear(q, i), j
            )

    def test_linearity(self):
        for q1 in self.cases(10):
            q2 = random_poly(self.rng, q1.nvars)
            a = Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 9))
            b = Fraction(self.rng.randint(-9, 9), self.rng.randint(1, 9))
            i = self.rng.randint(1, q1.nvars)
            lhs = project_linear(q1.scale(a) + q2.scale(b), i)
            rhs = project_linear(q1, i).scale(a) + project_linear(q2, i).scale(b)
            assert lhs == rhs

    def test_commutes_with_elimination(self):
        for q in self.cases():
            i, j = self.rng.sample(range(1, q.nvars + 1), 2)
            assert eliminate(project_linear(q, i), j) == project_linear(eliminate(q, j), i)

    def test_kronecker_action_on_monomials(self):
        for m in range(6):
            a = Fraction(7, 3)
            q = SparsePolynomial(2, {(m, 0): a})
            expected = SparsePolynomial(2, {(1, 0): a} if m == 1 else {})
            assert project_linear(q, 1) == expected

    def test_annihilates_projected_outcomes(self):
        for n in (3, 4):
            for k in range(n + 1):
                q = no_winner_poly(n, k)
                for i in range(1, k + 1):
                    assert project_linear(q, i) == SparsePolynomial(n, {})


class TestEvaluationAndSerialization:
    def test_exact_rational_evaluation(self):
        q = poly(2, {(2, 0): Fraction(1, 2), (0, 1): Fraction(-1, 3)})
        value = q.evaluate([Fraction(1, 2), Fraction(3, 4)])
        assert value == Fraction(1, 2) * Fraction(1, 4) - Fraction(1, 3) * Fraction(3, 4)

    def test_exact_evaluation_equals_term_sum(self):
        rng = random.Random(31)
        for _ in range(40):
            q = random_poly(rng, 4, max_terms=10, max_degree=7)
            point = [Fraction(rng.randint(-12, 12), rng.randint(1, 15)) for _ in range(4)]
            point[rng.randrange(4)] = Fraction(0)
            assert q.evaluate(point) == evaluate_by_terms(q, point)
            ints = [rng.randint(-3, 3) for _ in range(4)]
            assert q.evaluate(ints) == evaluate_by_terms(q, ints)
        for i in range(1, 7):
            q = win_prob_poly(6, i)
            point = [Fraction(k, 97) for k in (31, 0, 17, 22, 14, 13)]
            value = q.evaluate(point)
            assert type(value) is Fraction and value == evaluate_by_terms(q, point)
        assert SparsePolynomial(2, {}).evaluate([Fraction(1, 3), 2]) == 0

    def test_float_evaluation(self):
        q = poly(2, {(1, 1): 2})
        assert q.evaluate([0.5, 0.25]) == pytest.approx(0.25)
        # a float is taken at its exact binary value; a value that is no
        # finite real number is refused, a string even where it would parse
        assert q.evaluate([0.1, 1]) == 2 * Fraction(0.1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                q.evaluate([bad, 0.5])
        with pytest.raises(TypeError):
            q.evaluate(["1/2", 0.5])

    def test_canonical_text_golden(self):
        q = poly(3, {(0, 1, 1): 2, (2, 0, 0): 1, (0, 0, 1): Fraction(-1, 3)})
        assert q.canonical_text() == "\n".join(
            [
                "1/1 * p1^2 p2^0 p3^0",
                "2/1 * p1^0 p2^1 p3^1",
                "-1/3 * p1^0 p2^0 p3^1",
            ]
        )

    def test_graded_lex_order(self):
        q = poly(2, {(0, 2): 1, (1, 1): 1, (2, 0): 1, (0, 1): 1})
        order = [exps for exps, _ in q.sorted_terms()]
        assert order == [(2, 0), (1, 1), (0, 2), (0, 1)]

    def test_zero_polynomial_serializes_empty(self):
        assert SparsePolynomial(2, {}).canonical_text() == ""

    def test_zero_coefficients_dropped(self):
        q = poly(2, {(1, 0): 1}) - poly(2, {(1, 0): 1})
        assert not q.terms
        assert not q
