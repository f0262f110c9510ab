"""Exact sparse polynomials over the choice probabilities ``p_1..p_n``.

This is the ground-truth layer behind the floating-point evaluator in
:mod:`lupi.winprob`. Everything here uses arbitrary-precision rational
coefficients: the alternating-sign structure of the win-probability
construction invites catastrophic cancellation, and the symbolic layer is
what the fast path is validated against, so it must be exact.

The construction works on the generating polynomial of the opponents'
outcomes, ``(p_1 + ... + p_n)^(n-1)``, whose expanded terms enumerate every
way the other ``n - 1`` players can distribute their picks. Three operators
drive it, all indexed by a 1-based variable position ``i``:

* ``differentiate``: partial derivative with respect to ``p_i``;
* ``eliminate``: substitute ``p_i = 0``, dropping every term containing it;
* ``project_linear``: keep exactly the terms linear in ``p_i`` (the rounds
  where number ``i`` is picked exactly once), which is
  ``p_i * eliminate(differentiate(q, i), i)``.

Subtracting the linear projection index by index removes every "someone
wins at a number <= k" outcome, and eliminating ``p_i`` from the result
gives the exact polynomial for the chance of winning with number ``i``.

Expansion size grows like the central binomial coefficient, so builders
refuse ``n`` above 8; larger games belong to the closed-form evaluator.
"""

from __future__ import annotations

import functools
import numbers
from fractions import Fraction
from math import factorial, isfinite, lcm, prod
from typing import Iterable, Iterator, Mapping

from .config import require_cap, require_int

Exponents = tuple[int, ...]
_N_MAX = 8  # largest n expanded: C(2n-2, n-1) outcome terms, 3,432 at n = 8


def _exact(v) -> Fraction:
    """A coordinate of an evaluation point as an exact fraction."""
    if isinstance(v, numbers.Rational):
        return Fraction(v)
    if not isinstance(v, numbers.Real):  # a string would parse as a fraction
        raise TypeError(f"a polynomial is evaluated at real numbers, got {v!r}")
    if not isfinite(v):
        raise ValueError(f"a polynomial is evaluated at finite numbers, got {v}")
    return Fraction(*v.as_integer_ratio())  # exact for floats of every width


class SparsePolynomial:
    """Polynomial in ``p_1..p_nvars`` stored as ``{exponent tuple: coefficient}``.

    Coefficients are exact :class:`fractions.Fraction` values; terms with a
    zero coefficient are never stored. Instances are treated as immutable.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, object] | None = None) -> None:
        nvars = require_int("nvars", nvars, 1)
        clean: dict[Exponents, Fraction] = {}
        for exps, coeff in (terms or {}).items():
            key = tuple(require_int("exponent", e, 0) for e in exps)
            if len(key) != nvars:
                raise ValueError(f"exponent tuple {key} has length {len(key)}, expected {nvars}")
            c = Fraction(coeff)
            if c:
                clean[key] = c
        self.nvars = nvars
        self.terms = clean

    @classmethod
    def _of_clean_terms(cls, nvars: int, terms: dict[Exponents, Fraction]) -> "SparsePolynomial":
        """Wrap ``terms`` without the checks of ``__init__``.

        For operator results only: every key must already be a length-``nvars``
        tuple of non-negative ints and every value a nonzero ``Fraction``.
        """
        poly = cls.__new__(cls)
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # -- constructors ---------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, value) -> "SparsePolynomial":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "SparsePolynomial":
        """The monomial ``p_i`` (``i`` is 1-based)."""
        i = require_int("i", i, 1, nvars)
        exps = [0] * nvars
        exps[i - 1] = 1
        return cls(nvars, {tuple(exps): Fraction(1)})

    # -- ring arithmetic -------------------------------------------------

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self._combine(other, 1)

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self._combine(other, -1)

    def _combine(self, other: "SparsePolynomial", sign: int) -> "SparsePolynomial":
        """``self + sign * other``; a coefficient that cancels is removed."""
        self._check_compatible(other)
        out = dict(self.terms)
        for exps, c in other.terms.items():
            prev = out.get(exps)
            if prev is None:
                out[exps] = c if sign > 0 else -c
                continue
            total = prev + c if sign > 0 else prev - c
            if total:
                out[exps] = total
            else:
                del out[exps]
        return SparsePolynomial._of_clean_terms(self.nvars, out)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial._of_clean_terms(self.nvars, {e: -c for e, c in self.terms.items()})

    def scale(self, factor) -> "SparsePolynomial":
        f = Fraction(factor)
        return SparsePolynomial(self.nvars, {e: c * f for e, c in self.terms.items()})

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        self._check_compatible(other)
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return SparsePolynomial(self.nvars, out)

    def __pow__(self, power: int) -> "SparsePolynomial":
        k = require_int("power", power, 0)
        result = SparsePolynomial.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ----------------------------------------------------------

    def coefficient_sum(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def evaluate(self, values: Iterable) -> Fraction:
        """Exact value at a point of finite real numbers, a float taken at
        its exact binary value, as one integer sum over a common denominator.

        With ``v_j = a_j / b_j`` and ``E_j`` the largest exponent of ``p_j``,
        every monomial is ``prod a_j^e_j b_j^(E_j - e_j)`` over
        ``L = prod b_j^E_j``. Numerators are summed per coefficient
        denominator, and the sums are combined into one ``Fraction``.
        """
        vals = [_exact(v) for v in values]
        if len(vals) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(vals)}")
        top = [max((e[j] for e in self.terms), default=0) for j in range(self.nvars)]
        scaled = [
            [v.numerator**e * v.denominator ** (cap - e) for e in range(cap + 1)]
            for v, cap in zip(vals, top)
        ]
        sums: dict[int, int] = {}
        for exps, coeff in self.terms.items():
            mono = coeff.numerator
            for table, e in zip(scaled, exps):
                mono *= table[e]
            den = coeff.denominator
            sums[den] = sums.get(den, 0) + mono
        common = lcm(*sums)
        numerator = sum(total * (common // den) for den, total in sums.items())
        return Fraction(numerator, common * prod(table[0] for table in scaled))

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in graded lexicographic order: total degree first, ties broken
        lexicographically on the exponent tuple, both descending."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def canonical_text(self) -> str:
        """Canonical serialization: one ``num/den * p1^e1 ... pn^en`` line per
        term, in graded-lex order. The zero polynomial serializes to ''."""
        lines = []
        for exps, coeff in self.sorted_terms():
            monomial = " ".join(f"p{j + 1}^{e}" for j, e in enumerate(exps))
            lines.append(f"{coeff.numerator}/{coeff.denominator} * {monomial}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        if not self.terms:
            return f"SparsePolynomial(nvars={self.nvars}, 0)"
        parts = []
        for exps, coeff in self.sorted_terms()[:6]:
            mono = "".join(f"*p{j + 1}^{e}" for j, e in enumerate(exps) if e)
            parts.append(f"{coeff}{mono}")
        more = " + ..." if len(self.terms) > 6 else ""
        return f"SparsePolynomial(nvars={self.nvars}, {' + '.join(parts)}{more})"

    def _check_compatible(self, other: "SparsePolynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(f"mixing polynomials in {self.nvars} and {other.nvars} variables")


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def differentiate(q: SparsePolynomial, i: int) -> SparsePolynomial:
    """Exact partial derivative with respect to ``p_i`` (1-based)."""
    i = require_int("i", i, 1, q.nvars)
    j = i - 1
    # lowering the exponent of p_i maps distinct terms to distinct terms
    out = {
        exps[:j] + (exps[j] - 1,) + exps[j + 1 :]: coeff * exps[j]
        for exps, coeff in q.terms.items()
        if exps[j]
    }
    return SparsePolynomial._of_clean_terms(q.nvars, out)


def eliminate(q: SparsePolynomial, i: int) -> SparsePolynomial:
    """Substitute ``p_i = 0``: drop every term containing ``p_i``."""
    i = require_int("i", i, 1, q.nvars)
    j = i - 1
    return SparsePolynomial._of_clean_terms(
        q.nvars, {e: c for e, c in q.terms.items() if e[j] == 0}
    )


def project_linear(q: SparsePolynomial, i: int) -> SparsePolynomial:
    """Keep exactly the terms linear in ``p_i``.

    Acts on a monomial ``a * p_i^m`` as ``a * p_i`` when ``m == 1`` and as 0
    otherwise; equivalently ``p_i * eliminate(differentiate(q, i), i)``.
    """
    i = require_int("i", i, 1, q.nvars)
    j = i - 1
    return SparsePolynomial._of_clean_terms(
        q.nvars, {e: c for e, c in q.terms.items() if e[j] == 1}
    )


# ---------------------------------------------------------------------------
# game polynomials
# ---------------------------------------------------------------------------


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All ways to write ``total`` as an ordered sum of ``slots`` non-negative
    integers."""
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def opponents_outcome_poly(n: int) -> SparsePolynomial:
    """Fully expanded ``(p_1 + ... + p_n)^(n-1)``.

    Each term is one multiset of picks the ``n - 1`` opponents can produce,
    weighted by its multinomial count; the coefficients sum to ``n^(n-1)``.
    The terms are built once per ``n``; every call returns its own copy.
    """
    n, terms = _capped_outcome_terms(n)
    return SparsePolynomial._of_clean_terms(n, dict(terms))


def _capped_outcome_terms(n: int) -> tuple[int, dict[Exponents, Fraction]]:
    """``n`` as an int and its cached outcome terms, once ``n`` passes the cap."""
    n = require_int("n", n, 3)
    require_cap(n, _N_MAX, "symbolic expansion")
    return n, _outcome_terms(n)


@functools.lru_cache(maxsize=4)
def _outcome_terms(n: int) -> dict[Exponents, Fraction]:
    """Terms of :func:`opponents_outcome_poly`, cached per ``n``; callers copy them."""
    fact = factorial(n - 1)
    terms: dict[Exponents, Fraction] = {}
    for exps in _compositions(n - 1, n):
        weight = fact
        for e in exps:
            weight //= factorial(e)
        terms[exps] = Fraction(weight)
    return terms


def no_winner_poly(n: int, k: int) -> SparsePolynomial:
    """Outcome polynomial with every "winner at a number <= k" term removed.

    Built by the recursion that subtracts the linear-in-``p_i`` part index by
    index; after step ``i`` no surviving term is linear in ``p_1..p_i``.
    ``k = 0`` returns the raw outcome polynomial.
    """
    q = opponents_outcome_poly(n)
    k = require_int("k", k, 0, q.nvars)
    for i in range(1, k + 1):
        q = q - project_linear(q, i)
    return q


def no_winner_poly_by_subsets(n: int, k: int) -> SparsePolynomial:
    """Same polynomial as :func:`no_winner_poly`, built the other way.

    Expands the product of ``(1 - projection)`` factors by
    inclusion-exclusion over subsets of ``{1..k}`` and applies each operator
    chain to the outcome polynomial independently. Exact agreement with the
    recursion is a correctness check on both routes.
    """
    z0 = opponents_outcome_poly(n)
    k = require_int("k", k, 0, z0.nvars)
    total = SparsePolynomial(z0.nvars)
    for mask in range(1 << k):
        q = z0
        bits = 0
        for i in range(1, k + 1):
            if mask >> (i - 1) & 1:
                q = project_linear(q, i)
                bits += 1
        total = total + (q if bits % 2 == 0 else -q)
    return total


def win_prob_poly(n: int, i: int) -> SparsePolynomial:
    """Exact polynomial for the chance of winning with number ``i``.

    The focal player wins with ``i`` when, among the opponents, no number
    below ``i`` is picked exactly once and nobody picks ``i``: eliminate
    ``p_i`` from the no-winner polynomial of depth ``i - 1``. The result
    contains no ``p_i`` at all.

    ``p_i`` is eliminated first, from the outcome terms, and the recursion
    of :func:`no_winner_poly` runs on what is left (1,716 of 3,432 terms at
    ``n = 8``). Both operators keep or drop whole terms without
    changing a coefficient, ``eliminate`` by ``e_i`` and each
    ``q - project_linear(q, j)``, ``j < i``, by ``e_j``, so they commute:
    the result has the same terms, coefficients and key order as
    ``eliminate(no_winner_poly(n, i - 1), i)``.
    """
    i = require_int("i", i, 1, n)
    n, terms = _capped_outcome_terms(n)
    q = SparsePolynomial._of_clean_terms(n, {e: c for e, c in terms.items() if e[i - 1] == 0})
    for j in range(1, i):
        q = q - project_linear(q, j)
    return q
