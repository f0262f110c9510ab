"""Closed-form win probabilities, payoffs, and gradients.

Scalable counterpart of the exact layer in :mod:`lupi.polynomials`. The
chance that a focal player wins with number ``i``, when the other
``N = n - 1`` players draw independently from ``p``, is the paper's
inclusion-exclusion sum over which numbers below ``i`` end up picked
exactly once:

    c_i(p) = sum over S subset of {1..i-1} of
             (-1)^|S| (n-1)(n-2)...(n-|S|) prod_{j in S} p_j
             (1 - p_i - sum_{j in S} p_j)^(n-1-|S|)

That sum expands ``c_i = N! [x^N] prod_{j<i} (e^(p_j x) - p_j x) e^(T_i x)``,
``T_i = 1 - p_1 - ... - p_i``. The product form's table
``F_j[m] = sum_{k != 1} C(m, k) p_j^k F_{j-1}[m-k]`` is the chance that
``m`` given opponents all pick from ``1..j`` with none of those numbers
picked exactly once, and ``c_i = sum_m C(N, m) F_{i-1}[m] T_i^(N-m)``: its
terms are nonnegative on the simplex, the whole vector costs ``O(n^3)``,
and a reverse sweep over the same tables gives the Jacobian. Above
``n = 1000``, where its binomial table would overflow, the subset sum
(``2^(i-1)`` terms of alternating sign, ``math.fsum`` over fixed-shape
blocks) is evaluated instead. Both are the same polynomial in the raw
coordinates.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .config import ResourceLimitError, subset_cap
from .game import Strategy

# Subsets are enumerated in bitmask order, materialized in blocks of at most
# 2^_BLOCK_BITS entries to keep memory flat at large indices.
_BLOCK_BITS = 18

# Largest n the product form serves: its table entries C(m, k) p^k and
# k C(m, k) p^(k-1), m < n, p <= 1, stay below n 2^n, which is finite in
# double precision up to n = 1014.
_PRODUCT_N_MAX = 1000

_INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class WinProbVector:
    """Per-number win chances ``values[i-1] = c_i(p)`` for one strategy."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if np.any(arr < -1e-9) or np.any(arr > 1.0 + 1e-9):
            raise ValueError("win probabilities must lie in [0, 1]")
        arr = np.clip(arr, 0.0, 1.0)
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.size)

    def to_json_obj(self) -> dict:
        return {"values": [float(v) for v in self.values]}


@dataclass(frozen=True)
class PayoffReport:
    """Expected payoff of a focal player mixing with ``pi`` against ``p``.

    ``w`` is the expected win rate, the probability-weighted average of the
    per-number win chances actually used.
    """

    w: float
    per_number: WinProbVector

    def to_json_obj(self) -> dict:
        return {"w": self.w, "per_number": self.per_number.to_json_obj()}


# ---------------------------------------------------------------------------
# subset machinery
# ---------------------------------------------------------------------------


def _signed_falling(n: int, m: int) -> np.ndarray:
    """``coef[s] = (-1)^s (n-1)(n-2)...(n-s)`` for ``s = 0..m``.

    Built incrementally so large ``n`` never forms a full factorial.
    """
    out = np.empty(m + 1)
    acc = 1.0
    out[0] = acc
    for s in range(1, m + 1):
        acc *= -(n - s)
        out[s] = acc
    return out


def _subset_blocks(weights: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield ``(prod, total, size)`` over all subsets of ``weights``.

    Subset ``S`` is the bitmask of positions; arrays cover masks in
    increasing order, split into fixed blocks on the high bits.
    """
    m = len(weights)
    lo = min(m, _BLOCK_BITS)
    size_lo = 1 << lo
    prod = np.ones(size_lo)
    total = np.zeros(size_lo)
    size = np.zeros(size_lo, dtype=np.int64)
    for b in range(lo):
        half = 1 << b
        w = float(weights[b])
        prod[half : 2 * half] = prod[:half] * w
        total[half : 2 * half] = total[:half] + w
        size[half : 2 * half] = size[:half] + 1
    if m == lo:
        yield prod, total, size
        return
    for high_mask in range(1 << (m - lo)):
        hp, ht, hs = 1.0, 0.0, 0
        for b in range(m - lo):
            if high_mask >> b & 1:
                w = float(weights[lo + b])
                hp *= w
                ht += w
                hs += 1
        yield prod * hp, total + ht, size + hs


def _check_i(i: int, n: int) -> None:
    if int(i) != i or not 1 <= i <= n:
        raise ValueError(f"number index {i} outside 1..{n}")


def _check_cap(i: int, cap: int | None) -> None:
    limit = subset_cap(cap)
    if i - 1 > limit:
        raise ResourceLimitError(
            f"win probability for number {i} is above the cap i - 1 <= {limit}; "
            f"raise LUPI_SUBSET_CAP to force it"
        )


def _ci_subsets(prefix: np.ndarray, p_i, n: int):
    """The inclusion-exclusion sum for ``c_i``, ``i = len(prefix) + 1``, at raw
    coordinates ``p_1..p_{i-1} = prefix``: for one ``p_i`` summed with
    ``math.fsum``, for an array of them (a sign scan) pairwise, in chunks of
    about 2^22 terms."""
    coef = _signed_falling(n, len(prefix))
    x = np.asarray(p_i, dtype=float)
    parts, out = [], np.zeros(x.size)
    for prod, total, size in _subset_blocks(prefix):
        weight, expo = coef[size] * prod, n - 1 - size
        if x.ndim == 0:
            parts.append(math.fsum(weight * np.power(1.0 - p_i - total, expo)))
            continue
        chunk = max(1, (1 << 22) // prod.size)
        for s in range(0, x.size, chunk):
            base = 1.0 - x[s : s + chunk, None] - total
            out[s : s + chunk] += (weight * np.power(base, expo)).sum(axis=1)
    return math.fsum(parts) if x.ndim == 0 else out


def _ci_subsets_gradient(i: int, probs: np.ndarray, n: int) -> np.ndarray:
    """Gradient of the subset sum for ``c_i`` in all ``n`` raw coordinates.

    ``p_j``, ``j < i``, enters only the terms of the subsets ``S + {j}``,
    through ``p_j (b_S - p_j)^(N-|S|-1)``, so its entry is a sum over the
    subsets ``S`` without ``j``, in the same blocks: no division by ``p_j``.
    """
    coef = _signed_falling(n, i)
    prefix = np.asarray(probs[: i - 1], dtype=float)
    lo = min(i - 1, _BLOCK_BITS)
    parts: list[list[float]] = [[] for _ in range(i)]
    for block, (prod, total, size) in enumerate(_subset_blocks(prefix)):
        base = 1.0 - float(probs[i - 1]) - total
        expo = n - 1 - size  # a factor expo or expo - 1 is 0 where a clamp bites
        through_base = -coef[size] * prod * expo * np.power(base, np.maximum(expo - 1, 0))
        parts[i - 1].append(math.fsum(through_base))
        masks = (block << lo) + np.arange(prod.size)
        for j, pj in enumerate(prefix):
            out = ((masks >> j) & 1) == 0
            b, e = base[out] - pj, expo[out]
            slope = np.power(b, e - 1) - (e - 1) * pj * np.power(b, np.maximum(e - 2, 0))
            parts[j].append(math.fsum(coef[size[out] + 1] * prod[out] * slope))
    return np.array([math.fsum(acc) for acc in parts] + [0.0] * (len(probs) - i))


# ---------------------------------------------------------------------------
# product form
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _product_constants(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``C(N, m)``, and indexed ``[m, m']`` with ``k = m - m'``: ``C(m, k)``
    and ``k C(m, k)`` (zero where ``k < 0`` or ``k = 1``), and ``k >= 0``."""
    if n > _PRODUCT_N_MAX:
        raise ResourceLimitError(
            f"the product form serves n <= {_PRODUCT_N_MAX}, got n={n}: its "
            f"binomial table would overflow double precision"
        )
    binom = np.zeros((n, n))
    binom[:, 0] = 1.0
    for m in range(1, n):
        binom[m, 1 : m + 1] = binom[m - 1, :m] + binom[m - 1, 1 : m + 1]
    rows = np.arange(n)[:, None]
    k = np.maximum(rows - np.arange(n), 0)  # where m < m' the mask below zeroes it
    coef = np.where((rows >= np.arange(n)) & (k != 1), binom[rows, k], 0.0)
    slope = coef * k
    for arr in (binom, coef, slope, k):
        arr.flags.writeable = False
    return binom[-1], coef, slope, k


def _step(n: int, p: float) -> np.ndarray:
    """Matrix of one table step ``F_j = W F_{j-1}``, ``p_j = p``: ``C(m, k) p^k``."""
    _, coef, _, k = _product_constants(n)
    return coef * np.power(p, np.arange(n))[k]


def _kernel(probs: np.ndarray, n: int, upto: int, jacobian: int = 0):
    """``c_1..c_upto`` at raw coordinates by the product form; with
    ``jacobian = r``, also the ``(r, n)`` derivatives of the last ``r``.

    With ``c_i = a_i . F_{i-1}``, ``a_i[m] = C(N, m) T_i^(N-m)``, entry
    ``(i, j)`` is ``-a_i' . F_{i-1}`` for ``j <= i`` (through ``T_i``) plus,
    for ``j < i``, the adjoint ``W_{j+1}^T ... W_{i-1}^T a_i`` dotted with
    ``dW_j/dp_j F_{j-1}``; one reverse sweep carries one adjoint per
    differentiated row. Row ``i`` of the values is the same to the bit for
    every ``upto >= i``.
    """
    binom_n, _, slope, k = _product_constants(n)
    expo = np.arange(n - 1, -1, -1)
    tables = np.zeros((upto, n))
    tables[0, 0] = 1.0
    for j in range(1, upto):
        tables[j] = _step(n, float(probs[j - 1])) @ tables[j - 1]
    terms = [1.0, *(-v for v in np.asarray(probs[:upto], dtype=float).tolist())]
    tails = np.array([[math.fsum(terms[: i + 1])] for i in range(1, upto + 1)])  # exactly rounded
    weights = binom_n * np.power(tails, expo)
    values = (weights * tables).sum(axis=1)
    if not jacobian:
        return values

    first = upto - jacobian
    # the factor expo is 0 where the clamped exponent differs from expo - 1
    power = np.power(tails[first:], np.maximum(expo - 1, 0))
    through_tail = (binom_n * expo * power * tables[first:]).sum(axis=1)
    jac = -through_tail[:, None] * (np.arange(n) < np.arange(first + 1, upto + 1)[:, None])
    adjoint = np.zeros((n, jacobian))
    for j in range(upto - 1, 0, -1):
        if j >= first:
            adjoint[:, j - first] = weights[j]  # c_{j+1} = a_{j+1} . F_j joins the sweep
        p = float(probs[j - 1])
        lowered = np.concatenate(([0.0], np.power(p, np.arange(n - 1))))  # p^(k-1)
        jac[:, j - 1] += adjoint.T @ ((slope * lowered[k]) @ tables[j - 1])
        adjoint = _step(n, p).T @ adjoint
    return values, jac


class PrefixChance:
    """Win chance of the next number as a function of its own probability.

    With ``p_1..p_{i-1}`` fixed, ``c_i`` is the polynomial
    ``sum_m C(N, m) F_{i-1}[m] (R - p_i)^(N-m)``, ``R = 1 - p_1 - ... -
    p_{i-1}`` (:attr:`rest`, exactly rounded). Calling the object evaluates
    it at candidate ``p_i`` (an array or a float) by Horner's rule in
    ``R - p_i``, stable on ``[0, R]`` where every partial sum is
    nonnegative; :meth:`fix` appends ``p_i`` and advances the table one
    step. Above ``n = 1000`` the subset sum is evaluated instead.
    """

    def __init__(self, n: int, cap: int | None = None):
        self.n, self.cap = n, cap
        self.prefix: list[float] = []
        self.rest = 1.0
        self._table = np.eye(1, n)[0] if n <= _PRODUCT_N_MAX else None  # F_0
        self._coef = [1.0] + [0.0] * (n - 1)  # C(N, m) F_{i-1}[m]

    def __call__(self, p_i):
        _check_cap(len(self.prefix) + 1, self.cap)
        if self._table is None:
            return _ci_subsets(np.array(self.prefix), p_i, self.n)
        y, acc = self.rest - p_i, 0.0
        for a in self._coef:
            acc = acc * y + a
        return acc

    def fix(self, p_i: float) -> None:
        """Fix ``p_i`` and move on to the next number."""
        if self._table is not None:
            self._table = _step(self.n, float(p_i)) @ self._table
            self._coef = (_product_constants(self.n)[0] * self._table).tolist()
        self.prefix.append(float(p_i))
        self.rest = math.fsum([1.0, *(-v for v in self.prefix)])


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def win_prob(i: int, p: Strategy, *, cap: int | None = None) -> float:
    """Chance of winning with number ``i`` against ``n - 1`` players on ``p``.

    Costs ``O(i n^2)`` by the product form, or ``O(2^(i-1))`` by the subset
    sum above ``n = 1000``; refuses ``i - 1`` above the subset cap (default
    25, env ``LUPI_SUBSET_CAP``).
    """
    _check_i(i, p.n)
    _check_cap(i, cap)
    if p.n > _PRODUCT_N_MAX:
        return _ci_subsets(p.probs[: i - 1], float(p.probs[i - 1]), p.n)
    return float(_kernel(p.probs, p.n, i)[-1])


def win_prob_vector(p: Strategy, *, cap: int | None = None) -> WinProbVector:
    """All per-number win chances ``c_1..c_n`` for strategy ``p``, each equal
    to the bit to :func:`win_prob`; by the product form, so ``n <= 1000``."""
    _check_cap(p.n, cap)
    return WinProbVector(_kernel(p.probs, p.n, p.n))


def expected_payoff(pi: Strategy, p: Strategy, *, cap: int | None = None) -> PayoffReport:
    """Expected win rate of a focal player mixing with ``pi`` while the
    others play ``p``: the ``pi``-weighted average of the ``c_i(p)``."""
    if pi.n != p.n:
        raise ValueError(f"strategies disagree on n: {pi.n} vs {p.n}")
    per = win_prob_vector(p, cap=cap)
    w = math.fsum(c * q for c, q in zip(per.values, pi.probs))
    return PayoffReport(w=w, per_number=per)


def symmetric_payoff(p: Strategy, *, cap: int | None = None) -> float:
    """Expected win rate when every player, focal included, uses ``p``."""
    return expected_payoff(p, p, cap=cap).w


def uniform_asymptotic_win_prob(i: int) -> float:
    """Large-game limit of ``c_i`` under uniform play:
    ``e^-1 (1 - e^-1)^(i-1)``."""
    if int(i) != i or i < 1:
        raise ValueError(f"number index {i} must be >= 1")
    return _INV_E * (1.0 - _INV_E) ** (i - 1)


def win_prob_gradient(i: int, p: Strategy, *, cap: int | None = None) -> np.ndarray:
    """Partial derivatives of ``win_prob(i, .)`` in all ``n`` coordinates.

    Derivatives are of the closed-form expression as written, without
    re-imposing the sum-to-one constraint; entries ``j > i`` are zero
    because the expression never references those coordinates. Simplex
    tangential derivatives are a caller-side chain rule. Like
    :func:`win_prob`, they come from the product form (``O(i n^2)``) or,
    above ``n = 1000``, from the subset sum.
    """
    _check_i(i, p.n)
    _check_cap(i, cap)
    if p.n > _PRODUCT_N_MAX:
        return _ci_subsets_gradient(i, p.probs, p.n)
    return _kernel(p.probs, p.n, i, jacobian=1)[1][0]
