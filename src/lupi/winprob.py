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
``T_i = 1 - S_i``, ``S_i = p_1 + ... + p_i``; both forms below sum its
nonnegative terms. Up to ``n = 400`` the product form's table
``F_j[m] = sum_{k != 1} C(m, k) p_j^k F_{j-1}[m-k]`` is the chance that
``m`` given opponents all pick from ``1..j`` with none of those numbers
picked exactly once, and ``c_i = sum_m C(N, m) F_{i-1}[m] T_i^(N-m)``: the
whole vector costs ``O(n^3)``, and a reverse sweep over the same tables
gives the Jacobian. Above that the product is scaled instead, which is
faster there and has no binomial table to overflow (``x -> x / N``, factor
``j`` by ``e^(-N p_j)``):
factor ``j`` becomes the Poisson(``N p_j``) row ``r_j`` with its ``k = 1``
entry set to 0 (after C. Loader, "Fast and Accurate Computation of Binomial
Probabilities", 2000), ``g = r_1 * ... * r_(i-1)`` lies in ``[0, 1]``, and
one walk over these tables gives every ``c_i = sum_m g[m] w_m`` asked for,
``log w_m = N S_(i-1) + log(N! / ((N-m)! N^m)) + (N-m) log1p(-S_i)``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .config import require_cap, require_int
from .game import Strategy

# The public entries and PrefixChance take the product form up to n = 400
# and the Poisson-scaled walk above it, where the walk is the faster one for
# the whole vector, a gradient and a sequential chain (BENCH_output_path.json).
_SCALED_ABOVE = 400
# Largest n the product form can serve, through _kernel for solve_ne and
# best_symmetric, and the only size limit of either: its table entries
# C(m, k) p^k and k C(m, k) p^(k-1), m < n, p <= 1, stay below n 2^n, which
# is finite in double precision up to n = 1014.
_PRODUCT_N_MAX = 1000
# Entries of the step matrices that one _kernel call builds at once, per
# kind (steps, slopes): 512 KiB of doubles.
_STEP_BUDGET = 1 << 16

# Poisson-scaled form: probabilities below the smallest normal double are
# dropped (subnormal operands make np.convolve far slower), e^-lam is normal
# for lam below _NORMAL_EXP, and log 0 has a finite stand-in: 0 log 0 = 0.
_TINY = sys.float_info.min
_NORMAL_EXP = -math.log(_TINY)
_LOG_ZERO = -1e300
# Loader's Stirling remainder log k! - (k + 1/2) log k + k - log sqrt(2 pi)
# for k = 1..15, correctly rounded, and 0 at k = 0
_STIRLERR_SMALL = np.array([0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801])

_INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class WinProbVector:
    """Per-number win chances ``values[i-1] = c_i(p)`` for one strategy."""

    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if not np.all((arr >= -1e-9) & (arr <= 1.0 + 1e-9)):  # NaN fails it too
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
# product form
# ---------------------------------------------------------------------------


def _pascal(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Pascal's table and the three tables :func:`_product_constants` views, at
    width ``size``; by Pascal's rule row ``m`` of each is the same to the bit at every ``size > m``."""
    binom = np.zeros((size, size))
    binom[:, 0] = 1.0
    for m in range(1, size):
        binom[m, 1 : m + 1] = binom[m - 1, :m] + binom[m - 1, 1 : m + 1]
    rows = np.arange(size)[:, None]
    k = np.maximum(rows - np.arange(size), 0)  # where m < m' the mask below zeroes it
    coef = np.where((rows >= np.arange(size)) & (k != 1), binom[rows, k], 0.0)
    slope = coef * k
    exponents = np.abs(np.arange(1.0 - size, size + 1.0))  # float: np.power casts no exponent
    for arr in (binom, coef, slope, exponents):
        arr.flags.writeable = False
    return binom, coef, slope, exponents


_tables: tuple[np.ndarray, ...] = ()  # _pascal at the largest size built so far
_views: dict[int, tuple[np.ndarray, ...]] = {}  # _product_constants by n, over _tables


def _product_constants(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``C(N, m)``; indexed ``[m, m']`` with ``k = m - m'``: ``C(m, k)`` and
    ``k C(m, k)`` (zero where ``k < 0`` or ``k = 1``); and the exponents
    ``|t - (n - 1)|``, ``t = 0..2n-1``, of the power rows in :func:`_steps`,
    whose first ``n`` are the ``N - m`` of the tail powers.

    All four are read-only views of one :func:`_pascal` table set, built at
    the largest ``n`` asked for so far and, when a larger one is asked for,
    rebuilt at twice its size or ``n`` (capped at ``_PRODUCT_N_MAX``), which
    empties the views kept by ``n``. At ``n = 1000`` the set holds 24 MB.
    No lock is taken: the tables and the views are each replaced by one
    assignment, so a thread racing a rebuild can only get or keep views of
    the older, smaller set, whose entries are the same bits; such a race
    costs memory while those views live, never a wrong value.
    """
    global _tables, _views
    views = _views.get(n)
    if views is not None:
        return views
    require_cap(n, _PRODUCT_N_MAX, "the product form's binomial table")
    tables = _tables
    size = tables[0].shape[0] if tables else 0
    if size < n:
        size = min(max(n, 2 * size), _PRODUCT_N_MAX)
        tables = _tables = _pascal(size)
        _views = {}
    binom, coef, slope, exponents = tables
    views = _views[n] = binom[n - 1, :n], coef[:n, :n], slope[:n, :n], exponents[size - n : size + n]
    return views


def _steps(probs, n: int, out: np.ndarray | None = None, slopes: np.ndarray | None = None):
    """Matrix ``W = C(m, k) p^k`` of one table step ``F_j = W F_{j-1}``,
    ``p_j = p``, for ``probs`` one ``p``; for a column ``(count, 1)`` of
    them, the C-ordered ``(count, n, n)`` stack. Written into ``out`` when
    given; with ``slopes``, the derivatives ``dW/dp = k C(m, k) p^(k-1)``
    are written into it too.

    Both are a constant matrix times a strided (Toeplitz) view of the power
    row ``row[t] = p^|t - (n-1)|``: entry ``[m, m']`` reads ``row[n - 1 - k]``,
    which is ``p^k`` for ``k >= 0`` (``p^(k-1)`` one place on), and a finite
    power, times a constant 0, where ``m < m'``.
    """
    _, coef, slope, exponents = _product_constants(n)
    rows = np.power(probs, exponents)
    unit = rows.itemsize
    shape, strides = (*rows.shape[:-1], n, n), (*rows.strides[:-1], -unit, unit)
    if slopes is not None:
        np.multiply(slope, np.ndarray(shape, float, rows, n * unit, strides), out=slopes)
    return np.multiply(coef, np.ndarray(shape, float, rows, (n - 1) * unit, strides), out=out, order="C")


def _kernel(probs: np.ndarray, n: int, upto: int, jacobian: int = 0):
    """``c_1..c_upto`` at raw coordinates by the product form; with
    ``jacobian = r``, also the ``(r, n)`` derivatives of the last ``r``.
    ``probs`` is one point ``(n,)`` or a stack ``(k, n)`` of them, whose
    values ``(k, upto)`` and Jacobians ``(k, r, n)`` are each the same to
    the bit as the point's own call.

    With ``c_i = a_i . F_{i-1}``, ``a_i[m] = C(N, m) T_i^(N-m)``, entry
    ``(i, j)`` is ``-a_i' . F_{i-1}`` for ``j <= i`` (through ``T_i``) plus,
    for ``j < i``, the adjoint ``W_{j+1}^T ... W_{i-1}^T a_i`` dotted with
    ``dW_j/dp_j F_{j-1}``; one reverse sweep carries one adjoint per
    differentiated row. Row ``i`` of the values is the same to the bit for
    every ``upto >= i``.

    The step matrices are built by :func:`_steps` in chunks of consecutive
    ``j``, as many as fit ``_STEP_BUDGET`` entries over the ``k`` points
    (for one point every step up to ``n = 40``, one step from ``n = 256``),
    into two buffers reused for every chunk. The forward pass forms the
    ``dW_j/dp_j F_{j-1}`` of each chunk in one stacked product, so the
    reverse sweep needs only the ``W_j``: it reuses the last chunk, still
    held, and rebuilds the earlier ones in reverse order
    (checkpointing; Griewank and Walther, *Evaluating Derivatives*, 2nd ed.,
    2008, ch. 12). The tables and step buffers are indexed by ``j`` first
    and by the point next, the adjoints and the Jacobian by the point first,
    so one point's arrays are a stack's without that axis. Every step
    matrix and adjoint is C-ordered as for a single point, and a stacked
    product makes one BLAS call per point: BLAS sums a matrix-vector product
    in an order that follows the layout, so any other layout would change
    the last bits.
    """
    probs = np.asarray(probs, dtype=float)
    binom_n, _, _, exponents = _product_constants(n)
    expo = exponents[:n]
    lanes = probs.shape[:-1]  # () for one point, (k,) for a stack
    cols = np.ascontiguousarray(probs.T)  # row j - 1: every point's p_j
    chunk = max(1, _STEP_BUDGET // (math.prod(lanes) * n * n))
    starts = range(1, upto, chunk)
    steps = np.empty((min(chunk, upto - 1), *lanes, n, n))
    slopes = np.empty_like(steps) if jacobian else None
    through_count = np.empty((upto, *lanes, n, 1)) if jacobian else None  # row j: dW_j/dp_j F_{j-1}
    tables = np.zeros((upto, *lanes, n, 1))  # column vectors: a stacked product takes one per point
    tables[0, ..., 0, 0] = 1.0
    for start in starts:
        stop = min(start + chunk, upto)
        held = slice(stop - start)
        _steps(cols[start - 1 : stop - 1, ..., None], n, steps[held], slopes[held] if jacobian else None)
        for j in range(start, stop):
            np.matmul(steps[j - start], tables[j - 1], out=tables[j])
        if jacobian:
            np.matmul(slopes[held], tables[start - 1 : stop - 1], out=through_count[start:stop])
    tables = tables[..., 0]
    signed = [[1.0, *lane] for lane in (-probs[..., :upto]).reshape(-1, upto).tolist()]
    tails = np.array([math.fsum(terms[:i]) for i in range(2, upto + 2) for terms in signed])  # exactly rounded
    tails = tails.reshape(upto, *lanes, 1)
    weights = binom_n * np.power(tails, expo)
    values = np.ascontiguousarray((weights * tables).sum(axis=-1).T)
    if not jacobian:
        return values

    first = upto - jacobian
    # the factor expo is 0 where the clamped exponent differs from expo - 1
    power = np.power(tails[first:], np.maximum(expo - 1, 0))
    through_tail = (binom_n * expo * power * tables[first:]).sum(axis=-1)
    jac = -through_tail.T[..., None] * (np.arange(n) < np.arange(first + 1, upto + 1)[:, None])
    adjoint = np.zeros((*lanes, n, jacobian))
    transposed = steps.swapaxes(-1, -2)  # W_j^T, a view that follows every rebuild
    through_rows = through_count.swapaxes(-1, -2)  # the same, as row vectors
    # row j - 1: the adjoint part of column j - 1, which is added to each
    # column once, after the sweep; the columns from upto - 1 on have none
    swept = np.empty((upto - 1, *lanes, 1, jacobian))
    for start in reversed(starts):
        stop = min(start + chunk, upto)
        if stop < upto:  # the last chunk is still held from the forward pass
            _steps(cols[start - 1 : stop - 1, ..., None], n, steps[: stop - start])
        for j in range(stop - 1, start - 1, -1):
            if j >= first:
                adjoint[..., j - first] = weights[j]  # c_{j+1} = a_{j+1} . F_j joins the sweep
            np.matmul(through_rows[j], adjoint, out=swept[j - 1])
            adjoint = transposed[j - start] @ adjoint
    jac[..., : upto - 1] += swept[..., 0, :].transpose(*range(1, swept.ndim - 1), 0)  # j - 1 to the last axis
    return values, jac


# ---------------------------------------------------------------------------
# Poisson-scaled product form (n > 400)
# ---------------------------------------------------------------------------


def _stirlerr(k):
    """Stirling remainder at integers ``k >= 0``: the table up to 15, else
    the series to ``k^-9``."""
    k = np.asarray(k, dtype=float)
    big = np.maximum(k, 16.0)
    nn = big * big
    series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / big
    return np.where(k < 16.0, _STIRLERR_SMALL[np.minimum(k, 15.0).astype(int)], series)


def _trimmed(lo: int, arr: np.ndarray) -> tuple[int, np.ndarray]:
    """Row ``arr`` from index ``lo``, entries below ``_TINY`` zeroed, ends cut;
    a single 0 where nothing is left (``c_i`` underflows)."""
    arr = np.where(arr >= _TINY, arr, 0.0)
    nonzero = np.flatnonzero(arr)
    if nonzero.size == 0:
        return lo, np.zeros(1)
    return lo + int(nonzero[0]), arr[nonzero[0] : nonzero[-1] + 1]


def _no_unique_row(lam: float) -> tuple[int, np.ndarray]:
    """Poisson(``lam``) probabilities with the ``k = 1`` entry set to 0, as a
    trimmed row. Anchored at ``k = 0`` by ``e^-lam`` while that is a normal
    double, otherwise at the mode by Loader's saddle-point form
    ``e^(-stirlerr(k) - bd0(k, lam)) / sqrt(2 pi k)``, then
    ``pmf(k+1) = pmf(k) lam / (k+1)`` outwards as far as
    ``bd0(lam + t, lam) >= t^2 / (2 (lam + t/3))`` says ``-log(tiny)`` is passed."""
    anchor = int(lam) if lam > _NORMAL_EXP else 0
    if anchor:
        bd0 = anchor * math.log1p((anchor - lam) / lam) + (lam - anchor)  # both terms O(1)
        top = math.exp(-float(_stirlerr(anchor)) - bd0) / math.sqrt(2.0 * math.pi * anchor)
    else:
        top = math.exp(-lam)
    third = _NORMAL_EXP / 3.0
    reach = int(third + math.sqrt(third * third + 2.0 * _NORMAL_EXP * lam)) + 1
    up = top * np.cumprod(lam / np.arange(anchor + 1, int(lam) + reach))
    down = top * np.cumprod(np.arange(anchor, max(anchor - reach, 0), -1) / lam)
    lo, row = anchor - down.size, np.concatenate((down[::-1], [top], up))
    if lo <= 1:
        row[1 - lo] = 0.0  # a number picked exactly once
    return _trimmed(lo, row)


def _convolve(a, b, big_n: int) -> tuple[int, np.ndarray]:
    """Convolution of two rows, cut at ``m <= N`` and trimmed."""
    lo = a[0] + b[0]
    return _trimmed(lo, np.convolve(a[1], b[1])[: max(big_n - lo + 1, 0)])


def _window(row, lo: int, size: int) -> np.ndarray:
    """Entries ``lo .. lo + size - 1`` of a row, 0 outside it."""
    out = np.zeros(size)
    start, stop = max(lo, row[0]), min(lo + size, row[0] + row[1].size)
    if start < stop:
        out[start - lo : stop - lo] = row[1][start - row[0] : stop - row[0]]
    return out


def _log_weights(table, big_n: int, head: float) -> tuple[np.ndarray, np.ndarray]:
    """``k = N - m`` and ``head + log(N! / ((N-m)! N^m))`` over the indices
    ``m`` of ``table``, by Stirling's formula."""
    m = np.arange(table[0], table[0] + table[1].size)
    k = big_n - m
    with np.errstate(divide="ignore"):
        falling = -(k + 0.5) * np.log1p(-m / big_n) - m - _stirlerr(k)
    falling[k == 0] = 0.5 * math.log(2.0 * math.pi * big_n) - big_n  # log(N! / N^N)
    return k, head + float(_stirlerr(big_n)) + falling


def _scaled_chance(table, weights, log_tail: float) -> tuple[float, float]:
    """``c_i = sum_m g[m] w_m`` at ``log T``, and its slope in ``T``, which
    enters only as ``T^k`` (the factor ``k`` is 0 where the clamped
    exponent differs from ``k - 1``)."""
    k, base = weights
    value = table[1] @ np.exp(base + k * log_tail)
    slope = table[1] @ (k * np.exp(base + np.maximum(k - 1, 0) * log_tail))
    return float(value), float(slope)


def _scaled(probs: np.ndarray, n: int, upto: int, every: bool = False, gradient: bool = False):
    """``c_1..c_upto`` by the Poisson-scaled form, only ``c_upto`` filled in
    unless ``every``, or with ``gradient`` the derivatives of ``c_upto`` in all ``n`` raw
    coordinates. One walk advances the prefix table ``G_j = r_1 * ... * r_j``
    and reads ``c_i`` off ``G_(i-1)`` only at the rows asked for; each
    distinct ``lam_j = N p_j`` builds its row ``r_j`` once per walk. It stops at
    the first table that has underflowed to a single 0, since every later
    one would too: ``c_i`` and its derivatives are 0 from that row on.

    ``p_j``, ``j < i``, enters ``r_j`` through ``lam_j = N p_j``, where
    ``d pmf(k) / d lam = pmf(k-1) - pmf(k)``, and ``log w`` through
    ``N S_(i-1)`` and ``log1p(-S_i)``. The ``-pmf(k)`` part cancels the
    ``N S_(i-1)`` part, so entry ``j`` is ``N / lam_j (G_(j-1) * k r_j) . B_j``
    less the slope in ``T``, with the adjoint
    ``B_j[a] = sum_b (r_(j+1) * ... * r_(i-1))[b] w[a+b]`` from one reverse sweep.
    """
    big_n = n - 1
    terms = np.asarray(probs[:upto], dtype=float).tolist()
    values = np.zeros(upto)
    table, steps = (0, np.ones(1)), []  # G_0; (r_j, G_(j-1)) for the reverse sweep
    rows: dict[float, tuple[int, np.ndarray]] = {}  # r_j by lam_j: one row under uniform play
    for i in range(1, upto + 1):
        if not table[1][0]:
            break
        if every or i == upto:
            weights = _log_weights(table, big_n, big_n * math.fsum(terms[: i - 1]))
            # log1p of the exactly rounded S_i: forming T = 1 - S_i first
            # would cost N u relative through T^k
            s_i = math.fsum(terms[:i])
            log_tail = math.log1p(-s_i) if s_i < 1.0 else _LOG_ZERO
            values[i - 1], through_tail = _scaled_chance(table, weights, log_tail)
        if i < upto:
            lam = big_n * terms[i - 1]
            row = rows.get(lam)
            if row is None:
                row = rows[lam] = _no_unique_row(lam)
            if gradient:
                steps.append((row, table))
            table = _convolve(table, row, big_n)
    if not gradient:
        return values
    grad = np.zeros(n)
    if not table[1][0]:
        return grad
    grad[:upto] = -through_tail
    k, base = weights
    adjoint = (table[0], np.exp(base + k * log_tail))  # B_(upto-1) = w
    for j in range(upto - 1, 0, -1):
        (lo, row), (start, prefix) = steps[j - 1]
        lam = big_n * terms[j - 1]
        if lam > 0.0:  # else pmf(k - 1) = 0 for k >= 2
            part = _convolve((start, prefix), (lo, np.arange(lo, lo + row.size) * row), big_n)
            through_count = float(part[1] @ _window(adjoint, part[0], part[1].size))
            grad[j - 1] += big_n / lam * through_count
        # B_(j-1)[a] = sum_k r_j[k] B_j[a+k], only where G_(j-1) is nonzero:
        # elsewhere it meets only entries below the smallest normal double
        window = _window(adjoint, start + lo, prefix.size + row.size - 1)
        adjoint = (start, np.correlate(window, row, "valid"))
    return grad


class PrefixChance:
    """Win chance of the next number as a function of its own probability.

    With ``p_1..p_{i-1}`` fixed, ``c_i`` is the polynomial
    ``sum_m C(N, m) F_{i-1}[m] T^(N-m)`` in the tail mass ``T = R - p_i``,
    ``R = 1 - p_1 - ... - p_{i-1}`` (:attr:`rest`). Its coefficients are
    nonnegative, so ``c_i`` increases with ``T`` on ``[0, R]``.
    :meth:`at_tail` gives the value and its slope in ``T`` by Horner's rule,
    stable on ``[0, R]`` where every partial sum is nonnegative; a candidate
    ``p_i`` is evaluated at ``T = R - p_i``. :meth:`fix` takes the solved
    ``T``, appends ``p_i = R - T`` and advances the table one step.
    Above ``n = 400`` the Poisson-scaled form is evaluated instead, at
    ``log T``, with the log-weights of the fixed prefix formed once per
    :meth:`fix`.
    """

    def __init__(self, n: int):
        self.n = n
        self.prefix: list[float] = []
        self.rest = 1.0
        self._scaled = n > _SCALED_ABOVE
        if self._scaled:
            self._table = (0, np.ones(1))  # g over the empty prefix
            self._weights = _log_weights(self._table, n - 1, 0.0)
        else:
            self._table = np.eye(1, n)[0]  # F_0
            self._binom_n = _product_constants(n)[0]  # C(N, m)
            self._coef = [1.0] + [0.0] * (n - 1)  # C(N, m) F_{i-1}[m]

    def at_tail(self, tail: float) -> tuple[float, float]:
        """``c_i`` and ``dc_i/dT`` at the tail mass ``T = tail``, one Horner pass."""
        if self._scaled:
            return _scaled_chance(self._table, self._weights, math.log(tail) if tail > 0.0 else _LOG_ZERO)
        value = slope = 0.0
        for a in self._coef:
            slope = slope * tail + value
            value = value * tail + a
        return value, slope

    def floor(self) -> float:
        """``c_i`` at ``T = 0``, the same to the bit as ``at_tail(0.0)[0]``
        without its pass: the last coefficient, or the scaled form's
        ``m = N`` term (0 where the table stops short of it)."""
        if self._scaled:
            k, base = self._weights
            return float(self._table[1][-1] * np.exp(base[-1:])[0]) if k[-1] == 0 else 0.0
        return self._coef[-1]

    def fix(self, tail: float) -> None:
        """Fix ``p_i = rest - tail``; the next number's remaining mass is
        ``tail``, the tail mass the caller solved for (no ``1 - sum p``)."""
        p_i = float(self.rest - tail)
        self.prefix.append(p_i)
        self.rest = tail
        big_n = self.n - 1
        if self._scaled:
            self._table = _convolve(self._table, _no_unique_row(big_n * p_i), big_n)
            self._weights = _log_weights(self._table, big_n, big_n * math.fsum(self.prefix))
        else:
            self._table = _steps(p_i, self.n) @ self._table
            self._coef = (self._binom_n * self._table).tolist()


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------


def _chances(probs: np.ndarray, n: int, upto: int, every: bool = False, gradient: bool = False):
    """``c_upto``, ``c_1..c_upto`` with ``every``, or with ``gradient`` the
    derivatives of ``c_upto``: by the product form up to ``n = 400``, by
    the Poisson-scaled form above it."""
    upto = require_int("i", upto, 1, n)
    scaled = n > _SCALED_ABOVE
    if gradient:
        return _scaled(probs, n, upto, gradient=True) if scaled else _kernel(probs, n, upto, jacobian=1)[1][0]
    values = _scaled(probs, n, upto, every) if scaled else _kernel(probs, n, upto)
    values = np.clip(values, 0.0, 1.0)  # rounding can pass 1 by ulps: all mass on 1, n = 500
    return values if every else float(values[-1])


def win_prob(i: int, p: Strategy) -> float:
    """Chance of winning with number ``i`` against ``n - 1`` players on ``p``.

    Costs ``O(i n^2)`` by the product form up to ``n = 400``; above it,
    ``O(i L K)`` by the Poisson-scaled form, ``L`` and ``K`` the nonzero
    spans of its prefix table and of one Poisson row, with relative error
    ``O((N S_i + i) u)``, ``S_i = p_1 + ... + p_i``.
    """
    return _chances(p.probs, p.n, i)


def win_prob_vector(p: Strategy) -> WinProbVector:
    """All per-number win chances ``c_1..c_n`` for strategy ``p``, each equal
    to the bit to :func:`win_prob`, from one walk over the prefix tables."""
    return WinProbVector(_chances(p.probs, p.n, p.n, every=True))


def expected_payoff(pi: Strategy, p: Strategy) -> PayoffReport:
    """Expected win rate of a focal player mixing with ``pi`` while the
    others play ``p``: the ``pi``-weighted average of the ``c_i(p)``."""
    if pi.n != p.n:
        raise ValueError(f"strategies disagree on n: {pi.n} vs {p.n}")
    per = win_prob_vector(p)
    w = math.fsum(c * q for c, q in zip(per.values, pi.probs))
    return PayoffReport(w=w, per_number=per)


def symmetric_payoff(p: Strategy) -> float:
    """Expected win rate when every player, focal included, uses ``p``."""
    return expected_payoff(p, p).w


def uniform_asymptotic_win_prob(i: int) -> float:
    """Large-game limit of ``c_i`` under uniform play:
    ``e^-1 (1 - e^-1)^(i-1)``."""
    i = require_int("i", i, 1)
    return _INV_E * (1.0 - _INV_E) ** (i - 1)


def win_prob_gradient(i: int, p: Strategy) -> np.ndarray:
    """Partial derivatives of ``win_prob(i, .)`` in all ``n`` coordinates.

    Derivatives are of the closed-form expression as written, without
    re-imposing the sum-to-one constraint; entries ``j > i`` are zero
    because the expression never references those coordinates. Simplex
    tangential derivatives are a caller-side chain rule. Like
    :func:`win_prob`, they come from the product form (``O(i n^2)``) or,
    above ``n = 400``, from the Poisson-scaled form.
    """
    return _chances(p.probs, p.n, i, gradient=True)
