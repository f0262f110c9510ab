"""Independent ground truth: exact enumeration and seeded simulation.

Both routes here deliberately avoid the inclusion-exclusion algebra used by
:mod:`lupi.winprob`, so agreement between the two is a real check rather
than the same code twice.

The exact route enumerates occupancy vectors: how many opponents land on
each number. Win-with-``i`` status depends only on those counts, so the sum
runs over the ``C(2n-2, n-1)`` compositions of ``n - 1`` picks into ``n``
numbers instead of the ``n^(n-1)`` labeled outcomes. Once per ``n``, on
first use, the vectors and their multinomial counts are built, and the rows
where each ``i`` wins are kept, stored number-major, in a small cache; the
full set of vectors is not. A call only raises its own rows' counts to
powers and sums the terms.

The simulation route actually plays the game. Randomness comes from
numpy's PCG64DXSM generator seeded by ``SeedSequence(seed)``, whose output
numpy keeps stable across versions; uniform doubles are the generator's
53-bit variates, one 64-bit output each, consumed round-major as one
``(rounds, n)`` matrix per block (opponent columns first, the observed
player last). A pick is the inverse CDF of the strategy on right-closed
intervals: with ``u`` uniform on ``[0, 1)``, ``v = 1 - u`` lies in
``(0, 1]`` and the pick is the smallest ``k`` whose cumulative probability
is ``>= v``, so zero-probability numbers are never picked.

The rounds are cut into contiguous spans, at most one per usable CPU. A run
of two or more spans hands them to the standard library's thread pool, one
worker per span (numpy releases the GIL in the generator's fill and in the
ufuncs); only such a run imports the pool, so neither a one-span run nor
the import of this module loads it. PCG64DXSM can jump ahead, so a span
starting at round ``r`` enters the stream directly at draw ``r * n`` and
draws exactly what one pass over all rounds would. Everything
downstream is integer counting, summed over spans, so every count and
estimate depends on the seed alone, not on the CPU count, the spans or the
blocks.

Up to ``n = 64`` a pick is the count of ``k < n - 1`` with ``cum_k < v``,
and the winner is the lowest bit of a mask of the numbers picked exactly
once, in the narrowest unsigned word of ``n`` bits or more; above that a
binary search and per-round counts give the same picks and winners.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from .config import require_cap, require_int
from .game import Strategy

GENERATOR_NAME = "pcg64dxsm"
_N_MAX = 10  # largest n enumerated: C(2n-2, n-1) occupancy vectors, 48,620 at n = 10

# Rounds are simulated in blocks inside each span, of at most _BLOCK_ROUNDS
# rounds and _BLOCK_DRAWS uniforms: 2^13 rounds up to n = 16, 2^11 at
# n = 64, 131 at n = 1000. Larger blocks let threads overlap longer numpy
# calls; smaller ones stay in cache and keep a run's temporaries from being
# paged in afresh every block. Draws are consumed round-major, so the block
# size changes no count; the sizes are set by timings at n = 5, 12, 64 and
# 65 with the spans in place (BENCH_parallel_simulate.json).
_BLOCK_ROUNDS = 1 << 13
_BLOCK_DRAWS = 1 << 17

# Spans hold about this many rounds or more; it must be at least 1, so that
# span starts stay distinct. A run shorter than two spans starts no thread.
_MIN_SPAN_ROUNDS = 1 << 15


@dataclass(frozen=True)
class SimulationStats:
    """Outcome counts and estimates from one simulation run.

    ``est_ci[i-1]`` estimates the win chance given the observed player
    picked ``i``, so it conditions on the pick count; numbers never picked
    carry ``None``. ``w_estimate`` is the unconditional win rate.
    """

    rounds: int
    win_counts: list[int]
    est_ci: list[float | None]
    std_err: list[float | None]
    seed: int
    generator: str
    w_estimate: float
    w_std_err: float

    def to_json_obj(self) -> dict:
        return asdict(self)


def exact_win_prob(i: int, p: Strategy) -> float:
    """Win chance with number ``i`` by direct enumeration.

    Sums ``multinomial(n-1; k) * prod p_j^k_j`` over all occupancy vectors
    ``k`` of the opponents' picks with ``k_i = 0`` and no ``k_j = 1`` for
    ``j < i``: the rows of :func:`_win_rows` for ``i``, selected once per
    ``n``, so a call only gathers the powers of its own rows. The terms are
    rounded products; their sum is exactly rounded by :func:`_exact_sum`.
    No algebra is shared with the closed-form evaluator.
    """
    n = p.n
    require_cap(n, _N_MAX, "enumeration")
    i = require_int("i", i, 1, n)
    counts, ways = _win_rows(n)[i - 1]
    # every term is (ways * p_1^k_1 * ... * p_(n-1)^k_(n-1)) * p_n^k_n, left
    # to right, with each power one scalar ``p_j ** k``; a skipped factor
    # p_i^0 = 1.0 is exact, and the exact sum does not depend on their order
    probs = p.probs
    powers = np.array([[probs[j] ** k for k in range(n)] for j in range(n)])
    weight = powers[0][counts[0]]
    for j in range(1, n - 1):
        weight *= powers[j][counts[j]]
    terms = ways * weight * powers[n - 1][counts[n - 1]]
    return _exact_sum(terms)


def _exact_sum(terms: np.ndarray) -> float:
    """The exactly rounded sum of finite doubles, bit for bit ``math.fsum``.

    ``np.frexp`` gives each term as ``m 2^e``; ``m 2^26`` splits into a
    26-bit integer part and a 27-bit fraction, each summed per exponent by
    one ``bincount``, exactly for fewer than ``2^26`` terms (enumeration has
    at most 24,310). Python integers join the bins, and the one rounding is
    Python's correctly rounded integer division.
    """
    mant, exp = np.frexp(terms)
    mant *= 1 << 26
    whole = np.floor(mant)
    mant -= whole
    low = int(exp.min())
    bins = np.subtract(exp, low, dtype=np.intp)
    parts = zip(np.bincount(bins, whole).tolist(), np.bincount(bins, mant).tolist())
    total = sum(((int(w) << 27) + int(f * (1 << 27))) << b for b, (w, f) in enumerate(parts))
    return float(total << low - 53) if low >= 53 else total / (1 << 53 - low)


@functools.lru_cache(maxsize=4)
def _win_rows(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per ``i = 1..n``, the occupancy vectors where ``i`` wins and their counts.

    Entry ``i - 1`` is read-only ``(counts, ways)`` over the vectors ``k``
    of ``n - 1`` picks over ``n`` numbers with ``k_i = 0`` and no
    ``k_j = 1`` for ``j < i``; ``counts`` is number-major, ``(n, rows)``,
    so each number's counts are one contiguous row, and ``ways`` holds the
    exact multinomials ``(n-1)! / prod k_j!``. All ``C(2n-2, n-1)`` vectors
    are built one number at a time: a partial vector with ``r`` picks left
    spawns one vector per count ``k = 0..r`` of the next number, and its
    ways multiply by ``C(r, k)``. Only the selected rows are kept.
    """
    binom = np.array([[math.comb(r, k) for k in range(n)] for r in range(n)], dtype=np.int64)
    table = np.zeros((1, 0), dtype=np.uint8)
    remaining = np.array([n - 1])
    table_ways = np.ones(1, dtype=np.int64)
    for _ in range(n - 1):
        spawn = remaining + 1
        parent = np.repeat(np.arange(remaining.size), spawn)
        k = np.arange(parent.size) - np.repeat(np.cumsum(spawn) - spawn, spawn)
        table = np.column_stack((table[parent], k.astype(np.uint8)))
        table_ways = table_ways[parent] * binom[remaining[parent], k]
        remaining = remaining[parent] - k
    table = np.column_stack((table, remaining.astype(np.uint8)))
    del parent, k  # the build's index arrays, not needed for the selection
    unique_upto = np.logical_or.accumulate(table == 1, axis=1)  # [:, j]: some k_1..k_(j+1) is 1
    rows = []
    for i in range(1, n + 1):
        keep = table[:, i - 1] == 0
        if i > 1:
            keep &= ~unique_upto[:, i - 2]
        counts, ways = np.ascontiguousarray(table[keep].T), table_ways[keep]
        counts.flags.writeable = False
        ways.flags.writeable = False
        rows.append((counts, ways))
    return tuple(rows)


def _count_winners(picks: np.ndarray) -> np.ndarray:
    """Per round, whether the last row's player wins; ``picks`` is (players,
    rounds) of 0-based numbers below the player count."""
    n, block = picks.shape
    cells = picks * block + np.arange(block)  # one bin per (number, round)
    unique = np.bincount(cells.ravel(), minlength=n * block).reshape(n, block) == 1
    return unique.any(axis=0) & (unique.argmax(axis=0) == picks[-1])


def _threshold_picks(cum: np.ndarray, v: np.ndarray, out=None, below=None) -> np.ndarray:
    """0-based picks, ``sum_k [cum_k < v]`` over ``k < n - 1``, as uint8,
    written into ``out`` when given; ``below`` is a bool scratch array of
    ``v``'s shape, allocated when not given.

    Equals ``np.searchsorted(cum, v, side="left")`` for ``v`` in ``(0, 1]``
    and ``cum[-1] == 1.0``, ties and an ulp of overshoot in ``cum`` included.
    """
    picks = np.empty(v.shape, dtype=np.uint8) if out is None else out
    below = np.empty(v.shape, dtype=bool) if below is None else below
    picks.fill(0)
    for c in cum[:-1]:
        np.less(c, v, out=below)
        picks += below.view(np.uint8)
    return picks


def _mask_winners(picks: np.ndarray, bits=None) -> np.ndarray:
    """Per round, whether the last row's player wins; ``picks`` is (players,
    rounds) of 0-based numbers below ``players <= 64``. ``bits`` is a scratch
    array of its shape in the narrowest unsigned word of ``players`` bits."""
    word = np.min_scalar_type((1 << len(picks)) - 1)
    bits = np.left_shift(word.type(1), picks, dtype=word, out=bits)
    once = bits[0].copy()
    twice = np.zeros_like(once)
    for b in bits[1:]:
        twice |= once & b
        once |= b
    once &= ~twice  # numbers picked exactly once
    return once & -once == bits[-1]  # lowest set bit, in two's complement of any width


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spans(rounds: int, cpus: int) -> list[tuple[int, int]]:
    """``(first_round, span_rounds)`` for every span of the run.

    The rounds are cut into at most ``cpus`` contiguous spans of about
    ``_MIN_SPAN_ROUNDS`` rounds or more; a run shorter than two minimum
    spans is one span.
    """
    cuts = max(1, min(cpus, rounds // _MIN_SPAN_ROUNDS))
    starts = [rounds * j // cuts for j in range(cuts)] + [rounds]
    return [(a, b - a) for a, b in zip(starts, starts[1:])]


def _span_counts(
    cum_p: np.ndarray, cum_pi: np.ndarray, seed: int, first_round: int, span_rounds: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-number pick and win counts of the observed player over one span.

    The span's draws start at round ``first_round`` of the PCG64DXSM stream
    seeded by ``seed``: each double takes one 64-bit output, so the stream
    is entered ``first_round * n`` outputs ahead. Every block writes its
    draws, picks and scratch arrays into buffers made once per span, a
    short last block into the front of each.
    """
    n = cum_p.size
    rng = np.random.Generator(np.random.PCG64DXSM(seed).advance(first_round * n))
    counts = np.zeros(2 * n, dtype=np.int64)  # lost rounds per pick in bins 0..n-1, won in n..2n-1
    block_rounds = min(_BLOCK_ROUNDS, max(1, _BLOCK_DRAWS // n), span_rounds)
    masks = n <= 64  # a round's picks fit one mask word, of n bits or more
    word = np.min_scalar_type((1 << n) - 1)  # with masks, the narrowest word of n bits
    # draws, v, picks and, with masks, the compare scratch array
    dtypes = (float, float, np.uint8, bool) if masks else (float, float, np.intp)
    buffers = [np.empty(n * block_rounds, dtype=dtype) for dtype in dtypes]
    done = 0
    while done < span_rounds:
        block = min(block_rounds, span_rounds - done)
        # a short last block takes the front of each buffer
        draws, *rest = (buf[: n * block] for buf in buffers)
        rng.random(out=draws)  # round-major: one round's n draws after another
        v, picks, *scratch = (a.reshape(n, block) for a in rest)
        np.subtract(1.0, draws.reshape(block, n).T, out=v)  # one row per player
        if masks:
            (below,) = scratch
            _threshold_picks(cum_p, v[:-1], picks[:-1], below[:-1])
            _threshold_picks(cum_pi, v[-1:], picks[-1:], below[-1:])
            # the draws are spent once v is formed: their buffer takes the bits
            observed_won = _mask_winners(picks, draws.view(word)[: n * block].reshape(n, block))
        else:
            picks[:-1] = np.searchsorted(cum_p, v[:-1])
            picks[-1] = np.searchsorted(cum_pi, v[-1])
            observed_won = _count_winners(picks)
        counts += np.bincount(picks[-1] + n * observed_won, minlength=2 * n)  # one count per block
        done += block
    lost, won = counts.reshape(2, n)
    return lost + won, won


def simulate(pi: Strategy, p: Strategy, rounds: int, seed: int) -> SimulationStats:
    """Play ``rounds`` games: ``n - 1`` opponents on ``p``, observed player on ``pi``.

    Fully reproducible from ``seed``: every round draws from the one
    PCG64DXSM stream seeded by ``seed``. The rounds are cut into contiguous
    spans, at most one per usable CPU, run by a thread pool with one worker
    per span; a span jumps ahead to its first round's draws, so the result
    is the same for any CPU count. A run shorter than ``2 *
    _MIN_SPAN_ROUNDS`` rounds is one span, counted on the calling thread
    without the pool.

    Args:
        pi: Strategy of the observed player.
        p: Strategy of the other ``n - 1`` players.
        rounds: Number of independent games, at least 1.
        seed: 64-bit stream seed.

    Returns:
        A :class:`SimulationStats` with per-number conditional win
        estimates and the overall win-rate estimate.
    """
    if pi.n != p.n:
        raise ValueError(f"strategies disagree on n: {pi.n} vs {p.n}")
    rounds = require_int("rounds", rounds, 1)
    seed = require_int("seed", seed, 0, 2**64 - 1)
    n = p.n

    cum_p = np.cumsum(p.probs)
    cum_pi = np.cumsum(pi.probs)
    cum_p[-1] = cum_pi[-1] = 1.0  # close the last interval exactly

    count = functools.partial(_span_counts, cum_p, cum_pi, seed)
    spans = _spans(rounds, _usable_cpus())
    if len(spans) == 1:
        parts = [count(*spans[0])]
    else:
        from concurrent.futures import ThreadPoolExecutor  # paid only by runs that start threads

        with ThreadPoolExecutor(max_workers=len(spans)) as pool:
            parts = list(pool.map(count, *zip(*spans)))
    # integer sums: the same counts in any order, for any CPU count
    chosen_counts = sum(chosen for chosen, _ in parts)
    win_counts = sum(wins for _, wins in parts)

    est: list[float | None] = []
    err: list[float | None] = []
    for k in range(n):
        if chosen_counts[k] == 0:
            est.append(None)
            err.append(None)
            continue
        rate = win_counts[k] / chosen_counts[k]
        est.append(float(rate))
        err.append(float(math.sqrt(rate * (1.0 - rate) / chosen_counts[k])))

    w = int(win_counts.sum()) / rounds
    return SimulationStats(
        rounds=rounds,
        win_counts=[int(v) for v in win_counts],
        est_ci=est,
        std_err=err,
        seed=seed,
        generator=GENERATOR_NAME,
        w_estimate=float(w),
        w_std_err=float(math.sqrt(w * (1.0 - w) / rounds)),
    )
