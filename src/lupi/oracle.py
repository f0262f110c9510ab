"""Independent ground truth: exact enumeration and seeded simulation.

Both routes here deliberately avoid the inclusion-exclusion algebra used by
:mod:`lupi.winprob`, so agreement between the two is a real check rather
than the same code twice.

The exact route enumerates occupancy vectors: how many opponents land on
each number. Win-with-``i`` status depends only on those counts, so the sum
runs over the ``C(2n-2, n-1)`` compositions of ``n - 1`` picks into ``n``
numbers instead of the ``n^(n-1)`` labeled outcomes. The vectors and their
multinomial counts are built once per ``n``, on first use, and kept in a
small cache; each call selects the rows where ``i`` wins.

The simulation route actually plays the game. Randomness comes from the
counter-based Philox 4x64 generator with 10 rounds, keyed by the 128-bit
pair ``(seed, shard_index)``; uniform doubles are the generator's 53-bit
variates, consumed round-major as one ``(rounds, n)`` matrix per block
(opponent columns first, the observed player last). A pick is the inverse
CDF of the strategy on right-closed intervals: with ``u`` uniform on
``[0, 1)``, ``v = 1 - u`` lies in ``(0, 1]`` and the pick is the smallest
``k`` whose cumulative probability is ``>= v``, so zero-probability numbers
are never picked.

A shard's rounds are cut into contiguous spans, at most one per usable CPU,
and the spans run on threads (numpy releases the GIL in the Philox fill and
in the ufuncs). Philox is counter-based, so a span starting at round ``r``
enters its shard's stream directly at counter ``r * n / 4`` and draws
exactly what one pass over the whole shard would. Everything downstream is
integer counting, summed over spans, so every count and estimate depends on
``(seed, shards)`` alone, not on the CPU count, the spans or the blocks.

Up to ``n = 64`` a pick is the count of ``k < n - 1`` with ``cum_k < v``,
and the winner is the lowest bit of a ``uint64`` mask of the numbers picked
exactly once; above that a binary search and per-round counts give the same
picks and winners.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .config import ORACLE_PLAYER_CAP_DEFAULT, require_cap, require_int
from .game import Strategy

GENERATOR_NAME = "philox4x64-10"

# Rounds are simulated in blocks inside each span, of at most _BLOCK_ROUNDS
# rounds and _BLOCK_DRAWS uniforms: 2^13 rounds up to n = 16, 2^11 at
# n = 64, 131 at n = 1000. Larger blocks let threads overlap longer numpy
# calls; smaller ones stay in cache and keep a run's temporaries from being
# paged in afresh every block. Draws are consumed round-major, so the block
# size changes no count; the sizes are set by timings at n = 5, 12, 64 and
# 65 with the spans in place (BENCH_parallel_simulate.json).
_BLOCK_ROUNDS = 1 << 13
_BLOCK_DRAWS = 1 << 17

# Spans hold about this many rounds or more; it must be at least 4, so that
# span starts, multiples of 4, stay distinct. A run shorter than two spans
# starts no thread.
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
    shards: int
    generator: str
    w_estimate: float
    w_std_err: float

    def to_json_obj(self) -> dict:
        return asdict(self)


def exact_win_prob(i: int, p: Strategy, *, max_players: int | None = None) -> float:
    """Win chance with number ``i`` by direct enumeration.

    Sums ``multinomial(n-1; k) * prod p_j^k_j`` over all occupancy vectors
    ``k`` of the opponents' picks with ``k_i = 0`` and no ``k_j = 1`` for
    ``j < i``. Exact up to floating-point rounding, no algebra shared with
    the closed-form evaluator.
    """
    n = p.n
    require_cap(n, "max_players", max_players, ORACLE_PLAYER_CAP_DEFAULT, "enumeration")
    i = require_int("i", i, 1, n)
    counts, ways = _occupancy_table(n)
    keep = counts[:, i - 1] == 0
    keep &= ~(counts[:, : i - 1] == 1).any(axis=1)
    counts = counts[keep]
    # every term is (ways * p_1^k_1 * ... * p_(n-1)^k_(n-1)) * p_n^k_n, left
    # to right, with each power one scalar ``p_j ** k``; a skipped factor
    # p_i^0 = 1.0 is exact, and fsum does not depend on the order of terms
    probs = p.probs
    powers = np.array([[probs[j] ** k for k in range(n)] for j in range(n)])
    weight = powers[0][counts[:, 0]]
    for j in range(1, n - 1):
        weight *= powers[j][counts[:, j]]
    terms = ways[keep] * weight * powers[n - 1][counts[:, n - 1]]
    return math.fsum(terms.tolist())


@functools.lru_cache(maxsize=4)
def _occupancy_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every occupancy vector of ``n - 1`` picks over ``n`` numbers and its count.

    Returns read-only ``(counts, ways)``: ``counts`` has one row per vector
    (``C(2n-2, n-1)`` rows, ``n`` columns), ``ways`` the exact multinomial
    ``(n-1)! / prod k_j!`` of each row. Built one number at a time: a
    partial row with ``r`` picks left spawns one row per count ``k = 0..r``
    of the next number, and its ways multiply by ``C(r, k)``.
    """
    binom = np.array([[math.comb(r, k) for k in range(n)] for r in range(n)], dtype=np.int64)
    counts = np.zeros((1, 0), dtype=np.uint8)
    remaining = np.array([n - 1])
    ways = np.ones(1, dtype=np.int64)
    for _ in range(n - 1):
        spawn = remaining + 1
        parent = np.repeat(np.arange(remaining.size), spawn)
        k = np.arange(parent.size) - np.repeat(np.cumsum(spawn) - spawn, spawn)
        counts = np.column_stack((counts[parent], k.astype(np.uint8)))
        ways = ways[parent] * binom[remaining[parent], k]
        remaining = remaining[parent] - k
    counts = np.column_stack((counts, remaining.astype(np.uint8)))
    counts.flags.writeable = False
    ways.flags.writeable = False
    return counts, ways


def _count_winners(picks: np.ndarray) -> np.ndarray:
    """Per round, whether the last row's player wins; ``picks`` is (players,
    rounds) of 0-based numbers below the player count."""
    n, block = picks.shape
    cells = picks * block + np.arange(block)  # one bin per (number, round)
    unique = np.bincount(cells.ravel(), minlength=n * block).reshape(n, block) == 1
    return unique.any(axis=0) & (unique.argmax(axis=0) == picks[-1])


def _threshold_picks(cum: np.ndarray, v: np.ndarray) -> np.ndarray:
    """0-based picks, ``sum_k [cum_k < v]`` over ``k < n - 1``, as uint8.

    Equals ``np.searchsorted(cum, v, side="left")`` for ``v`` in ``(0, 1]``
    and ``cum[-1] == 1.0``, ties and an ulp of overshoot in ``cum`` included.
    """
    picks = np.zeros(v.shape, dtype=np.uint8)
    below = np.empty(v.shape, dtype=bool)
    for c in cum[:-1]:
        np.less(c, v, out=below)
        picks += below.view(np.uint8)
    return picks


def _mask_winners(picks: np.ndarray) -> np.ndarray:
    """Per round, whether the last row's player wins; ``picks`` is (players,
    rounds) of 0-based numbers below 64."""
    bits = np.left_shift(np.uint64(1), picks, dtype=np.uint64)
    once = bits[0].copy()
    twice = np.zeros_like(once)
    for b in bits[1:]:
        twice |= once & b
        once |= b
    once &= ~twice  # numbers picked exactly once
    return once & -once == bits[-1]  # lowest set bit, in two's complement


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _spans(rounds: int, shards: int, cpus: int) -> list[tuple[int, int, int]]:
    """``(shard, first_round, span_rounds)`` for every span of the run.

    Only the first ``min(shards, rounds)`` shards get rounds. A shard is cut
    into at most ``cpus`` contiguous spans of about ``_MIN_SPAN_ROUNDS``
    rounds or more, each starting at a multiple of 4 rounds.
    """
    base_rounds, extra = divmod(rounds, shards)
    spans = []
    for shard in range(min(shards, rounds)):
        shard_rounds = base_rounds + (1 if shard < extra else 0)
        cuts = max(1, min(cpus, shard_rounds // _MIN_SPAN_ROUNDS))
        starts = [4 * (shard_rounds * j // (4 * cuts)) for j in range(cuts)] + [shard_rounds]
        spans += [(shard, a, b - a) for a, b in zip(starts, starts[1:])]
    return spans


def _span_counts(
    cum_p: np.ndarray, cum_pi: np.ndarray, seed: int, shard: int, first_round: int, span_rounds: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-number pick and win counts of the observed player over one span.

    The span's draws start at round ``first_round`` of the Philox stream
    keyed ``(seed, shard)``: each double takes one uint64 and each counter
    step gives four, so with ``first_round`` a multiple of 4 the stream is
    entered at counter ``first_round * n / 4``.
    """
    n = cum_p.size
    key = np.array([seed, shard], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key, counter=first_round * n // 4))
    chosen_counts = np.zeros(n, dtype=np.int64)
    win_counts = np.zeros(n, dtype=np.int64)
    block_rounds = min(_BLOCK_ROUNDS, max(1, _BLOCK_DRAWS // n))
    if n <= 64:  # a round's picks fit one uint64 mask
        pick, winners = _threshold_picks, _mask_winners
    else:
        pick, winners = np.searchsorted, _count_winners
    done = 0
    while done < span_rounds:
        block = min(block_rounds, span_rounds - done)
        v = np.subtract(1.0, rng.random((block, n)).T, order="C")  # one row per player
        picks = np.vstack((pick(cum_p, v[:-1]), pick(cum_pi, v[-1:])))
        observed, observed_won = picks[-1], winners(picks)
        chosen_counts += np.bincount(observed, minlength=n)
        win_counts += np.bincount(observed[observed_won], minlength=n)
        done += block
    return chosen_counts, win_counts


def _in_threads(run, jobs: list[tuple], workers: int) -> list:
    """``[run(*job) for job in jobs]`` on ``workers`` threads.

    The calling thread is one of them and only ``workers - 1`` are started;
    thread ``t`` takes every ``workers``-th job from job ``t``. An exception
    in any thread is raised here once all have finished.
    """
    results: list = [None] * len(jobs)
    errors: list[BaseException] = []

    def work(t: int) -> None:
        try:
            for j in range(t, len(jobs), workers):
                results[j] = run(*jobs[j])
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(t,)) for t in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def simulate(
    pi: Strategy,
    p: Strategy,
    rounds: int,
    seed: int,
    *,
    shards: int = 1,
) -> SimulationStats:
    """Play ``rounds`` games: ``n - 1`` opponents on ``p``, observed player on ``pi``.

    Fully reproducible from ``(seed, shards)``. Rounds are split across
    shards as evenly as possible (earlier shards take the remainder); shard
    ``s`` draws from its own Philox stream keyed ``(seed, s)``. Each shard's
    rounds are cut into contiguous spans, at most one per usable CPU, that
    run on threads; a span enters its shard's stream at its first round's
    Philox counter, so the result is the same for any CPU count. A run
    shorter than ``2 * _MIN_SPAN_ROUNDS`` rounds stays on the calling
    thread.

    Args:
        pi: Strategy of the observed player.
        p: Strategy of the other ``n - 1`` players.
        rounds: Number of independent games, at least 1.
        seed: 64-bit stream key.
        shards: Number of independent substreams.

    Returns:
        A :class:`SimulationStats` with per-number conditional win
        estimates and the overall win-rate estimate.
    """
    if pi.n != p.n:
        raise ValueError(f"strategies disagree on n: {pi.n} vs {p.n}")
    rounds = require_int("rounds", rounds, 1)
    shards = require_int("shards", shards, 1)
    seed = require_int("seed", seed, 0, 2**64 - 1)
    n = p.n

    cum_p = np.cumsum(p.probs)
    cum_pi = np.cumsum(pi.probs)
    cum_p[-1] = cum_pi[-1] = 1.0  # close the last interval exactly

    cpus = _usable_cpus()
    spans = _spans(rounds, shards, cpus)
    # a run too small for two minimum spans stays on the calling thread
    workers = max(1, min(cpus, len(spans), rounds // _MIN_SPAN_ROUNDS))
    parts = _in_threads(functools.partial(_span_counts, cum_p, cum_pi, seed), spans, workers)
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
        shards=shards,
        generator=GENERATOR_NAME,
        w_estimate=float(w),
        w_std_err=float(math.sqrt(w * (1.0 - w) / rounds)),
    )
