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
are never picked. Everything downstream is integer counting, so the merged
result over shards equals the single-threaded result for the same
``(seed, shards)`` no matter how shards would be scheduled or cut into blocks.

Up to ``n = 64`` a pick is the count of ``k < n - 1`` with ``cum_k < v``,
and the winner is the lowest bit of a ``uint64`` mask of the numbers picked
exactly once; above that a binary search and per-round counts give the same
picks and winners.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import ORACLE_PLAYER_CAP_DEFAULT, ResourceLimitError
from .game import Strategy

GENERATOR_NAME = "philox4x64-10"

# Rounds are simulated in blocks inside each shard. Draws are consumed
# round-major, so the block size changes no count; 2^12 is set by timings
# at n = 5, 12 and 64 (BENCH_simulate.json).
_BLOCK_ROUNDS = 1 << 12


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
        return {
            "rounds": self.rounds,
            "win_counts": list(self.win_counts),
            "est_ci": list(self.est_ci),
            "std_err": list(self.std_err),
            "seed": self.seed,
            "shards": self.shards,
            "generator": self.generator,
            "w_estimate": self.w_estimate,
            "w_std_err": self.w_std_err,
        }


def exact_win_prob(i: int, p: Strategy, *, max_players: int | None = None) -> float:
    """Win chance with number ``i`` by direct enumeration.

    Sums ``multinomial(n-1; k) * prod p_j^k_j`` over all occupancy vectors
    ``k`` of the opponents' picks with ``k_i = 0`` and no ``k_j = 1`` for
    ``j < i``. Exact up to floating-point rounding, no algebra shared with
    the closed-form evaluator.
    """
    n = p.n
    cap = ORACLE_PLAYER_CAP_DEFAULT if max_players is None else max_players
    if n > cap:
        raise ResourceLimitError(
            f"enumeration for n={n} has C({2 * n - 2},{n - 1}) occupancy vectors, "
            f"above the configured cap n={cap}"
        )
    if int(i) != i or not 1 <= i <= n:
        raise ValueError(f"number index {i} outside 1..{n}")
    i = int(i)
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


def _round_winners(picks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Winner status for a block of rounds.

    ``picks`` is (rounds, players) of 0-based numbers. Returns
    ``(has_winner, winning_number)``; the winning number is 0-based and
    meaningful only where ``has_winner`` is set.
    """
    block = picks.shape[0]
    cells = picks + n * np.arange(block)[:, None]  # one bin per (round, number)
    counts = np.bincount(cells.ravel(), minlength=block * n).reshape(block, n)
    unique = counts == 1
    return unique.any(axis=1), unique.argmax(axis=1)


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
    ``s`` draws from its own Philox stream keyed ``(seed, s)``, so the run
    could be executed shard-parallel and merged without changing a single
    count.

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
    if int(rounds) != rounds or rounds < 1:
        raise ValueError(f"rounds must be a positive integer, got {rounds}")
    if int(shards) != shards or shards < 1:
        raise ValueError(f"shards must be a positive integer, got {shards}")
    if int(seed) != seed or not 0 <= seed < 2**64:
        raise ValueError("seed must be an integer in [0, 2^64)")
    rounds, shards, seed = int(rounds), int(shards), int(seed)
    n = p.n

    cum_p = np.cumsum(p.probs)
    cum_pi = np.cumsum(pi.probs)
    cum_p[-1] = cum_pi[-1] = 1.0  # close the last interval exactly

    win_counts = np.zeros(n, dtype=np.int64)
    chosen_counts = np.zeros(n, dtype=np.int64)
    total_wins = 0

    base_rounds, extra = divmod(rounds, shards)
    for shard in range(shards):
        shard_rounds = base_rounds + (1 if shard < extra else 0)
        if shard_rounds == 0:
            continue
        key = np.array([seed, shard], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        done = 0
        while done < shard_rounds:
            block = min(_BLOCK_ROUNDS, shard_rounds - done)
            u = rng.random((block, n))
            if n <= 64:  # a round's picks fit one uint64 mask
                v = np.subtract(1.0, u.T, order="C")  # one row per player
                picks = np.vstack((_threshold_picks(cum_p, v[:-1]), _threshold_picks(cum_pi, v[-1:])))
                observed, observed_won = picks[-1], _mask_winners(picks)
            else:
                picks = np.empty((block, n), dtype=np.int64)
                picks[:, : n - 1] = np.searchsorted(cum_p, 1.0 - u[:, : n - 1], side="left")
                picks[:, n - 1] = np.searchsorted(cum_pi, 1.0 - u[:, n - 1], side="left")
                has_winner, winning_number = _round_winners(picks, n)
                observed = picks[:, n - 1]
                observed_won = has_winner & (winning_number == observed)

            chosen_counts += np.bincount(observed, minlength=n)
            win_counts += np.bincount(observed[observed_won], minlength=n)
            total_wins += int(observed_won.sum())
            done += block

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

    w = total_wins / rounds
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
