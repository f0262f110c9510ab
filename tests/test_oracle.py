"""Enumeration oracle self-checks and simulator reproducibility."""

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

import lupi
from lupi import (
    GENERATOR_NAME,
    ChoiceProfile,
    ResourceLimitError,
    Strategy,
    exact_win_prob,
    lowest_unique_winner,
    simulate,
    win_prob,
)
from lupi import oracle
from lupi.oracle import _count_winners, _exact_sum, _mask_winners, _threshold_picks, _win_rows


def random_strategy(rng, n):
    raw = rng.random(n) + 1e-3
    return Strategy(raw / raw.sum())


def occupancy_total(probs):
    """Unrestricted multinomial total, written independently of the oracle:
    must be 1 because the occupancy vectors partition the outcome space."""
    n = len(probs)
    total = 0.0
    for picks in combinations_with_replacement(range(n), n - 1):
        counts = [0] * n
        for j in picks:
            counts[j] += 1
        ways = math.factorial(n - 1)
        weight = 1.0
        for j, k in enumerate(counts):
            ways //= math.factorial(k)
            weight *= probs[j] ** k
        total += ways * weight
    return total


def descend_win_prob(i, p):
    """Enumeration by recursion over the numbers, one occupancy vector per
    leaf: the reference the table-driven oracle must match bit for bit."""
    n = p.n
    probs = p.probs
    terms = []

    def descend(number, remaining, ways, weight):
        # number is 0-based; ways carries the running multinomial count
        if number == n - 1:
            k = remaining
            if (number == i - 1 and k != 0) or (number < i - 1 and k == 1):
                return
            if k and probs[number] == 0.0:
                return
            terms.append(ways * weight * probs[number] ** k)
            return
        if number == i - 1:
            descend(number + 1, remaining, ways, weight)
            return
        for k in range(remaining + 1):
            if number < i - 1 and k == 1:
                continue
            if k and probs[number] == 0.0:
                continue
            descend(
                number + 1,
                remaining - k,
                ways * math.comb(remaining, k),
                weight * probs[number] ** k,
            )

    descend(0, n - 1, 1, 1.0)
    return math.fsum(terms)


def replay_counts(u, cum_p, cum_pi):
    """Pick and win counts of the observed player (last column) over rows of
    uniforms, by inverse-CDF picks and the game rule, one round at a time."""
    n = u.shape[1]
    chosen, wins = [0] * n, [0] * n
    for row in u:
        choices = [int(np.searchsorted(cum_p, 1.0 - x, side="left")) + 1 for x in row[:-1]]
        choices.append(int(np.searchsorted(cum_pi, 1.0 - row[-1], side="left")) + 1)
        chosen[choices[-1] - 1] += 1
        result = lowest_unique_winner(ChoiceProfile(tuple(choices), n))
        if result is not None and result[0] == n:
            wins[result[1] - 1] += 1
    return chosen, wins


def uint64_mask_winners(picks):
    """Whether the last column's player wins, per row of 0-based picks below
    64, by one uint64 mask per row whatever the player count."""
    bits = np.left_shift(np.uint64(1), picks.astype(np.uint64))
    seen = np.zeros(len(picks), dtype=np.uint64)
    repeated = seen.copy()
    for column in bits.T:
        repeated |= seen & column
        seen |= column
    unique = seen & ~repeated
    return unique & (~unique + np.uint64(1)) == bits[:, -1]


def sparse_and_uniform(n):
    """Opponent strategy with zero-probability numbers, observed player uniform."""
    raw = np.random.default_rng(n).random(n)
    raw[[1, n // 2]] = 0.0
    return Strategy(raw / raw.sum()), Strategy.uniform(n)


@pytest.fixture
def thread_calls(monkeypatch):
    """Span count of every simulator run: a run of one span starts no thread."""
    calls = []
    spans = oracle._spans

    def spy(rounds, cpus):
        cut = spans(rounds, cpus)
        calls.append(len(cut))
        return cut

    monkeypatch.setattr(oracle, "_spans", spy)
    return calls


class TestExactWinProb:
    def test_partition_of_unity(self):
        rng = np.random.default_rng(11)
        for n in (3, 4, 5, 6):
            s = random_strategy(rng, n)
            assert occupancy_total(list(s.probs)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform3_values(self):
        s = Strategy.uniform(3)
        assert exact_win_prob(1, s) == pytest.approx(4 / 9, abs=1e-15)
        assert exact_win_prob(2, s) == pytest.approx(2 / 9, abs=1e-15)

    def test_forced_collision(self):
        # all three opponents pile on number 1, so picking 2 always wins
        s = Strategy([1.0, 0.0, 0.0, 0.0])
        assert exact_win_prob(2, s) == 1.0

    def test_matches_closed_form(self):
        rng = np.random.default_rng(13)
        for n in (3, 5, 7):
            for _ in range(10):
                s = random_strategy(rng, n)
                for i in range(1, n + 1):
                    assert abs(exact_win_prob(i, s) - win_prob(i, s)) <= 1e-12

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            exact_win_prob(1, Strategy.uniform(11))

    def test_bad_index(self):
        with pytest.raises(ValueError):
            exact_win_prob(0, Strategy.uniform(3))
        for flag in (True, np.True_):
            with pytest.raises(ValueError):
                exact_win_prob(flag, Strategy.uniform(3))

    @pytest.mark.parametrize("n", range(3, 11))
    def test_bitwise_equal_to_recursion(self, n):
        rng = np.random.default_rng(1000 + n)
        sparse = rng.random(n) + 1e-3
        sparse[[1, n - 1]] = 0.0  # zero entries inside and at the end
        cases = [random_strategy(rng, n) for _ in range(3)] + [
            Strategy(sparse / sparse.sum()),
            Strategy([1.0] + [0.0] * (n - 1)),
            Strategy.uniform(n),
        ]
        for s in cases:
            for i in range(1, n + 1):
                assert exact_win_prob(i, s) == descend_win_prob(i, s)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_occupancy_table(self, n):
        # the occupancy vectors kept per i against an independent count of
        # the compositions of n - 1 picks where i wins
        vectors = [
            [picks.count(j) for j in range(n)]
            for picks in combinations_with_replacement(range(n), n - 1)
        ]
        rows = _win_rows(n)
        assert len(rows) == n
        for i, (counts, ways) in enumerate(rows, 1):
            assert not counts.flags.writeable and not ways.flags.writeable
            assert counts.shape == (n, ways.size)
            kept = counts.T.tolist()
            assert len({tuple(row) for row in kept}) == len(kept)
            assert all(sum(row) == n - 1 and row[i - 1] == 0 and 1 not in row[: i - 1] for row in kept)
            assert all(
                w == math.factorial(n - 1) // math.prod(math.factorial(k) for k in row)
                for row, w in zip(kept, ways.tolist())
            )
            assert len(kept) == sum(row[i - 1] == 0 and 1 not in row[: i - 1] for row in vectors)
        # k_1 = 0: every labeled outcome of n - 1 picks over the other n - 1 numbers
        assert int(rows[0][1].sum()) == (n - 1) ** (n - 1)

    def test_exact_sum_equals_fsum(self):
        # exactly rounded as fsum is, so equal in every bit, sign included
        rng = np.random.default_rng(17)
        tiny = np.nextafter(0.0, 1.0)
        cases = [
            np.zeros(7),
            np.array([tiny, tiny, 3 * tiny, 2.0**-1022 - tiny, 2.0**-1030]),  # subnormals
            np.concatenate(([1.0], np.full(10_000, 2.0**-60))),  # one large among many tiny
            np.concatenate((np.full(999, 1e-300), [2.0**60], np.full(999, 1e-17))),
            np.full(48_620, 0.1),
            np.full(48_620, np.nextafter(1.0, 2.0)),
        ]
        for size in (1, 2, 100, 24_310):
            cases.append(rng.random(size) ** 9)
            cases.append(rng.standard_normal(size) * 2.0 ** rng.integers(-1060, 960, size) / size)
        for terms in cases:
            assert _exact_sum(terms).hex() == math.fsum(terms).hex()

    def test_pinned_digest(self):
        # the hex of every exact_win_prob at n = 3..10, eight strategies each
        # with zero entries and entries of 1e-160 whose powers are subnormal,
        # as the fsum of the same terms gave it
        digest = hashlib.sha256()
        for n in range(3, 11):
            rng = np.random.default_rng(7000 + n)
            cases = [rng.random(n) + 1e-3 for _ in range(4)]
            cases.append(rng.random(n) + 1e-3)
            cases[-1][[1, n - 1]] = 0.0
            cases.append(rng.random(n) + 1e-3)
            cases[-1][[0, n // 2]] = 1e-160
            cases = [raw / raw.sum() for raw in cases]
            cases += [np.array([1.0] + [0.0] * (n - 1)), np.full(n, 1.0 / n)]
            for probs in cases:
                s = Strategy(probs)
                for i in range(1, n + 1):
                    digest.update(exact_win_prob(i, s).hex().encode())
        assert digest.hexdigest() == "44f5aad97cbab0bc66118825d71a2fa5662ba40532469fe782968d749bd66f43"

    def test_nothing_built_at_import(self):
        code = (
            "import lupi\n"
            "from lupi.oracle import _win_rows\n"
            "assert _win_rows.cache_info().currsize == 0\n"
            "from lupi.winprob import _product_constants\n"
            "assert _product_constants.cache_info().currsize == 0\n"
            "from lupi.polynomials import _outcome_terms\n"
            "assert _outcome_terms.cache_info().currsize == 0\n"
        )
        src = os.path.dirname(os.path.dirname(lupi.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], check=True, env=env)


class TestSimulate:
    def test_vectorized_winner_matches_rule(self):
        # both batched winner rules against the game rule; the observed
        # player is the last column. Rows drawn from a few numbers collide
        # often; the crafted rows have no winner, only the observed player
        # unique, and the observed player unique but beaten by a lower number
        rng = np.random.default_rng(101)
        for n in (3, 5, 8, 64):
            crafted = [[0] * n, [0] * (n - 1) + [n - 1], [0] + [1] * (n - 2) + [n - 1]]
            picks = np.vstack(
                (rng.integers(0, n, size=(500, n)), rng.integers(0, max(2, n // 8), size=(500, n)), crafted)
            )
            by_counts = _count_winners(np.ascontiguousarray(picks.T))
            by_mask = _mask_winners(np.ascontiguousarray(picks.T, dtype=np.uint8))
            for observed_won in (by_counts, by_mask):
                assert observed_won[-3:].tolist() == [False, True, False]
            for row in range(picks.shape[0]):
                profile = ChoiceProfile(tuple(int(v) + 1 for v in picks[row]), n)
                result = lowest_unique_winner(profile)
                assert by_counts[row] == by_mask[row] == (result is not None and result[0] == n)

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33, 64])
    def test_mask_word_edges(self, n):
        # the mask word is the narrowest of n bits: uint8 to n = 8, uint16 to
        # 16, uint32 to 32, uint64 to 64. Rows crowd the top numbers; the
        # crafted ones put the observed player alone on number n, the word's
        # top bit, winning, then beaten by a lone opponent on n - 1 and on 1
        word = np.min_scalar_type((1 << n) - 1)
        assert word.itemsize == {8: 1, 9: 2, 16: 2, 17: 4, 32: 4, 33: 8, 64: 8}[n]
        rng = np.random.default_rng(n)
        crafted = [[0] * (n - 1) + [n - 1], [0] * (n - 2) + [n - 2, n - 1], [1] * (n - 2) + [0, n - 1]]
        picks = np.vstack(
            (rng.integers(n - 3, n, size=(300, n)), rng.integers(0, n, size=(300, n)), crafted)
        ).astype(np.uint8)
        bits = np.empty((n, len(picks)), dtype=word)
        by_mask = _mask_winners(np.ascontiguousarray(picks.T), bits)
        assert by_mask[-3:].tolist() == [True, False, False]
        assert (bits.T == np.left_shift(1, picks, dtype=np.uint64)).all()
        assert (_mask_winners(np.ascontiguousarray(picks.T)) == by_mask).all()
        assert (by_mask == uint64_mask_winners(picks)).all() and by_mask.any() and not by_mask.all()
        for row, won in zip(picks, by_mask):
            result = lowest_unique_winner(ChoiceProfile(tuple(int(v) + 1 for v in row), n))
            assert won == (result is not None and result[0] == n)

    @pytest.mark.parametrize("n", [8, 9, 16, 17, 32, 33])
    def test_span_counts_at_word_edges(self, n):
        # a span's counts, its mask in the spent draws buffer, against the
        # stream replayed by hand with the game rule
        p, pi = sparse_and_uniform(n)
        cum_p, cum_pi = np.cumsum(p.probs), np.cumsum(pi.probs)
        cum_p[-1] = cum_pi[-1] = 1.0
        chosen, wins = oracle._span_counts(cum_p, cum_pi, 5, 0, 600)
        u = np.random.Generator(np.random.PCG64DXSM(5)).random((600, n))
        assert (chosen.tolist(), wins.tolist()) == replay_counts(u, cum_p, cum_pi)
        assert sum(wins) > 0

    def test_threshold_picks(self):
        # right-closed intervals: v == cum_k picks k, v = 1.0 picks the last
        # number, and the zero-probability number 3 (cum_1 == cum_2) is skipped
        cum = np.array([0.25, 0.5, 0.5, 0.75, 1.0])
        up = np.nextafter
        v = np.array([0.25, 0.5, 0.75, 1.0, up(0.25, 1), up(0.5, 1), up(0.0, 1), 0.1])
        assert _threshold_picks(cum, v).tolist() == [0, 1, 3, 4, 1, 3, 0, 0]
        # a cumulative sum that overshoots 1 by an ulp before the closing 1.0
        over = np.array([0.5, up(1.0, 2), 1.0])
        assert _threshold_picks(over, np.array([1.0, 0.75])).tolist() == [1, 1]
        rng = np.random.default_rng(3)
        for c in (cum, over, np.cumsum(np.full(64, 1 / 64))):
            c = c.copy()
            c[-1] = 1.0
            grid = np.concatenate((c, up(c, 0), up(c, 2), 1.0 - rng.random(1000)))
            grid = grid[(grid > 0) & (grid <= 1)]
            picks = _threshold_picks(c, grid)
            assert picks.dtype == np.uint8
            assert (picks == np.searchsorted(c, grid, side="left")).all()

    @pytest.mark.parametrize("n", [64, 65])
    def test_simulate_follows_game_rule(self, n):
        # the two sides of the uint64-mask switch against the same stream
        # replayed by hand: inverse-CDF picks and the game rule per round.
        # Opponents crowd the low numbers and the observed player often
        # picks the top one, so the highest bit decides many rounds
        rng = np.random.default_rng(n)
        raw = rng.random(n)
        raw[4:] *= 1e-3
        raw[[1, n // 2]] = 0.0
        top = np.full(n, 0.5 / n)
        top[-1] += 0.5
        p, pi = Strategy(raw / raw.sum()), Strategy(top)
        rounds, seed = 3000, 99
        stats = simulate(pi, p, rounds, seed=seed)
        cum_p, cum_pi = np.cumsum(p.probs), np.cumsum(pi.probs)
        cum_p[-1] = cum_pi[-1] = 1.0
        u = np.random.Generator(np.random.PCG64DXSM(seed)).random((rounds, n))
        win_counts = [0] * n
        for row in u:
            choices = [int(np.searchsorted(cum_p, 1.0 - x, side="left")) + 1 for x in row[:-1]]
            choices.append(int(np.searchsorted(cum_pi, 1.0 - row[-1], side="left")) + 1)
            result = lowest_unique_winner(ChoiceProfile(tuple(choices), n))
            if result is not None and result[0] == n:
                win_counts[result[1] - 1] += 1
        assert stats.win_counts == win_counts
        assert win_counts[-1] > 0 and sum(win_counts) > win_counts[-1]

    @pytest.mark.parametrize("n", [5, 12])
    def test_block_size_changes_no_count(self, n, monkeypatch):
        # draws are consumed round-major, so an odd block size that splits
        # the run unevenly reproduces every count
        s = Strategy.uniform(n)
        default = simulate(s, s, 100_001, seed=31).to_json_obj()
        monkeypatch.setattr(oracle, "_BLOCK_ROUNDS", 4097)
        assert simulate(s, s, 100_001, seed=31).to_json_obj() == default

    @pytest.mark.parametrize("n", [5, 64, 65])
    def test_span_enters_stream_by_counter(self, n):
        # a span started at round r, a multiple of 4 or not, by jumping ahead
        # r * n draws counts what the game rule gives on rows r: of the whole
        # stream replayed by hand
        p, pi = sparse_and_uniform(n)
        cum_p, cum_pi = np.cumsum(p.probs), np.cumsum(pi.probs)
        cum_p[-1] = cum_pi[-1] = 1.0
        count = 1000
        for seed, first in ((2024, 4 * 257), (2**64 - 1, 1031)):
            chosen, wins = oracle._span_counts(cum_p, cum_pi, seed, first, count)
            u = np.random.Generator(np.random.PCG64DXSM(seed)).random((first + count, n))[first:]
            assert (chosen.tolist(), wins.tolist()) == replay_counts(u, cum_p, cum_pi)
            assert sum(wins) > 0

    @pytest.mark.parametrize("min_span", [1, 3, 64, 1 << 15])
    def test_spans_cover_every_round(self, min_span, monkeypatch):
        # distinct, contiguous spans of at least the minimum, at most one per CPU
        monkeypatch.setattr(oracle, "_MIN_SPAN_ROUNDS", min_span)
        for rounds in (1, 2, 5, 6, 7, 63, 64, 65, 1031, 30_001, 2 * min_span - 1, 2 * min_span, 10**6 + 3):
            for cpus in (1, 2, 3, 6, 8):
                spans = oracle._spans(rounds, cpus)
                ends = [first + count for first, count in spans]
                assert [first for first, _ in spans] == [0] + ends[:-1] and ends[-1] == rounds
                assert 1 <= len(spans) <= cpus
                assert min(count for _, count in spans) >= (min_span if len(spans) > 1 else 1)

    @pytest.mark.parametrize("n", [5, 12, 64, 65])
    def test_span_split_changes_no_count(self, n, monkeypatch, thread_calls):
        # three fake CPUs and 64-round minimum spans cut the run in three,
        # at offsets the odd 4097-round blocks do not align with; the summed
        # counts equal those of the same run on the calling thread alone
        p, pi = sparse_and_uniform(n)
        rounds = 30_001
        monkeypatch.setattr(oracle, "_BLOCK_ROUNDS", 4097)
        monkeypatch.setattr(oracle, "_BLOCK_DRAWS", 4097 * n)
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
        unsplit = simulate(pi, p, rounds, seed=47).to_json_obj()
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(oracle, "_MIN_SPAN_ROUNDS", 64)
        assert simulate(pi, p, rounds, seed=47).to_json_obj() == unsplit
        assert thread_calls == [1, 3]

    def test_many_threads_switching_often(self, monkeypatch, thread_calls):
        # more threads than cores, forced to trade the interpreter lock every
        # microsecond: a lost or doubled span would move a count
        u = Strategy.uniform(5)
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
        reference = simulate(u, u, 20_003, seed=11).to_json_obj()
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(oracle, "_MIN_SPAN_ROUNDS", 4)
        interval = sys.getswitchinterval()
        start = time.perf_counter()
        try:
            sys.setswitchinterval(1e-6)
            stats = simulate(u, u, 20_003, seed=11)
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - start < 60.0
        assert stats.to_json_obj() == reference
        assert thread_calls == [1, 8]

    def test_thread_error_reaches_caller(self, monkeypatch):
        # six fake CPUs cut 72 rounds into spans starting at 0, 12, ..., 60;
        # the span at round 12 fails on a pool worker, not the caller's thread
        u = Strategy.uniform(5)
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 1)
        reference = simulate(u, u, 72, seed=5).to_json_obj()
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 6)
        monkeypatch.setattr(oracle, "_MIN_SPAN_ROUNDS", 4)
        span_counts = oracle._span_counts
        failed_on = []

        def failing(cum_p, cum_pi, seed, first_round, span_rounds):
            if first_round == 12:
                failed_on.append(threading.current_thread())
                raise ValueError("span at round 12")
            return span_counts(cum_p, cum_pi, seed, first_round, span_rounds)

        monkeypatch.setattr(oracle, "_span_counts", failing)
        with pytest.raises(ValueError, match="span at round 12"):
            simulate(u, u, 72, seed=5)
        assert failed_on and failed_on[0] is not threading.current_thread()
        monkeypatch.setattr(oracle, "_span_counts", span_counts)
        assert simulate(u, u, 72, seed=5).to_json_obj() == reference

    def test_short_run_starts_no_thread(self, monkeypatch, thread_calls):
        # with eight CPUs, a run shorter than two minimum spans stays on the
        # calling thread, and a run of exactly two is shared by two threads
        monkeypatch.setattr(oracle, "_usable_cpus", lambda: 8)
        u = Strategy.uniform(3)
        two_spans = 2 * oracle._MIN_SPAN_ROUNDS
        simulate(u, u, two_spans - 1, seed=3)
        simulate(u, u, two_spans, seed=3)
        assert thread_calls == [1, 2]

    def test_golden_win_counts(self):
        # pinned counts of two seeded runs: a change to the random stream,
        # the pick rule or the winner count moves them
        u = Strategy.uniform(12)
        assert simulate(u, u, 200_000, seed=20261018).win_counts == [
            6557, 3862, 2422, 1498, 928, 580, 342, 227, 148, 89, 51, 37
        ]
        s = Strategy([Fraction(2, 5), Fraction(3, 10), Fraction(0), Fraction(1, 5), Fraction(1, 10)])
        stats = simulate(s, s, 100_000, seed=7)
        assert stats.win_counts == [5201, 5984, 0, 3510, 1916]

    def test_golden_win_counts_wide_words(self):
        # pinned counts where the mask is a uint32 (n = 20) and a uint64
        # (n = 40) word; at 40 the opponents crowd numbers 1..4 and the
        # observed player wins on 40, the top bit, in 1059 rounds
        u = Strategy.uniform(20)
        assert simulate(u, u, 100_000, seed=20261020).win_counts == [
            1849, 1137, 731, 468, 243, 178, 118, 77, 53, 25, 11, 11, 6, 2, 0, 1, 3, 1, 0, 0
        ]
        p = Strategy([Fraction(9, 40)] * 4 + [Fraction(1, 360)] * 36)
        pi = Strategy([Fraction(1, 78)] * 39 + [Fraction(1, 2)])
        assert simulate(pi, p, 100_000, seed=20261020).win_counts == [0] * 4 + [
            1133, 1057, 889, 835, 759, 725, 596, 530, 485, 463, 413, 376, 343, 310, 259, 230, 213, 196,
            182, 172, 123, 131, 121, 113, 79, 87, 100, 65, 65, 61, 46, 49, 35, 35, 31, 1059,
        ]

    def test_bitwise_reproducible(self):
        u = Strategy.uniform(3)
        a = simulate(u, u, 50_000, seed=123)
        b = simulate(u, u, 50_000, seed=123)
        assert a.to_json_obj() == b.to_json_obj()

    def test_shard_structure_reported(self):
        u = Strategy.uniform(3)
        stats = simulate(u, u, 10_000, seed=5)
        assert stats.generator == GENERATOR_NAME
        assert stats.seed == 5

    def test_different_seeds_agree_statistically(self):
        u = Strategy.uniform(3)
        a = simulate(u, u, 200_000, seed=1)
        b = simulate(u, u, 200_000, seed=2)
        spread = abs(a.w_estimate - b.w_estimate)
        assert spread <= 6 * math.hypot(a.w_std_err, b.w_std_err)

    def test_uniform3_win_rate(self):
        u = Strategy.uniform(3)
        stats = simulate(u, u, 200_000, seed=42)
        assert abs(stats.w_estimate - 8 / 27) <= 4 * stats.w_std_err

    def test_single_round(self):
        u = Strategy.uniform(3)
        stats = simulate(u, u, 1, seed=9)
        assert sum(stats.win_counts) in (0, 1)
        assert stats.rounds == 1

    def test_degenerate_point_mass(self):
        # the observed player always picks 1; opponents always collide on 2
        pi = Strategy([1.0, 0.0, 0.0])
        p = Strategy([0.0, 1.0, 0.0])
        stats = simulate(pi, p, 1_000, seed=3)
        assert stats.est_ci[0] == 1.0
        assert stats.est_ci[1] is None and stats.est_ci[2] is None
        assert stats.win_counts == [1_000, 0, 0]

    def test_zero_probability_numbers_never_picked(self):
        z = Strategy.zeng(5)
        stats = simulate(z, z, 20_000, seed=8)
        assert all(stats.est_ci[k] is None for k in range(2, 5))

    def test_estimates_near_analytic(self):
        p = Strategy([0.5, 0.3, 0.2])
        stats = simulate(Strategy.uniform(3), p, 300_000, seed=77)
        for i in range(1, 4):
            est, err = stats.est_ci[i - 1], stats.std_err[i - 1]
            assert est is not None
            assert abs(est - win_prob(i, p)) <= 4.5 * err

    def test_json_fields(self):
        u = Strategy.uniform(3)
        obj = simulate(u, u, 100, seed=0).to_json_obj()
        assert set(obj) == {
            "rounds",
            "win_counts",
            "est_ci",
            "std_err",
            "seed",
            "generator",
            "w_estimate",
            "w_std_err",
        }
        json.dumps(obj)  # nulls and numbers only, must round-trip

    def test_input_validation(self):
        u = Strategy.uniform(3)
        with pytest.raises(ValueError):
            simulate(u, u, 0, seed=1)
        with pytest.raises(ValueError):
            simulate(u, u, 10, seed=-1)
        with pytest.raises(ValueError):
            simulate(u, Strategy.uniform(4), 10, seed=1)
        with pytest.raises(ValueError):
            simulate(u, u, 10.5, seed=1)
        for flag in (True, np.True_):  # a boolean is not a seed, though int(True) == 1
            with pytest.raises(ValueError, match="seed"):
                simulate(u, u, 10, seed=flag)
        with pytest.raises(TypeError):  # one stream per seed: no shard count
            simulate(u, u, 10, seed=1, shards=1)
        # integral floats are accepted and reported as ints
        reference = simulate(u, u, 1000, seed=1).to_json_obj()
        stats = simulate(u, u, 1000.0, seed=1.0)
        assert stats.to_json_obj() == reference
        assert all(type(v) is int for v in (stats.rounds, stats.seed))
