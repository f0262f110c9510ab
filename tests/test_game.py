"""Rules, named strategies, and strategy validation."""

import json
import random

import numpy as np
import pytest

from lupi import ChoiceProfile, Strategy, lowest_unique_winner


class TestLowestUniqueWinner:
    def test_duplicate_low_pair(self):
        assert lowest_unique_winner(ChoiceProfile((1, 1, 2), 3)) == (3, 2)

    def test_everyone_collides(self):
        assert lowest_unique_winner(ChoiceProfile((1, 1, 1), 3)) is None

    def test_all_unique_lowest_wins(self):
        assert lowest_unique_winner(ChoiceProfile((1, 2, 3), 3)) == (1, 1)

    def test_duplicated_two(self):
        assert lowest_unique_winner(ChoiceProfile((2, 3, 2), 3)) == (2, 3)

    def test_out_of_range_choice_rejected(self):
        with pytest.raises(ValueError):
            ChoiceProfile((0, 1, 2), 3)
        with pytest.raises(ValueError):
            ChoiceProfile((1, 2, 4), 3)
        with pytest.raises(ValueError):  # not truncated to (1, 2, 3)
            ChoiceProfile((1.5, 2, 3), 3)

    def test_permutation_equivariance(self):
        rng = random.Random(1234)
        for _ in range(200):
            n = rng.randint(3, 7)
            players = rng.randint(3, 9)
            choices = [rng.randint(1, n) for _ in range(players)]
            base = lowest_unique_winner(ChoiceProfile(tuple(choices), n))
            perm = list(range(players))
            rng.shuffle(perm)
            shuffled = tuple(choices[k] for k in perm)
            moved = lowest_unique_winner(ChoiceProfile(shuffled, n))
            if base is None:
                assert moved is None
            else:
                winner, number = base
                # the winner's new seat holds the same winning number
                assert moved is not None
                assert moved[1] == number
                assert shuffled[moved[0] - 1] == number
                assert perm[moved[0] - 1] == winner - 1

    def test_winner_holds_number_alone(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(3, 8)
            choices = tuple(rng.randint(1, n) for _ in range(n))
            result = lowest_unique_winner(ChoiceProfile(choices, n))
            if result is not None:
                winner, number = result
                assert choices.count(number) == 1
                assert choices[winner - 1] == number


class TestNamedStrategies:
    def test_uniform(self):
        assert np.allclose(Strategy.uniform(3).probs, [1 / 3] * 3)
        assert np.allclose(Strategy.uniform(4).probs, [0.25] * 4)

    def test_zeng(self):
        assert list(Strategy.zeng(3).probs) == [0.5, 0.5, 0.0]
        assert list(Strategy.zeng(5).probs) == [0.5, 0.5, 0.0, 0.0, 0.0]

    def test_flitney(self):
        assert list(Strategy.flitney(3).probs) == [0.5, 0.25, 0.25]
        assert list(Strategy.flitney(4).probs) == [0.5, 0.25, 0.125, 0.125]

    def test_flitney_sums_to_exactly_one(self):
        # dyadic tail closure makes the float sum exact
        assert float(np.sum(Strategy.flitney(10).probs)) == 1.0

    @pytest.mark.parametrize("maker", [Strategy.uniform, Strategy.zeng, Strategy.flitney])
    def test_small_n_rejected(self, maker):
        with pytest.raises(ValueError):
            maker(2)

    @pytest.mark.parametrize("maker", [Strategy.uniform, Strategy.zeng, Strategy.flitney])
    @pytest.mark.parametrize("n", [3, 5, 9, 14])
    def test_all_valid(self, maker, n):
        s = maker(n)
        assert s.n == n
        assert np.all(s.probs >= 0.0) and np.all(s.probs <= 1.0)
        assert abs(float(np.sum(s.probs)) - 1.0) <= 1e-12


class TestStrategyValidation:
    def test_bad_sum_rejected(self):
        with pytest.raises(ValueError):
            Strategy([0.5, 0.4, 0.2])

    def test_tiny_deviation_renormalized(self):
        s = Strategy([1 / 3 + 5e-10, 1 / 3, 1 / 3])
        assert abs(float(np.sum(s.probs)) - 1.0) <= 1e-12

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            Strategy([-0.1, 0.6, 0.5])

    def test_nan_entry_rejected(self):
        # every comparison with NaN is False, so a range test must require
        # entries inside the bounds rather than look for entries outside
        with pytest.raises(ValueError):
            Strategy([float("nan"), 0.5, 0.5])

    def test_huge_integer_entry_rejected(self):
        # converting it to a double overflows, which is no reason for
        # another exception type than every other bad entry gets
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Strategy([10**400, 0, 0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            Strategy([0.5, 0.5])

    def test_probs_read_only(self):
        s = Strategy.uniform(4)
        with pytest.raises(ValueError):
            s.probs[0] = 0.9


class TestStrategyFiles:
    def test_text_round_trip(self, tmp_path):
        path = tmp_path / "strategy.txt"
        s = Strategy([0.5, 0.3, 0.2])
        s.to_file(str(path))
        assert Strategy.from_file(str(path)) == s

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "strategy.json"
        s = Strategy.flitney(5)
        s.to_file(str(path), fmt="json")
        loaded = Strategy.from_file(str(path))
        assert loaded == s

    def test_json_sniffed_by_content(self, tmp_path):
        path = tmp_path / "oddname.txt"
        path.write_text(json.dumps({"n": 3, "probs": [0.2, 0.3, 0.5]}))
        assert list(Strategy.from_file(str(path)).probs) == [0.2, 0.3, 0.5]

    def test_text_format(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_text("3\n0.25 0.5 0.25\n")
        assert list(Strategy.from_file(str(path)).probs) == [0.25, 0.5, 0.25]

    def test_n_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4\n0.25 0.5 0.25\n")
        with pytest.raises(ValueError):
            Strategy.from_file(str(path))

    def test_bad_sum_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "probs": [0.5, 0.4, 0.2]}))
        with pytest.raises(ValueError):
            Strategy.from_file(str(path))

    @pytest.mark.parametrize("probs", [["0.5", "0.3", "0.2"], [True, False, False], [10**400, 0, 0]],
                             ids=["strings", "booleans", "huge_integer"])
    def test_json_entries_must_be_numbers(self, probs):
        # float() would read the first two and overflow on the third
        with pytest.raises(ValueError, match="numbers"):
            Strategy.from_json_obj({"n": 3, "probs": probs})
        assert list(Strategy.from_json_obj({"n": 3, "probs": [1, 0, 0]}).probs) == [1.0, 0.0, 0.0]
