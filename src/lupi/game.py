"""Game rules and mixed strategies for the lowest-unique-positive-integer game.

``n`` players (``n >= 3``) each pick an integer from ``1..n``. The player
holding the smallest number picked by exactly one player wins the round; if
every number is picked zero or several times, nobody wins. Numbers and
player indices are 1-based in every public interface.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .config import RENORM_THRESHOLD, SUM_TOLERANCE, require_int


@dataclass(frozen=True)
class ChoiceProfile:
    """The numbers picked in one round, one entry per player.

    Attributes:
        choices: 1-based numbers, one per player, each in ``1..n``.
        n: Size of the choosable range ``1..n``.
    """

    choices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        n = require_int("n", self.n, 1)
        choices = tuple(require_int("choice", c, 1, n) for c in self.choices)
        if not choices:
            raise ValueError("a profile needs at least one player")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "choices", choices)


def lowest_unique_winner(profile: ChoiceProfile) -> tuple[int, int] | None:
    """Find the winner of one round, if any.

    Args:
        profile: The numbers picked by every player.

    Returns:
        ``(winner_index, winning_number)`` with a 1-based player index, or
        ``None`` when no number was picked exactly once.
    """
    counts = Counter(profile.choices)
    unique = [number for number, k in counts.items() if k == 1]
    if not unique:
        return None
    winning = min(unique)
    return profile.choices.index(winning) + 1, winning


class Strategy:
    """A mixed strategy: ``probs[i-1]`` is the chance of picking number ``i``.

    Entries must lie in ``[0, 1]`` and sum to 1. Sums off by less than
    ``RENORM_THRESHOLD`` are renormalized; anything worse raises
    ``ValueError``. Instances are immutable and safe to share.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs) -> None:
        try:
            arr = np.asarray(probs, dtype=float)
        except TypeError as exc:
            raise ValueError("strategy entries must be numbers") from exc
        except OverflowError as exc:  # an integer beyond the largest double
            raise ValueError("strategy entries must be numbers in [0, 1]") from exc
        if arr.ndim != 1 or arr.size < 3:
            raise ValueError("a strategy needs at least 3 entries (n >= 3)")
        # written so that NaN fails it
        if not np.all((arr >= -SUM_TOLERANCE) & (arr <= 1.0 + RENORM_THRESHOLD)):
            raise ValueError("strategy entries must be numbers in [0, 1]")
        deviation = abs(float(arr.sum()) - 1.0)
        if deviation > RENORM_THRESHOLD:
            raise ValueError(
                f"strategy entries sum to {float(arr.sum())!r}; "
                f"deviation {deviation:.3e} exceeds the repairable threshold "
                f"{RENORM_THRESHOLD:g}"
            )
        arr = np.clip(arr, 0.0, 1.0)
        if deviation > SUM_TOLERANCE:
            arr = arr / arr.sum()
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self._probs = arr

    @property
    def probs(self) -> np.ndarray:
        """Read-only probability vector of length ``n``."""
        return self._probs

    @property
    def n(self) -> int:
        return int(self._probs.size)

    def __len__(self) -> int:
        return self.n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Strategy):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self._probs, other._probs))

    def __repr__(self) -> str:
        head = ", ".join(f"{v:.6g}" for v in self._probs[:4])
        tail = ", ..." if self.n > 4 else ""
        return f"Strategy(n={self.n}, probs=[{head}{tail}])"

    # ------------------------------------------------------------------
    # named strategies
    # ------------------------------------------------------------------

    @classmethod
    def uniform(cls, n: int) -> "Strategy":
        """Every number equally likely: ``p_i = 1/n``."""
        n = require_int("n", n, 3)
        return cls(np.full(n, 1.0 / n))

    @classmethod
    def zeng(cls, n: int) -> "Strategy":
        """Half the mass on each of the two lowest numbers."""
        n = require_int("n", n, 3)
        p = np.zeros(n)
        p[0] = p[1] = 0.5
        return cls(p)

    @classmethod
    def flitney(cls, n: int) -> "Strategy":
        """Dyadic weights ``p_i = 2^-i``, with the last entry doubled so the
        geometric series closes to exactly 1."""
        n = require_int("n", n, 3)
        p = np.array([2.0 ** -(i + 1) for i in range(n)])
        p[n - 1] = 2.0 ** (1 - n)
        return cls(p)

    # ------------------------------------------------------------------
    # file formats: plain text (first line n, second line n probabilities)
    # and JSON {"n": int, "probs": [...]}
    # ------------------------------------------------------------------

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Strategy":
        try:
            n, probs = obj["n"], obj["probs"]
            count = len(probs)
        except (KeyError, TypeError) as exc:
            raise ValueError("strategy JSON needs fields 'n' and 'probs', a list") from exc
        n = require_int("n", n, 3)
        if count != n:
            raise ValueError(f"strategy JSON claims n={n} but has {count} entries")
        # float() would read a string or a boolean, and a huge integer overflows it
        if not all(isinstance(v, float) or type(v) is int and 0 <= v <= 1 for v in probs):
            raise ValueError("strategy JSON entries must be numbers in [0, 1]")
        return cls(probs)

    @classmethod
    def from_file(cls, path: str) -> "Strategy":
        """Load a strategy from a text or JSON file (sniffed by content)."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        stripped = text.lstrip()
        if stripped.startswith("{"):
            return cls.from_json_obj(json.loads(stripped))
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ValueError(f"{path}: expected a count line and a probability line")
        n = int(lines[0].split()[0])
        probs = [float(tok) for tok in lines[1].split()]
        if len(probs) != n:
            raise ValueError(f"{path}: first line says n={n} but found {len(probs)} values")
        return cls(probs)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "probs": [float(v) for v in self._probs]}

    def to_file(self, path: str, fmt: str = "text") -> None:
        """Write the strategy to ``path`` in ``text`` or ``json`` format."""
        if fmt == "json":
            payload = json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"
        elif fmt == "text":
            payload = f"{self.n}\n" + " ".join(repr(float(v)) for v in self._probs) + "\n"
        else:
            raise ValueError(f"unknown strategy file format {fmt!r}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
