"""Size caps, environment-backed configuration, tolerances and errors.

Exact polynomial expansion and subset enumeration both grow exponentially,
so every entry point that can blow up checks a cap first. Caps resolve in
the order: explicit argument, ``LUPI_*`` environment variable, built-in
default.

This module imports no numpy, so the command-line front end can read a
warm cache and report errors without loading it.
"""

from __future__ import annotations

import os

N_MAX_SYMBOLIC_DEFAULT = 8
SUBSET_CAP_DEFAULT = 25
NE_PLAYER_CAP_DEFAULT = 20
ORACLE_PLAYER_CAP_DEFAULT = 10

# Sum-to-one tolerance of a valid strategy, and the largest deviation that
# constructors silently repair by renormalizing. Anything worse is rejected:
# quietly fixing badly formed input hides bugs.
SUM_TOLERANCE = 1e-12
RENORM_THRESHOLD = 1e-9


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds a configured size cap."""


class ClassificationError(RuntimeError):
    """The too-small/too-large signal of a bisection was inconsistent.

    Carries the evaluated points as ``trace``: a list of
    ``(c0, classification)`` pairs.
    """

    def __init__(self, message: str, trace: list[tuple[float, str]]):
        super().__init__(message)
        self.trace = trace


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def n_max_symbolic(override: int | None = None) -> int:
    """Largest player count accepted by the exact polynomial layer."""
    if override is not None:
        return override
    return _env_int("LUPI_N_MAX_SYMBOLIC", N_MAX_SYMBOLIC_DEFAULT)


def subset_cap(override: int | None = None) -> int:
    """Largest number index minus one accepted by the closed-form
    win-probability evaluator (its subset sum has 2^(i-1) terms)."""
    if override is not None:
        return override
    return _env_int("LUPI_SUBSET_CAP", SUBSET_CAP_DEFAULT)


def cache_path(override: str | None = None) -> str:
    """Location of the command-line front end's equilibrium cache file."""
    if override is not None:
        return override
    env = os.environ.get("LUPI_CACHE_PATH")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "lupi", "ne_cache.json")
