"""Size caps and environment-backed configuration.

Exact polynomial expansion and subset enumeration both grow exponentially,
so every entry point that can blow up checks a cap first. Caps resolve in
the order: explicit argument, ``LUPI_*`` environment variable, built-in
default.
"""

from __future__ import annotations

import os

N_MAX_SYMBOLIC_DEFAULT = 8
SUBSET_CAP_DEFAULT = 25
NE_PLAYER_CAP_DEFAULT = 20
ORACLE_PLAYER_CAP_DEFAULT = 10


class ResourceLimitError(RuntimeError):
    """Raised when a request exceeds a configured size cap."""


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
