"""Size caps, the cache location, tolerances, errors and the argument checks.

Exact polynomial expansion and enumeration grow exponentially, so both
check a player cap first; the closed-form evaluator and the Newton
equilibrium solve, polynomial in ``n``, have none (the solve stops only
where its binomial table would overflow, above ``n = 1000``). Each cap
comes from its function's argument or the default here, and
:func:`require_cap` is the one place that compares ``n`` against it. Only
the cache path reads the environment (``LUPI_CACHE_PATH``).

This module imports no numpy, so the command-line front end can read a
warm cache and report errors without loading it.
"""

from __future__ import annotations

import os

N_MAX_SYMBOLIC_DEFAULT = 8
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


def require_int(name: str, value, lo: int, hi: int | None = None) -> int:
    """``value`` as an ``int`` in ``lo..hi`` (no upper end when ``hi`` is None).

    Raises ``ValueError`` naming ``name`` and the range for anything else: a
    value out of range, a non-integral number, NaN, infinity or a non-number.
    """
    try:
        as_int = int(value)
        integral = bool(as_int == value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or as_int < lo or (hi is not None and as_int > hi):
        bounds = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        raise ValueError(f"expected an integer {bounds}, got {name}={value!r}")
    return as_int


def require_cap(n: int, name: str, cap, default: int, cost: str) -> None:
    """Refuse ``n`` above the size cap: ``cap``, or ``default`` when it is None.

    A cap is an integer argument like any other, checked by
    :func:`require_int` under ``name``, so NaN, infinity or a fraction
    raises ``ValueError`` instead of switching the cap off. ``n`` above it
    raises :class:`ResourceLimitError` naming ``cost``.
    """
    limit = default if cap is None else require_int(name, cap, 1)
    if n > limit:
        raise ResourceLimitError(f"{cost} for n={n} is above the cap n={limit}")


def cache_path(override: str | None = None) -> str:
    """Location of the command-line front end's equilibrium cache file."""
    if override is not None:
        return override
    env = os.environ.get("LUPI_CACHE_PATH")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "lupi", "ne_cache.json")
