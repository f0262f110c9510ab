"""The cache location, tolerances, errors and the argument checks.

``NE_TOL`` is the one equilibrium tolerance: :func:`lupi.solvers.solve_ne`
converges to it, and the command-line cache keys its entries by it.

Size caps stand only before exponential work (polynomial expansion,
enumeration) and the product form's binomial table, each a constant of the
one module it guards; :func:`require_cap` is the one place that compares
``n`` against it. Only the cache path reads the environment (``LUPI_CACHE_PATH``).

This module imports no numpy, so the command-line front end can read a
warm cache and report errors without loading it.
"""

from __future__ import annotations

import os

# Sum-to-one tolerance of a valid strategy, and the largest deviation that
# constructors silently repair by renormalizing. Anything worse is rejected:
# quietly fixing badly formed input hides bugs.
SUM_TOLERANCE = 1e-12
RENORM_THRESHOLD = 1e-9

# Convergence threshold of the equilibrium solve on max_i |c_i - c_n|.
NE_TOL = 1e-12


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
    value out of range, a non-integral number, NaN, infinity, a non-number or
    a boolean, Python's or numpy's (told by its dtype, so numpy is not needed).
    """
    boolean = isinstance(value, bool) or getattr(getattr(value, "dtype", None), "kind", "") == "b"
    try:
        as_int = int(value)
        integral = not boolean and bool(as_int == value)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral or as_int < lo or (hi is not None and as_int > hi):
        bounds = f"{name} >= {lo}" if hi is None else f"{lo} <= {name} <= {hi}"
        raise ValueError(f"expected an integer {bounds}, got {name}={value!r}")
    return as_int


def require_cap(n: int, limit: int, cost: str) -> None:
    """Refuse ``n`` above the size cap ``limit`` with :class:`ResourceLimitError`."""
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
