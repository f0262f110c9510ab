"""Win probabilities and equilibrium strategies for the lowest-unique-positive-integer game.

``n`` players each pick an integer from ``1..n``; the smallest number picked
by exactly one player wins. The package computes each number's exact win
chance under mixed strategies three independent ways (exact polynomial
algebra, a closed-form evaluator, and brute-force enumeration plus
simulation), solves the symmetric equilibrium where every number wins
equally often, and quantifies the gap between that equilibrium and the
group-optimal uniform play.

The public names below are loaded from their submodules on first use
(PEP 562), so ``import lupi`` alone does not import numpy.
"""

import importlib

from .config import ClassificationError, ResourceLimitError

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "ClassificationError": "config",
    "ResourceLimitError": "config",
    "ChoiceProfile": "game",
    "Strategy": "game",
    "lowest_unique_winner": "game",
    "GENERATOR_NAME": "oracle",
    "SimulationStats": "oracle",
    "exact_win_prob": "oracle",
    "simulate": "oracle",
    "SparsePolynomial": "polynomials",
    "differentiate": "polynomials",
    "eliminate": "polynomials",
    "no_winner_poly": "polynomials",
    "no_winner_poly_by_subsets": "polynomials",
    "opponents_outcome_poly": "polynomials",
    "project_linear": "polynomials",
    "win_prob_poly": "polynomials",
    "C0Interval": "solvers",
    "NESolution": "solvers",
    "SelfConsistentSolution": "solvers",
    "SequentialEntry": "solvers",
    "SequentialResult": "solvers",
    "SymmetricOptimum": "solvers",
    "best_symmetric": "solvers",
    "bound_c0": "solvers",
    "find_cne_sequential": "solvers",
    "sequential_solve": "solvers",
    "solve_ne": "solvers",
    "verify_ordering_inequality": "solvers",
    "PayoffReport": "winprob",
    "WinProbVector": "winprob",
    "expected_payoff": "winprob",
    "symmetric_payoff": "winprob",
    "uniform_asymptotic_win_prob": "winprob",
    "win_prob": "winprob",
    "win_prob_gradient": "winprob",
    "win_prob_vector": "winprob",
}
_SUBMODULES = ("cli", "config", "game", "oracle", "polynomials", "solvers", "winprob")

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
