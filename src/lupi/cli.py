"""Command-line front end.

Every solver and oracle is exposed as a subcommand, and the ``figure``
subcommand emits the CSV series behind the standard plots (equilibrium
strategies across player counts, win-chance decay under uniform play,
scaled payoff comparisons, and the per-number win-chance traces of the
sequential procedure). No plotting happens here; the output is one
observation per row so any tool can render it.

Conventions: flags have long names only; configuration precedence is
flags, then ``LUPI_*`` environment variables, then defaults. Output is CSV
with a header row (JSON via ``--format json``). ``simulate`` has only JSON
and ``figure`` only CSV: each writes its one form by default, and asking
for the other exits 1 before the command computes anything. Numbers carry
10 significant digits, and identical invocations produce byte-identical
output. Every command writes once, through :func:`_emit`. Exit codes: 0
success, 1 usage or validation error (an unwritable ``--output`` or
``--cache-path`` included), 2 numerical non-convergence.

Each command imports the modules it computes with inside its function, so
``--version`` and a figure served from a warm cache never import numpy.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import tempfile
from typing import TYPE_CHECKING

from . import __version__
from .config import NE_TOL, SUM_TOLERANCE, ClassificationError, ResourceLimitError, cache_path, require_int

if TYPE_CHECKING:
    from .game import Strategy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

NAMED_STRATEGIES = ("uniform", "zeng", "flitney", "ne")
FIGURES = ("fig1", "fig1b", "fig2a", "fig2b", "fig3")


class CliError(Exception):
    """Usage or validation problem; maps to exit code 1."""


class NonConvergence(Exception):
    """Numerical failure; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract here is exit 1
    def error(self, message: str):  # noqa: D102
        raise CliError(message)


def fmt(x: float) -> str:
    """Numbers are printed with 10 significant digits everywhere."""
    return f"{x:.10g}"


def _csv(header: list[str], rows: list[list[object]]) -> str:
    buf = io.StringIO()
    buf.write(",".join(header) + "\n")
    for row in rows:
        buf.write(",".join(fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")
    return buf.getvalue()


def _json(obj: object) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit(args: argparse.Namespace, obj: object = None, header=None, rows=None) -> None:
    """Write a command's result to ``--output`` or stdout in the ``--format``
    asked for, which :func:`main` has checked against the command's forms:
    ``obj`` as JSON or the CSV table. Without ``--format`` that is the
    command's first form."""
    form = args.format or args.forms[0]
    text = _json(obj) if form == "json" else _csv(header, rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# equilibrium cache (used by --strategy ne and the figure sweeps)
# ---------------------------------------------------------------------------


def _cache_key(n: int) -> str:
    # the solve's tolerance is part of the key; ``start=limit``: solve_ne
    # starts from the Poisson-limit equilibrium, and its tail digits differ
    # from those of entries solved from uniform play
    return f"n={n},tol={NE_TOL!r},start=limit"


def _load_cache(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and isinstance(data.get("entries"), dict):
            return data
    except (OSError, ValueError):
        pass
    return {"entries": {}}


def _store_cache(path: str, data: dict) -> None:
    # atomic write-and-rename so concurrent runs never see a torn file
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(_json(data))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cached_solution(entry: object, n: int) -> tuple[list[float], float] | None:
    """Probabilities and win value of a valid cache entry for ``n``, else None.

    lupi stores only the probabilities of a validated strategy: ``n`` floats
    in ``[0, 1]`` summing to 1. Anything else is a stale or hand-edited
    entry, and is solved again rather than repaired.
    """
    try:
        probs, c_ne = entry["probs"], entry["c_ne"]
    except (KeyError, TypeError):
        return None
    valid = (
        isinstance(probs, list)
        and len(probs) == n
        and all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in probs)
        and abs(math.fsum(probs) - 1.0) <= SUM_TOLERANCE
        and isinstance(c_ne, float)
        and 0.0 <= c_ne <= 1.0
    )
    return (probs, c_ne) if valid else None


def solved_ne_strategies(n_list, cache_file: str):
    """Yield ``(n, probs, c_ne)`` for each ``n`` of ``n_list``: the equilibrium
    probabilities as plain floats and its win value, via the cache when warm.

    The cache file is read once. Each miss is solved and stored at once, so
    the entries solved before a later failure are kept.
    """
    data = _load_cache(cache_file)
    for n in n_list:
        key = _cache_key(n)
        hit = _cached_solution(data["entries"].get(key), n)
        if hit is not None:
            yield n, *hit
            continue
        from .solvers import solve_ne

        solution = solve_ne(n)
        if not solution.converged:
            raise NonConvergence(
                f"equilibrium solve for n={n} did not converge "
                f"(residual {solution.residual:.3e} after {solution.iterations} iterations)"
            )
        probs = [float(v) for v in solution.strategy.probs]
        data["entries"][key] = {
            "n": n,
            "tol": NE_TOL,
            "probs": probs,
            "c_ne": solution.c_ne,
            "residual": solution.residual,
            "iterations": solution.iterations,
        }
        # the write drops entries under keys this version no longer reads
        data["entries"] = {k: e for k, e in data["entries"].items()
                           if isinstance(e, dict) and k == _cache_key(e.get("n"))}
        _store_cache(cache_file, data)
        yield n, probs, solution.c_ne


def resolve_strategy(source: str, args: argparse.Namespace) -> Strategy:
    """Turn a ``--strategy`` value (named or file path) into a Strategy for ``args.n``."""
    from .game import Strategy

    n = args.n
    if source == "ne":
        _, probs, _ = next(solved_ne_strategies([n], args.cache_path))
        return Strategy(probs)
    if source in NAMED_STRATEGIES:
        return getattr(Strategy, source)(n)
    try:
        strategy = Strategy.from_file(source)
    except OSError as exc:
        raise CliError(f"cannot read strategy file {source!r}: {exc}") from exc
    if strategy.n != n:
        raise CliError(f"strategy file {source!r} is for n={strategy.n}, expected n={n}")
    return strategy


def _resolve_pi_and_p(args: argparse.Namespace) -> tuple[Strategy, Strategy]:
    """The ``--pi`` and ``--p`` strategies; a source named twice is read once."""
    pi = resolve_strategy(args.pi, args)
    return pi, pi if args.p == args.pi else resolve_strategy(args.p, args)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_ne(args: argparse.Namespace) -> int:
    from .solvers import solve_ne

    solution = solve_ne(args.n)
    rows = [[i + 1, float(v), solution.c_ne] for i, v in enumerate(solution.strategy.probs)]
    _emit(args, solution.to_json_obj(), ["i", "p_i", "c_ne"], rows)
    return EXIT_OK if solution.converged else EXIT_NUMERIC


def cmd_winprob(args: argparse.Namespace) -> int:
    from .winprob import win_prob_vector

    per = win_prob_vector(resolve_strategy(args.strategy, args))
    rows = [[i + 1, float(v)] for i, v in enumerate(per.values)]
    _emit(args, per.to_json_obj(), ["i", "c_i"], rows)
    return EXIT_OK


def cmd_sequential(args: argparse.Namespace) -> int:
    from .solvers import sequential_solve

    result = sequential_solve(args.n, args.c0, args.depth)
    rows = [
        [e.i, "" if e.p_i is None else fmt(e.p_i), e.status, float(e.residual)]
        for e in result.entries
    ]
    _emit(args, result.to_json_obj(), ["i", "p_i", "status", "residual"], rows)
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    from .solvers import bound_c0

    interval = bound_c0(args.n, args.depth, tol=args.tol)
    rows = [[args.n, interval.depth, interval.lower, interval.upper]]
    _emit(args, interval.to_json_obj(), ["n", "depth", "lower", "upper"], rows)
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    from .oracle import simulate

    pi, p = _resolve_pi_and_p(args)
    _emit(args, simulate(pi, p, args.rounds, args.seed).to_json_obj())
    return EXIT_OK


def cmd_payoff(args: argparse.Namespace) -> int:
    from .winprob import expected_payoff

    pi, p = _resolve_pi_and_p(args)
    report = expected_payoff(pi, p)
    rows = [
        [i + 1, float(c), float(q), float(c * q)]
        for i, (c, q) in enumerate(zip(report.per_number.values, pi.probs))
    ]
    rows.append(["w", "", "", report.w])
    _emit(args, report.to_json_obj(), ["i", "c_i", "pi_i", "c_i_times_pi_i"], rows)
    return EXIT_OK


def cmd_bestsym(args: argparse.Namespace) -> int:
    from .solvers import best_symmetric

    optimum = best_symmetric(args.n)
    rows = [[i + 1, float(v), optimum.w] for i, v in enumerate(optimum.strategy.probs)]
    _emit(args, optimum.to_json_obj(), ["i", "p_i", "w"], rows)
    return EXIT_OK


def _parse_n_list(raw: str) -> list[int]:
    try:
        values = [int(tok) for tok in raw.replace(",", " ").split()]
    except ValueError as exc:
        raise CliError(f"--n-list must be a comma-separated list of integers, got {raw!r}") from exc
    if not values:
        raise CliError("--n-list is empty")
    return values


def cmd_figure(args: argparse.Namespace) -> int:
    """The CSV series of one figure; there is no JSON form."""
    which = args.which
    if which == "fig3":
        if args.n is None or args.c0 is None:
            raise CliError("fig3 needs --n and --c0")
        _emit(args, header=["i", "p", "c_i"], rows=_figure_traces(args))
        return EXIT_OK
    if args.n_list is None:
        raise CliError(f"{which} needs --n-list")
    n_list = _parse_n_list(args.n_list)

    rows: list[list[object]] = []
    if which == "fig1":
        header = ["n", "i", "p_ne"]
        for n, probs, _ in solved_ne_strategies(n_list, args.cache_path):
            rows.extend([n, i + 1, v] for i, v in enumerate(probs))
    elif which == "fig1b":
        header = ["n", "i_over_n", "n_times_p_ne"]
        for n, probs, _ in solved_ne_strategies(n_list, args.cache_path):
            rows.extend([n, (i + 1) / n, n * v] for i, v in enumerate(probs))
    elif which == "fig2a":
        from .game import Strategy
        from .winprob import win_prob_vector

        header = ["n", "i", "c_i"]
        for n in n_list:
            per = win_prob_vector(Strategy.uniform(n))
            rows.extend([n, i + 1, float(v)] for i, v in enumerate(per.values))
    else:  # fig2b; argparse's choices refuse any other --which
        from .game import Strategy
        from .winprob import symmetric_payoff

        header = ["series", "n", "n_times_w"]
        for n, _, c_ne in solved_ne_strategies(n_list, args.cache_path):
            series = {
                "uniform": symmetric_payoff(Strategy.uniform(n)),
                "ne": c_ne,
                "zeng": symmetric_payoff(Strategy.zeng(n)),
                "flitney": symmetric_payoff(Strategy.flitney(n)),
            }
            rows.extend([name, n, n * w] for name, w in series.items())
    _emit(args, header=header, rows=rows)
    return EXIT_OK


def _figure_traces(args: argparse.Namespace) -> list[list[object]]:
    """Win-chance traces c_i over candidate p_i, prefix fixed by the chain."""
    import numpy as np

    from .solvers import sequential_solve
    from .winprob import PrefixChance

    n, points = args.n, require_int("--points", args.points, 1)
    depth = min(4, n) if args.depth is None else args.depth
    result = sequential_solve(n, args.c0, depth)
    rows: list[list[object]] = []
    chance = PrefixChance(n)
    for entry in result.entries:
        grid = chance.rest * np.arange(1, points + 1) / (points + 1)
        rows.extend([entry.i, float(x), float(chance.at_tail(chance.rest - x)[0])] for x in grid)
        if entry.p_i is None:
            break
        chance.fix(result.tails[entry.i - 1])  # the tail the chain solved for
    return rows


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(
        prog="lupi",
        description="Win probabilities and equilibrium strategies for the "
        "lowest-unique-positive-integer game.",
    )
    parser.add_argument("--version", action="version", version=f"lupi {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (default csv, or the command's only form)")
    common.add_argument("--output", default=None, help="write output to this file instead of stdout")
    common.add_argument("--cache-path", default=None,
                        help="equilibrium cache file (env LUPI_CACHE_PATH)")
    common.set_defaults(forms=("csv", "json"))  # the output forms; the first is the default

    sub = parser.add_subparsers(dest="command", required=True)

    p_ne = sub.add_parser("ne", parents=[common], help="solve the symmetric equilibrium")
    p_ne.add_argument("--n", type=int, required=True)
    p_ne.set_defaults(func=cmd_ne)

    p_wp = sub.add_parser("winprob", parents=[common], help="per-number win chances of a strategy")
    p_wp.add_argument("--n", type=int, required=True)
    p_wp.add_argument("--strategy", required=True,
                      help="uniform | zeng | flitney | ne | path to a strategy file")
    p_wp.set_defaults(func=cmd_winprob)

    p_seq = sub.add_parser("sequential", parents=[common],
                           help="solve p_1, p_2, ... one number at a time for a target win value")
    p_seq.add_argument("--n", type=int, required=True)
    p_seq.add_argument("--c0", type=float, required=True)
    p_seq.add_argument("--depth", type=int, required=True)
    p_seq.set_defaults(func=cmd_sequential)

    p_bound = sub.add_parser("bound", parents=[common],
                             help="bracket the equilibrium win value from a shallow chain")
    p_bound.add_argument("--n", type=int, required=True)
    p_bound.add_argument("--depth", type=int, required=True)
    p_bound.add_argument("--tol", type=float, default=1e-4)
    p_bound.set_defaults(func=cmd_bound)

    p_sim = sub.add_parser("simulate", parents=[common], help="play the game (JSON output)")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--pi", required=True, help="observed player's strategy source")
    p_sim.add_argument("--p", required=True, help="opponents' strategy source")
    p_sim.add_argument("--rounds", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=cmd_simulate, forms=("json",))

    p_pay = sub.add_parser("payoff", parents=[common],
                           help="expected payoff of one strategy against another")
    p_pay.add_argument("--n", type=int, required=True)
    p_pay.add_argument("--pi", required=True)
    p_pay.add_argument("--p", required=True)
    p_pay.set_defaults(func=cmd_payoff)

    p_best = sub.add_parser("bestsym", parents=[common],
                            help="best symmetric strategy (everyone plays it)")
    p_best.add_argument("--n", type=int, required=True)
    p_best.set_defaults(func=cmd_bestsym)

    p_fig = sub.add_parser(
        "figure",
        parents=[common],
        help="emit plot-ready CSV series",
        description="fig1: equilibrium strategies per n; fig1b: the same "
        "scaled as (i/n, n*p_i), an interpretation of how the axes grow; "
        "fig2a: win chances under uniform play; fig2b: scaled payoffs n*W "
        "for the uniform/ne/zeng/flitney strategies; fig3: win-chance "
        "traces against candidate p_i for a fixed target win value.",
    )
    p_fig.add_argument("--which", choices=FIGURES, required=True)
    p_fig.add_argument("--n-list", default=None, help="comma-separated player counts")
    p_fig.add_argument("--n", type=int, default=None, help="player count (fig3)")
    p_fig.add_argument("--c0", type=float, default=None, help="target win value (fig3)")
    p_fig.add_argument("--depth", type=int, default=None, help="chain depth (fig3; default min(4, n))")
    p_fig.add_argument("--points", type=int, default=256, help="grid points per trace (fig3)")
    p_fig.set_defaults(func=cmd_figure, forms=("csv",))

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format not in (None, *args.forms):  # refused before any work
            raise CliError(f"{args.command} has no {args.format} output")
        args.cache_path = cache_path(args.cache_path)
        return args.func(args)
    except (CliError, ValueError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (NonConvergence, ClassificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
