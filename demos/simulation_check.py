#!/usr/bin/env python3
"""Monte Carlo validation of the analytic win chances.

Actually plays the game: five opponents-and-observer tables, two million
rounds, one seeded random stream so every number in the run is reproducible
from the seed. At the equilibrium every number should win equally often,
and the conditional estimates should straddle the analytic value within
a few standard errors.
"""

import lupi
from lupi import Strategy

ROUNDS = 2_000_000
SEED = 31415926535897932


def main():
    sol = lupi.solve_ne(5)
    print(f"Five-player equilibrium: c_NE = {sol.c_ne:.6f}")
    print(f"Playing {ROUNDS:,} rounds with everyone on that strategy (seed {SEED})...")

    stats = lupi.simulate(sol.strategy, sol.strategy, ROUNDS, seed=SEED)
    print(f"generator {stats.generator}\n")
    print("  i   times picked   est. win chance   std.err   pull (sigma)")
    for i in range(1, 6):
        est = stats.est_ci[i - 1]
        err = stats.std_err[i - 1]
        picked = round(stats.win_counts[i - 1] / est) if est else 0
        pull = (est - sol.c_ne) / err
        print(f"  {i}   {picked:12,d}   {est:.6f}          {err:.6f}  {pull:+.2f}")
    print(f"\n  overall win rate {stats.w_estimate:.6f} +- {stats.w_std_err:.6f} "
          f"(analytic {sol.c_ne:.6f})")

    again = lupi.simulate(sol.strategy, sol.strategy, ROUNDS, seed=SEED)
    print(f"  rerun with the same seed is bit-identical: {again.to_json_obj() == stats.to_json_obj()}")

    print("\nAgainst a crowd on the uniform strategy, picking low pays:")
    uniform = Strategy.uniform(5)
    stats = lupi.simulate(uniform, uniform, ROUNDS // 4, seed=SEED)
    for i in range(1, 6):
        print(f"  c_{i}: simulated {stats.est_ci[i - 1]:.5f}   analytic {lupi.win_prob(i, uniform):.5f}")


if __name__ == "__main__":
    main()
