#!/usr/bin/env python3
"""Solving the equilibrium one number at a time.

The win chance with number i depends only on p_1..p_i, so if the common
equilibrium win value c_0 were known, the probabilities could be peeled
off one by one: c_1 = c_0 fixes p_1 in closed form, substituting it into
c_2 = c_0 fixes p_2, and so on. A wrong guess for c_0 betrays itself:
too small and the probabilities overrun total mass 1, too large and they
cannot reach it. That signal drives a walk to the self-consistent value,
bisecting until the complete chains' leftover mass can be interpolated,
and stopping the chain early still brackets it from both sides.
"""

import lupi


def show_chain(result):
    for e in result.entries:
        if e.p_i is not None:
            print(f"  p_{e.i} = {e.p_i:.6f}   (|c_{e.i} - c0| = {e.residual:.1e})")
        else:
            print(f"  p_{e.i}: no real solution; closest approach |c - c0| = {e.residual:.3e}")


def main():
    print("Three players, target win value c0 = 0.287 (close to the true value):")
    loose = lupi.sequential_solve(3, 0.287, 3)
    show_chain(loose)
    print("  The last equation has a complex-conjugate root pair, so no real")
    print("  probability solves it; the closest-approach residual is its shadow.\n")

    print("Refining the target to c0 = 0.287187 shrinks that residual:")
    tight = lupi.sequential_solve(3, 0.287187, 3)
    show_chain(tight)
    ratio = loose.entries[2].residual / tight.entries[2].residual
    print(f"  residual shrank by a factor {ratio:.0f}; it vanishes at the true value.\n")

    print("Nine players, c0 = 0.0985, first four numbers:")
    chain = lupi.sequential_solve(9, 0.0985, 4)
    show_chain(chain)
    sol = lupi.solve_ne(9)
    print("  Simultaneous solve for comparison:",
          [f"{v:.4f}" for v in sol.strategy.probs[:4]], "\n")

    print("A depth-4 chain already brackets the equilibrium win value (n=9):")
    interval = lupi.bound_c0(9, 4)
    print(f"  depth 4: c0 in [{interval.lower:.4f}, {interval.upper:.4f}]")
    deeper = lupi.bound_c0(9, 5)
    print(f"  depth 5: c0 in [{deeper.lower:.4f}, {deeper.upper:.4f}]  (narrower)")

    found = lupi.find_cne_sequential(9)
    print(f"\nWalking to self-consistency: c_NE = {found.c_ne:.8f}"
          f"  ({found.iterations} chain runs)")
    print(f"  simultaneous Newton value:  c_NE = {sol.c_ne:.8f}")
    print(f"  total-mass closure error of the chain: {found.sum_error:.1e}")


if __name__ == "__main__":
    main()
