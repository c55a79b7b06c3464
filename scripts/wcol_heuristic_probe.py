#!/usr/bin/env python3
"""How good is the smallest-last order?

Two open questions probed on every graph small enough for the exhaustive
ordering oracle:

  1. the ratio of the smallest-last weak-reach maximum to the exact weak
     coloring number, for radii beyond 1 (radius 1 is provably exact);
  2. whether feeding an exhaustively optimal order into the power-coloring
     pipeline ever beats the heuristic order's achieved discrepancy.
"""
import argparse
from itertools import permutations

from sparsedisc.graphs import generate_family
from sparsedisc.orderings import (
    LinearOrder,
    degeneracy_order,
    wcol_exact,
    wcol_from_order,
)
from sparsedisc.power_coloring import power_coloring


def corpus(max_n: int):
    out = [
        ("P6", generate_family("path", [6])),
        ("C7", generate_family("cycle", [7])),
        ("K5", generate_family("complete", [5])),
        ("grid2x4", generate_family("grid", [2, 4])),
        ("grid3x3", generate_family("grid", [3, 3])),
        ("K23", generate_family("complete_bipartite", [2, 3])),
        ("gnp8", generate_family("gnp", [8, 2, 5], seed=5)),
        ("gnp9", generate_family("gnp", [9, 1, 3], seed=6)),
    ]
    return [(name, g) for name, g in out if g.n <= max_n]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=9)
    ap.add_argument("--max-d", type=int, default=3)
    args = ap.parse_args()

    print("== smallest-last vs exact weak coloring number ==")
    print(f"{'graph':<9} d  heuristic  exact  ratio")
    for name, g in corpus(args.max_n):
        heur, _ = degeneracy_order(g)
        for d in range(1, args.max_d + 1):
            hval = wcol_from_order(g, heur, d)
            xval = wcol_exact(g, d)
            print(f"{name:<9} {d}  {hval:>9}  {xval:>5}  {hval / xval:5.2f}")

    print()
    print("== achieved discrepancy: heuristic order vs exhaustively optimal order ==")
    print(f"{'graph':<9} d  heur_disc  best_exact_disc")
    for name, g in corpus(args.max_n):
        for d in (1, 2):
            _, cert = power_coloring(g, d)
            target = wcol_exact(g, d)
            best = None
            for perm in permutations(range(g.n)):
                order = LinearOrder.from_sequence(list(perm))
                if wcol_from_order(g, order, d) != target:
                    continue
                best = power_coloring(g, d, order)[1].achieved
                break  # one optimal order suffices for the probe
            print(f"{name:<9} {d}  {cert.achieved:>9}  {best if best is not None else '-':>15}")


if __name__ == "__main__":
    main()
