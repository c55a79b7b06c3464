#!/usr/bin/env python3
"""Where the bit-mask kernel of bounded reach stops beating the BFS.

Bounded reach has two routes, chosen by the size rule graphs.MASK_MAX_N:
the bit masks of `graphs._reach_masks` up to that many vertices, a BFS
above.  They are timed through their two readers:
`orderings.wcol_from_order` with the smallest-last order, for the weak
coloring number ("wcol": on the BFS one `weak_reach` pass counted by
`reach_profile`), and `graphs.ball_sums` with a seeded random coloring
as signs, for the power certificate's ball sums ("balls").  For each
size n and parameter p this builds
`random_degenerate_graph(n, p, seed)`, forces each route by setting the
size rule, checks that the two routes agree, and prints BFS time / mask
time at radii 1..4: above 1 the masks win.  Each time is the best of
--repeats calls, each on a fresh copy of the graph, so the masks pay for
building their neighbor arrays every time.  The BFS and mask calls of a
cell alternate, call by call, so a slowdown of the host hits both sides
of the ratio instead of one.  The sizes run in ascending order, and the
last line names the largest n up to which the masks win every cell of
every size, the bound the size rule is read from (the `graphs` docstring
says where it stands).

The stars reader times `power_coloring`'s profile and star system on the
graphs of each size up to MASK_MAX_N: the degenerate graphs above, and
in the p column P for the path on n vertices, G for the grid with
isqrt(n) rows and n // isqrt(n) columns, and S for the Sylvester graph
when n is a power of two.  Its "stars" row is BFS time (one `weak_reach`
pass read by `reach_profile` and `wreach_star_system`) / mask time (the
read of one `_reach_masks` pass by `power_coloring._mask_reach`).  These
rows do not enter the last line: inside the size rule `power_coloring`
always reads the masks, and the rows below 1 are the cost it accepts
(the `power_coloring` docstring lists them).
"""
import argparse
import math
import time

import numpy as np

from sparsedisc import graphs
from sparsedisc import power_coloring as power
from sparsedisc.graphs import (
    Graph,
    ball_sums,
    generate_family,
    random_degenerate_graph,
    sylvester_graph,
)
from sparsedisc.orderings import degeneracy_order, reach_profile, wcol_from_order, weak_reach
from sparsedisc.rng import SplitMix64

RADII = (1, 2, 3, 4)


def timed(bfs_reader, mask_reader, g: Graph, d: int, repeats: int):
    """(BFS / mask best-time ratio, BFS value, mask value) of
    bfs_reader(copy of g, d) with MASK_MAX_N = -1 and mask_reader(copy of
    g, d) with MASK_MAX_N = g.n.  The two routes are called alternately,
    each on its own fresh copy, so a slowdown of the host hits both."""
    best = [float("inf"), float("inf")]
    values = [None, None]
    for _ in range(repeats):
        for side, (reader, max_n) in enumerate(((bfs_reader, -1), (mask_reader, g.n))):
            graphs.MASK_MAX_N = max_n
            h = Graph(g.n, g.adjacency)
            start = time.perf_counter()
            values[side] = reader(h, d)
            best[side] = min(best[side], time.perf_counter() - start)
    return best[0] / best[1], *values


def mask_bound(won: list[tuple[int, bool]]) -> int | None:
    """The largest n up to which every size won, from (n, won) pairs in
    ascending n: the walk stops at the first size that loses."""
    bound = None
    for n, wins in won:
        if not wins:
            break
        bound = n
    return bound


def bfs_stars(g: Graph, order, d: int):
    levels = weak_reach(g, order, d)
    return reach_profile(levels, d), power.wreach_star_system(levels, d)


def star_graphs(n: int, params: list[int], seed: int) -> list[tuple[str, Graph]]:
    """The stars reader's graphs of size n, each with its entry in the p
    column: the degenerate graphs under their parameter, then P, G and S."""
    rows = math.isqrt(n)
    out = [(str(p), random_degenerate_graph(n, p, seed)) for p in params]
    out += [("P", generate_family("path", [n])), ("G", generate_family("grid", [rows, n // rows]))]
    if n >= 2 and n & (n - 1) == 0:
        out.append(("S", sylvester_graph(n.bit_length() - 2)))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[512, 1024, 2048, 4096])
    ap.add_argument("--params", type=int, nargs="+", default=[3, 6])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("n     p  reader  " + "  ".join(f"{f'r={d}':>5}" for d in RADII))
    max_n = graphs.MASK_MAX_N
    won = []
    for n in sorted(args.sizes):
        wins = True
        for p in args.params:
            g = random_degenerate_graph(n, p, args.seed)
            order = degeneracy_order(g)[0]
            rng = SplitMix64(args.seed)
            signs = np.array([rng.randrange(2) * 2 - 1 for _ in range(g.n)], dtype=np.int64)
            readers = {
                "wcol": lambda h, d: wcol_from_order(h, order, d),
                "balls": lambda h, d: ball_sums(h, d, signs),
            }
            for name, reader in readers.items():
                ratios = []
                for d in RADII:
                    ratio, expected, got = timed(reader, reader, g, d, args.repeats)
                    assert np.array_equal(got, expected), (n, p, name, d)
                    ratios.append(ratio)
                wins = wins and min(ratios) > 1
                print(f"{n:<5} {p}  {name:<6}  " + "  ".join(f"{r:5.2f}" for r in ratios))
        won.append((n, wins))
        if n > max_n:
            continue
        for label, g in star_graphs(n, args.params, args.seed):
            order = degeneracy_order(g)[0]
            ratios = []
            for d in RADII:
                ratio, expected, got = timed(
                    lambda h, d: bfs_stars(h, order, d),
                    lambda h, d: power._mask_reach(h, order, d),
                    g, d, args.repeats,
                )
                assert got == expected, (n, label, d)
                ratios.append(ratio)
            print(f"{n:<5} {label}  stars   " + "  ".join(f"{r:5.2f}" for r in ratios))
    bound = mask_bound(won)
    print(f"masks win every cell up to n = {'none' if bound is None else bound}")


if __name__ == "__main__":
    main()
