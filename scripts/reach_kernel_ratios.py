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
building their neighbor arrays every time.  The last line names the
largest n at which the masks win every cell of the table, the bound the
size rule is read from (the `graphs` docstring says where it stands).
"""
import argparse
import time

import numpy as np

from sparsedisc import graphs
from sparsedisc.graphs import Graph, ball_sums, random_degenerate_graph
from sparsedisc.orderings import degeneracy_order, wcol_from_order
from sparsedisc.rng import SplitMix64

RADII = (1, 2, 3, 4)


def timed(reader, g: Graph, d: int, max_n: int, repeats: int):
    """(best seconds, value) of reader(copy of g, d) with MASK_MAX_N = max_n."""
    graphs.MASK_MAX_N = max_n
    copies = [Graph(g.n, g.adjacency) for _ in range(repeats)]
    best, value = float("inf"), None
    for h in copies:
        start = time.perf_counter()
        value = reader(h, d)
        best = min(best, time.perf_counter() - start)
    return best, value


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[512, 1024, 2048, 4096])
    ap.add_argument("--params", type=int, nargs="+", default=[3, 6])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    print("n     p  reader  " + "  ".join(f"{f'r={d}':>5}" for d in RADII))
    winning = []
    for n in args.sizes:
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
                    bfs, expected = timed(reader, g, d, -1, args.repeats)
                    masks, got = timed(reader, g, d, n, args.repeats)
                    assert np.array_equal(got, expected), (n, p, name, d)
                    ratios.append(bfs / masks)
                wins = wins and min(ratios) > 1
                print(f"{n:<5} {p}  {name:<6}  " + "  ".join(f"{r:5.2f}" for r in ratios))
        if wins:
            winning.append(n)
    print(f"masks win every cell up to n = {max(winning, default='none')}")


if __name__ == "__main__":
    main()
