#!/usr/bin/env python3
"""Size independence of the definable-system coloring.

Runs the adjacency-formula pipeline over random d-degenerate graphs of
growing size and prints the achieved discrepancy next to the constant
2^(2k+t+1).  The achieved column should plateau while n grows.  Each row
also gives the size of the intersection closure that is colored, and the
wall seconds of qf_color and of defined_system, the evaluation that gives
the achieved value; past defined_system's cell cap those two columns read
"cap".
"""
import argparse
import time

from sparsedisc.discrepancy import eval_discrepancy
from sparsedisc.errors import ResourceLimitError
from sparsedisc.graphs import random_degenerate_graph
from sparsedisc.pointer import definable_closure, defined_system, from_degenerate_graph, qf_color


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degeneracy", type=int, default=2)
    ap.add_argument("--sizes", type=int, nargs="+", default=[10, 25, 50, 100, 200, 400])
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args()

    print("n     seed  achieved  bound    closure  qf_color_s  defined_s")
    for n in args.sizes:
        for seed in range(args.seeds):
            g = random_degenerate_graph(n, args.degeneracy, seed=7000 + 31 * seed + n)
            m, eta = from_degenerate_graph(g)
            start = time.perf_counter()
            chi, bound = qf_color(m, [eta])
            color_s = time.perf_counter() - start
            closure = len(definable_closure(m, [eta])[0].sets)
            start = time.perf_counter()
            try:
                s = defined_system(m, eta)
            except ResourceLimitError:
                d, defined_s = "cap", "cap"
            else:
                defined_s = f"{time.perf_counter() - start:.4f}"
                d, _ = eval_discrepancy(s, chi)
            print(f"{n:<5} {seed:<5} {d:<9} {bound:<8} {closure:<8} {color_s:<11.4f} {defined_s}")


if __name__ == "__main__":
    main()
