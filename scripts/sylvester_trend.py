#!/usr/bin/env python3
"""Discrepancy growth on the Sylvester bipartite graphs.

For each order exponent p: the exact discrepancy of the neighborhood
system (within the exhaustive cap), the spectral lower bound, and the
solver's achieved value.  The exact column trends like sqrt(ground size).
The spectral column is certified without exhaustion, but it does not show
the growth: it reads 0.62 to 0.97 for p = 1..6, so, discrepancy being an
integer, it certifies only disc >= 1.
"""
import argparse
import math

from sparsedisc.discrepancy import (
    beck_fiala,
    eval_discrepancy,
    exact_discrepancy,
    spectral_lower_bound,
)
from sparsedisc.errors import ResourceLimitError
from sparsedisc.graphs import sylvester_graph
from sparsedisc.setsystems import degree, neighborhood_system


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-p", type=int, default=5)
    ap.add_argument("--exact-cap", type=int, default=16, help="largest ground for exact search")
    args = ap.parse_args()

    print("p  n    sqrt(n)  exact  spectral   bf_achieved  2t-1")
    for p in range(1, args.max_p + 1):
        s = neighborhood_system(sylvester_graph(p))
        n = s.ground_size
        exact = "-"
        if n <= args.exact_cap:
            exact = str(exact_discrepancy(s, max_ground=args.exact_cap)[0])
        try:
            spectral = f"{float(spectral_lower_bound(s)):8.4f}"
        except ResourceLimitError:  # ground over the exact certificate's cap
            spectral = f"{'-':>8}"
        chi = beck_fiala(s)
        achieved, _ = eval_discrepancy(s, chi)
        t = degree(s)
        print(
            f"{p}  {n:<4} {math.sqrt(n):7.2f}  {exact:>5}  {spectral}"
            f"   {achieved:>11}  {2 * t - 1}"
        )


if __name__ == "__main__":
    main()
