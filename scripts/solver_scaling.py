#!/usr/bin/env python3
"""Scaling of the exact rounding solver on bounded-degree systems.

Builds the seeded size-20 degree-4 family (four shuffled partitions of the
ground into blocks of 20, so m = n/5 and every element lies in exactly
four sets) and prints n, m, the solver's rounds, its wall-clock seconds and
the first 12 hex digits of sha256("<signs>|<rounds>") for each size, where
<signs> is the coloring as a string of + and -: equal digests on two
commits mean byte-identical colorings.
"""
import argparse
import hashlib
import time

from sparsedisc.discrepancy import beck_fiala_with_stats
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import SetSystem


def size20_degree4(n: int, seed: int) -> SetSystem:
    rng = SplitMix64(seed)
    sets = []
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        sets.extend(perm[i:i + 20] for i in range(0, n, 20))
    return SetSystem.from_sets(n, sets)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[200, 400, 800])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    print("n     m     rounds  seconds  digest")
    for n in args.sizes:
        s = size20_degree4(n, args.seed)
        start = time.perf_counter()
        chi, rounds = beck_fiala_with_stats(s)
        elapsed = time.perf_counter() - start
        signs = "".join("+" if v == 1 else "-" for v in chi.values)
        digest = hashlib.sha256(f"{signs}|{rounds}".encode()).hexdigest()[:12]
        print(f"{n:<5} {len(s.sets):<5} {rounds:<7} {elapsed:<8.2f} {digest}")


if __name__ == "__main__":
    main()
