"""Deterministic 64-bit random generator.

splitmix64: same seed gives the same stream on every platform, which keeps
generated fixtures and acceptance runs bit-reproducible.
"""
from __future__ import annotations

from bisect import insort
from collections.abc import Sequence

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int = 0):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, n >= 1."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def bernoulli(self, num: int, den: int) -> bool:
        """True with probability num/den, decided by exact integer compare."""
        if den <= 0 or not 0 <= num <= den:
            raise ValueError(f"probability {num}/{den} is not in [0, 1]")
        return self.next_u64() * den < num * (1 << 64)

    def sample(self, population: Sequence, k: int) -> list:
        """k distinct elements of the population, in draw order.
        Each draw is an index into the places not drawn yet; it is mapped
        to its place by stepping past the drawn ones, kept sorted, so the
        population is never copied and k draws cost O(k^2)."""
        if k > len(population):
            raise ValueError("sample larger than population")
        drawn: list[int] = []  # ascending
        out = []
        for left in range(len(population), len(population) - k, -1):
            i = self.randrange(left)
            for d in drawn:
                if d > i:
                    break
                i += 1
            insort(drawn, i)
            out.append(population[i])
        return out

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
