"""Set systems over an integer ground set.

Canonical form: sorted index tuples, deduplicated, empty sets dropped,
outer list sorted lexicographically.  Duplicates and the empty set never
change discrepancy, so the canonical form is safe for every downstream
computation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from operator import lt
from typing import Iterable

from .errors import ParseError, ResourceLimitError, check_input_size
from .graphs import Graph
from .rng import SplitMix64

CLOSURE_CAP = 10**5


@dataclass(frozen=True)
class SetSystem:
    ground_size: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # strictly increasing, inside each set and along the outer list,
        # rules out duplicates in both
        prev = None
        for s in self.sets:
            if not s:
                raise ValueError("empty sets are dropped from the canonical form")
            if not all(map(lt, s, s[1:])):
                raise ValueError("sets must be sorted and duplicate-free")
            if s[0] < 0 or s[-1] >= self.ground_size:
                raise ValueError("set element out of ground range")
            if prev is not None and not prev < s:
                if prev == s:
                    raise ValueError("duplicate set in canonical form")
                raise ValueError("outer list must be sorted lexicographically")
            prev = s

    @classmethod
    def from_sets(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "SetSystem":
        canon = set()
        for s in sets:
            t = tuple(sorted(set(s)))
            if t:
                canon.add(t)
        return cls(ground_size, tuple(sorted(canon)))

    def to_json(self) -> str:
        return json.dumps(
            {"ground_size": self.ground_size, "sets": [list(s) for s in self.sets]},
            separators=(",", ":"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SetSystem":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ParseError("set system JSON must be an object")
        n, sets = data.get("ground_size"), data.get("sets")
        if type(n) is not int or n < 0:
            raise ParseError("ground_size must be a non-negative integer")
        check_input_size("ground_size", n)
        if not isinstance(sets, list) or not all(
            isinstance(st, list) and all(type(v) is int for v in st) for st in sets
        ):
            raise ParseError("sets must be a list of lists of integers")
        return cls.from_sets(n, sets)

    def membership(self) -> list[list[int]]:
        """For each ground element, the indices of the sets containing it."""
        inc: list[list[int]] = [[] for _ in range(self.ground_size)]
        for i, s in enumerate(self.sets):
            for v in s:
                inc[v].append(i)
        return inc


def neighborhood_system(g: Graph) -> SetSystem:
    """Open neighborhoods of the vertices, deduplicated."""
    return SetSystem.from_sets(g.n, g.adjacency)


def edge_color_system(g: Graph, gamma: dict[tuple[int, int], int]) -> SetSystem:
    """The 1-neighborhoods and 2-neighborhoods of a 2-edge-coloring, whose
    keys are the edges (u, v) with u < v."""
    for u, v in g.edges():
        if (u, v) not in gamma:
            raise ValueError(f"edge ({u},{v}) missing from the 2-coloring")
        if gamma[u, v] not in (1, 2):
            raise ValueError(f"edge ({u},{v}) has color {gamma[u, v]}, not 1 or 2")
    sets = []
    for v in range(g.n):
        for color in (1, 2):
            sets.append([u for u in g.adjacency[v] if gamma[min(u, v), max(u, v)] == color])
    return SetSystem.from_sets(g.n, sets)


def trace(s: SetSystem, subset: Iterable[int]) -> tuple[SetSystem, tuple[int, ...]]:
    """Intersections with subset, ground re-indexed densely.

    Returns (traced system, mapping) where mapping[i] is the original
    index of the new ground element i.
    """
    sub = sorted(set(subset))
    if sub and (sub[0] < 0 or sub[-1] >= s.ground_size):
        raise ValueError("subset element out of ground range")
    pos = {v: i for i, v in enumerate(sub)}
    traced = SetSystem.from_sets(
        len(sub), ([pos[v] for v in st if v in pos] for st in s.sets)
    )
    return traced, tuple(sub)


def degree(s: SetSystem) -> int:
    """Maximum number of sets any single ground element lies in."""
    counts = [0] * s.ground_size
    for st in s.sets:
        for v in st:
            counts[v] += 1
    return max(counts, default=0)


def _bits(mask: int) -> list[int]:
    """The set bits of mask, ascending, one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def intersection_closure(s: SetSystem) -> SetSystem:
    """The ground set plus every nonempty intersection of members.  Such an
    intersection contains some element v, so it is an intersection of sets
    through v: the closure is the ground plus, for each v, the at most
    2^degree(s) intersections of subfamilies of the sets through v.  More
    than CLOSURE_CAP sets raise ResourceLimitError."""
    ground_mask = (1 << s.ground_size) - 1
    masks = [sum(1 << v for v in st) for st in s.sets]
    closed: set[int] = {ground_mask}
    for through in s.membership():
        meets = {ground_mask}
        for i in through:
            meets |= {c & masks[i] for c in meets}
            if len(meets) > CLOSURE_CAP:  # meets lies in the closure, so it is over the cap
                break
        closed |= meets
        if len(closed) > CLOSURE_CAP:
            raise ResourceLimitError("intersection closure over the size cap")
    out = SetSystem.from_sets(s.ground_size, (_bits(mask) for mask in closed))
    t = degree(s)
    assert degree(out) <= 2**t or s.ground_size == 0
    return out


def random_system(
    rng: SplitMix64,
    max_ground: int = 500,
    max_degree: int = 6,
    max_sets: int = 30,
) -> SetSystem:
    """Random system with degree at most max_degree; test/benchmark helper."""
    n = 1 + rng.randrange(max_ground)
    t = 1 + rng.randrange(max_degree)
    m = 1 + rng.randrange(max_sets)
    capacity = [t] * n
    sets = []
    for _ in range(m):
        if rng.bernoulli(4, 5):
            size = 1 + rng.randrange(min(6, n))
        else:
            size = 1 + rng.randrange(min(40, n))
        avail = [v for v in range(n) if capacity[v] > 0]
        if not avail:
            break
        chosen = rng.sample(avail, min(size, len(avail)))
        for v in chosen:
            capacity[v] -= 1
        sets.append(chosen)
    return SetSystem.from_sets(n, sets)

