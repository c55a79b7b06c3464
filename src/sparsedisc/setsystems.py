"""Set systems over an integer ground set.

Canonical form: sorted index tuples, deduplicated, empty sets dropped,
outer list sorted lexicographically.  Duplicates and the empty set never
change discrepancy, so the canonical form is safe for every downstream
computation.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import ParseError, ResourceLimitError
from .graphs import Graph
from .orderings import degeneracy_order
from .rng import SplitMix64

CLOSURE_CAP = 10**5


@dataclass(frozen=True)
class SetSystem:
    ground_size: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = set()
        prev = None
        for s in self.sets:
            if not s:
                raise ValueError("empty sets are dropped from the canonical form")
            if list(s) != sorted(set(s)):
                raise ValueError("sets must be sorted and duplicate-free")
            if s[0] < 0 or s[-1] >= self.ground_size:
                raise ValueError("set element out of ground range")
            if s in seen:
                raise ValueError("duplicate set in canonical form")
            if prev is not None and not prev < s:
                raise ValueError("outer list must be sorted lexicographically")
            seen.add(s)
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


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _check_gamma(g: Graph, gamma: dict[tuple[int, int], int]) -> None:
    for u, v in g.edges():
        c = gamma.get((u, v))
        if c not in (1, 2):
            raise ValueError(f"edge ({u},{v}) missing from the 2-coloring")


def edge_color_system(g: Graph, gamma: dict[tuple[int, int], int]) -> SetSystem:
    """The 1-neighborhoods and 2-neighborhoods of a 2-edge-coloring."""
    _check_gamma(g, gamma)
    sets = []
    for v in range(g.n):
        for color in (1, 2):
            sets.append([u for u in g.adjacency[v] if gamma[_edge_key(u, v)] == color])
    return SetSystem.from_sets(g.n, sets)


def bipartite_double(g: Graph, gamma: dict[tuple[int, int], int]) -> Graph:
    """Bipartite carrier graph with parts V and V x {1,2}: u is adjacent to
    (v,i), encoded as n + 2v + (i-1), iff {u,v} is an edge of color i.
    Every colored neighborhood becomes an ordinary neighborhood here, and
    the degeneracy never goes up.
    """
    _check_gamma(g, gamma)
    edges = []
    for u, v in g.edges():
        i = gamma[_edge_key(u, v)]
        edges.append((u, g.n + 2 * v + (i - 1)))
        edges.append((v, g.n + 2 * u + (i - 1)))
    doubled = Graph.from_edges(3 * g.n, edges)
    assert degeneracy_order(doubled)[1] <= degeneracy_order(g)[1]
    return doubled


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


def intersection_closure(s: SetSystem, cap: int = CLOSURE_CAP) -> SetSystem:
    """All intersections of members, plus the full ground set as the empty
    intersection; degree grows at most to 2^degree(s)."""
    ground_mask = (1 << s.ground_size) - 1
    closed: set[int] = {ground_mask} | {sum(1 << v for v in st) for st in s.sets}
    work = list(closed)
    while work:
        new: set[int] = set()
        for a in work:
            for b in closed:
                c = a & b
                if c and c not in closed and c not in new:
                    new.add(c)
        if len(closed) + len(new) > cap:
            raise ResourceLimitError("intersection closure over the size cap")
        work = list(new)
        closed |= new
    out = SetSystem.from_sets(
        s.ground_size,
        ([v for v in range(s.ground_size) if mask >> v & 1] for mask in closed),
    )
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

