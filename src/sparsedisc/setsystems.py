"""Set systems over an integer ground set.

Canonical form: sorted index tuples, deduplicated, empty sets dropped,
outer list sorted lexicographically.  Duplicates and the empty set never
change discrepancy, so the canonical form is safe for every downstream
computation.
"""
from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from .errors import ParseError, ResourceLimitError, check_input_size
from .graphs import Graph
from .rng import SplitMix64

CLOSURE_CAP = 10**5


@dataclass(frozen=True)
class SetSystem:
    """Canonical sets over 0..ground_size-1.  The constructor does not
    check them: outside data enters through `from_sets` and `from_json`,
    which reject a negative ground size and elements outside the ground
    set, and the builders that
    call it directly are canonical by construction (tests/test_canonical.py):
    - weak-reach stars: sorted prefixes of BFS lists, or the nonzero
      columns of unpacked mask rows, distinct by root, sorted once;
    - `intersection_closure`: each new intersection sorted and added once;
    - `neighborhood_system`, `trace`: sorted rows, an increasing re-indexing;
    - in-neighborhoods: sorted rows filtered by rank, deduplicated;
    - `pointer`: row-major reads of a truth matrix, stable sorts of fibers;
    - the `approx` carrier: a canonical system with the ground tuple
      inserted at its sorted place.
    """

    ground_size: int
    sets: tuple[tuple[int, ...], ...]

    @classmethod
    def from_sets(cls, ground_size: int, sets: Iterable[Iterable[int]]) -> "SetSystem":
        if ground_size < 0:
            raise ValueError(f"negative ground size {ground_size}")
        canon = set()
        for s in sets:
            t = tuple(sorted(set(s)))
            if t:
                if t[0] < 0 or t[-1] >= ground_size:
                    raise ValueError("set element out of ground range")
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
    """Open neighborhoods of the vertices, deduplicated: each is already a
    sorted row of the adjacency."""
    return SetSystem(g.n, tuple(sorted(set(g.adjacency) - {()})))


def edge_color_system(g: Graph, gamma: dict[tuple[int, int], int]) -> SetSystem:
    """The 1-neighborhoods and 2-neighborhoods of a 2-edge-coloring, whose
    keys are the edges (u, v) with u < v, and no other pairs."""
    edges = g.edges()
    for u, v in edges:
        if (u, v) not in gamma:
            raise ValueError(f"edge ({u},{v}) missing from the 2-coloring")
        if gamma[u, v] not in (1, 2):
            raise ValueError(f"edge ({u},{v}) has color {gamma[u, v]}, not 1 or 2")
    if len(gamma) > len(edges):
        u, v = min(gamma.keys() - set(edges))
        raise ValueError(f"({u},{v}) is colored but is not an edge")
    sets = []
    for v in range(g.n):
        for color in (1, 2):
            sets.append([u for u in g.adjacency[v] if gamma[min(u, v), max(u, v)] == color])
    return SetSystem.from_sets(g.n, sets)


def trace(s: SetSystem, subset: Iterable[int]) -> tuple[SetSystem, tuple[int, ...]]:
    """Intersections with subset, ground re-indexed densely.

    Returns (traced system, mapping) where mapping[i] is the original
    index of the new ground element i.  The trace on the whole ground is
    s itself: a SetSystem is canonical, so re-indexing by the identity
    would rebuild the same sets.
    """
    sub = sorted(set(subset))
    if sub and (sub[0] < 0 or sub[-1] >= s.ground_size):
        raise ValueError("subset element out of ground range")
    if len(sub) == s.ground_size:
        return s, tuple(sub)
    pos = {v: i for i, v in enumerate(sub)}
    # the re-indexing is increasing, so every traced set stays sorted
    traced = {tuple(map(pos.__getitem__, filter(pos.__contains__, st))) for st in s.sets}
    traced.discard(())
    return SetSystem(len(sub), tuple(sorted(traced))), tuple(sub)


def degree(s: SetSystem) -> int:
    """Maximum number of sets any single ground element lies in."""
    return max(Counter(chain.from_iterable(s.sets)).values(), default=0)


def intersection_closure(s: SetSystem) -> SetSystem:
    """The ground set plus every nonempty intersection of members.

    One worklist: each member is intersected with every earlier member
    that meets it, and an intersection not yet in the family joins the
    end.  A family holding A & B for every two members that meet is
    closed under every nonempty intersection (each partial intersection
    contains the whole, so it is nonempty and a member).  One-element
    members and the ground give nothing new, so they are never worked.
    Input tuples are kept; only new intersections are sorted into tuples.
    Cost: one frozenset intersection per pair of worked members that
    meet.  More than CLOSURE_CAP sets, counted as the family grows, raise
    ResourceLimitError."""
    n = s.ground_size
    out = list(s.sets)
    members = list(map(frozenset, out))
    seen = set(members)
    if n and frozenset(range(n)) not in seen:
        out.append(tuple(range(n)))
    if len(out) > CLOSURE_CAP:
        raise ResourceLimitError("intersection closure over the size cap")
    work = [a for a in members if 1 < len(a) < n]
    through: list[list[int]] = [[] for _ in range(n)]  # worked members through v
    for i, a in enumerate(work):  # work grows while it is walked
        partners = set()
        for v in a:
            partners.update(through[v])
            through[v].append(i)
        for j in partners:
            c = a & work[j]
            if c not in seen:
                seen.add(c)
                out.append(tuple(sorted(c)))
                if len(out) > CLOSURE_CAP:
                    raise ResourceLimitError("intersection closure over the size cap")
                if len(c) > 1:
                    work.append(c)
    out.sort()
    return SetSystem(n, tuple(out))


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

