"""Linear orders on graphs: smallest-last degeneracy orders, orientations
of bounded out-degree, weak reachability, reach profiles and weak
coloring numbers.

Weak reachability is computed in one pass for all vertices and radii: a
bounded BFS from each root z through the vertices ranked after z finds
every v that weakly reaches z, with the least radius (the standard
polynomial method; Nadara, Pilipczuk, Rabinovich, Reidl and Siebertz,
*Empirical evaluation of approaches for computing weak coloring
numbers*).  The pass is root-major: levels[z][i] lists the vertices at
BFS depth i from z, so every consumer (the reach profile, the weak-reach
stars, wcol, and at radius 1 the in-neighborhoods of the orientation
along the order) reads it without a transpose.  The per-root BFS is the
only weak-reach kernel: the exact weak coloring number runs it too, in a
branch and bound over order prefixes, because a root's BFS depends only
on which vertices are placed before it.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, zip_longest
from typing import Sequence

from .errors import ResourceLimitError
from .graphs import Graph

WCOL_EXACT_MAX_N = 9


@dataclass(frozen=True)
class LinearOrder:
    """position[v] is the rank of vertex v; smaller rank = earlier."""

    position: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.position) != list(range(len(self.position))):
            raise ValueError("position must be a permutation of 0..n-1")

    @classmethod
    def from_sequence(cls, seq: list[int]) -> "LinearOrder":
        pos = [0] * len(seq)
        for rank, v in enumerate(seq):
            pos[v] = rank
        return cls(tuple(pos))

    def sequence(self) -> list[int]:
        seq = [0] * len(self.position)
        for v, rank in enumerate(self.position):
            seq[rank] = v
        return seq

    def serialize(self) -> str:
        return " ".join(str(v) for v in self.sequence())


def degeneracy_order(g: Graph) -> tuple[LinearOrder, int]:
    """Smallest-last order: repeatedly remove a minimum-degree vertex
    (ties to the lowest index); the reversed removal sequence is the order
    and the max degree at removal time is exactly the degeneracy.
    """
    adj = [set(nbrs) for nbrs in g.adjacency]
    alive = set(range(g.n))
    # bucket queue over current degrees
    removal: list[int] = []
    degeneracy = 0
    degs = [len(a) for a in adj]
    buckets: list[set[int]] = [set() for _ in range(g.n + 1)]
    for v in alive:
        buckets[degs[v]].add(v)
    cursor = 0
    for _ in range(g.n):
        while cursor < len(buckets) and not buckets[cursor]:
            cursor += 1
        v = min(buckets[cursor])
        buckets[cursor].discard(v)
        degeneracy = max(degeneracy, degs[v])
        removal.append(v)
        alive.discard(v)
        for w in adj[v]:
            if w in alive:
                buckets[degs[w]].discard(w)
                degs[w] -= 1
                buckets[degs[w]].add(w)
                if degs[w] < cursor:
                    cursor = degs[w]
        for w in adj[v]:
            adj[w].discard(v)
        adj[v].clear()
    return LinearOrder.from_sequence(list(reversed(removal))), degeneracy


def orient_along(g: Graph, order: LinearOrder) -> tuple[tuple[int, ...], ...]:
    """Each edge points from the later vertex in the order to the earlier:
    the sorted out-neighbors of every vertex.  A vertex's in-neighbors are
    its later neighbors, level 1 of its `weak_reach` levels."""
    if len(order.position) != g.n:
        raise ValueError("order size does not match graph")
    pos = order.position
    return tuple(tuple(w for w in g.adjacency[v] if pos[w] < pos[v]) for v in range(g.n))


def _root_levels(
    adj: tuple[tuple[int, ...], ...], pos: Sequence[int], z: int, d: int, seen: list[int]
) -> list[list[int]]:
    """BFS levels 0..<=d of root z in the subgraph induced by z and the
    vertices ranked after z (pos[w] > pos[z]); level 0 is [z].

    seen[w] == z marks w as reached, so roots share one stamp list.  The
    BFS ends once its frontier is empty, whatever d is.
    """
    rank = pos[z]
    frontier = [z]
    levels = [frontier]
    for _ in range(d):
        nxt = []
        for x in frontier:
            for w in adj[x]:
                if pos[w] > rank and seen[w] != z:
                    seen[w] = z
                    nxt.append(w)
        if not nxt:
            break
        levels.append(nxt)
        frontier = nxt
    return levels


def weak_reach(g: Graph, order: LinearOrder, d: int) -> list[list[list[int]]]:
    """Weak reachability of every vertex at every radius up to d, in one pass.

    Root-major levels: levels[z][i] lists the vertices v whose least radius
    to z is i, i.e. z is in WReach_i[v] but not in WReach_{i-1}[v]: z is
    reachable from v by a path of length <= i on which z is the
    order-minimum vertex (levels[z][0] == [z]).  Equivalently v is within
    i steps of z in the subgraph induced by z and the vertices ranked after
    z, so one BFS of depth <= d per root z serves every v, at
    O(sum_v |WReach_d[v]| * deg) total cost.  Trailing empty levels are
    not stored: len(levels[z]) - 1 is the depth of z's BFS.
    """
    if d < 0:
        raise ValueError("radius must be non-negative")
    if len(order.position) != g.n:
        raise ValueError("order size does not match graph")
    pos = order.position
    adj = g.adjacency
    seen = [-1] * g.n
    return [_root_levels(adj, pos, z, d, seen) for z in range(g.n)]


def reach_profile(levels: list[list[list[int]]], d: int) -> tuple[int, ...]:
    """M_i = max_v |WReach_i[v]| for i = 0..d (M_0 is always 1), read from
    the root-major levels of `weak_reach(g, order, d)`: one count per
    vertex, grown by each depth across all roots.  M_i for i past the
    deepest level found equals M at that level."""
    counts: Counter[int] = Counter()
    profile = []
    for layers in zip_longest(*levels, fillvalue=()):
        counts.update(chain.from_iterable(layers))
        profile.append(max(counts.values(), default=1))
    profile = profile or [1]
    return tuple(profile + profile[-1:] * (d + 1 - len(profile)))


def wcol_from_order(g: Graph, order: LinearOrder, d: int) -> int:
    """max_v |WReach_d[v]|; an upper bound on the weak coloring number
    realized by this particular order.  |WReach_d[v]| is the number of
    roots whose levels hold v."""
    counts = Counter(chain.from_iterable(chain.from_iterable(weak_reach(g, order, d))))
    return max(counts.values(), default=0)


def wcol_exact(g: Graph, d: int, max_n: int = WCOL_EXACT_MAX_N) -> int:
    """Exact weak coloring number by branch and bound over order prefixes.

    Vertices are placed one at a time; the unplaced ones rank after every
    placed one.  Root z's BFS runs through the vertices ranked after z, so
    it depends only on which vertices were placed before z: placing z fixes
    its contribution to |WReach_d[v]| for every v.  Counts only grow along
    a branch, so a branch is cut once any count reaches the best value of a
    complete order so far.
    """
    if d < 0:
        raise ValueError("radius must be non-negative")
    if max_n < 0:
        raise ValueError(f"wcol_exact cap must be non-negative, got {max_n}")
    if g.n > max_n:
        raise ResourceLimitError(f"wcol_exact capped at n <= {max_n}, got n = {g.n}")
    n = g.n
    if n == 0:
        return 0
    adj = g.adjacency
    rank = [n] * n  # n = unplaced, after every placed vertex
    counts = [0] * n
    best = n + 1

    def place(k: int) -> None:
        nonlocal best
        if k == n:
            best = max(counts)
            return
        for z in range(n):
            if rank[z] < n:
                continue
            rank[z] = k
            reached = list(chain.from_iterable(_root_levels(adj, rank, z, d, [-1] * n)))
            for v in reached:
                counts[v] += 1
            # z's count is final; every other reached vertex is unplaced
            # and will still count itself
            if counts[z] < best and all(counts[v] + 1 < best for v in reached[1:]):
                place(k + 1)
            for v in reached:
                counts[v] -= 1
            rank[z] = n

    place(0)
    return best
