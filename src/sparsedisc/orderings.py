"""Linear orders on graphs: smallest-last degeneracy orders, orientations
of bounded out-degree, weak reachability, and weak coloring numbers.

Weak reachability is computed in one pass for all vertices and radii: a
bounded BFS from each root z through the vertices ranked after z finds
every v that weakly reaches z, with the least radius (the standard
polynomial method; Nadara, Pilipczuk, Rabinovich, Reidl and Siebertz,
*Empirical evaluation of approaches for computing weak coloring
numbers*).  Weak coloring numbers are read from that pass, per order or
exactly by exhaustion over orderings.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

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


@dataclass(frozen=True)
class Orientation:
    """One arc per undirected edge; out_neighbors[v] sorted."""

    out_neighbors: tuple[tuple[int, ...], ...]
    max_out_degree: int

    def in_neighbors(self) -> list[list[int]]:
        n = len(self.out_neighbors)
        inc: list[list[int]] = [[] for _ in range(n)]
        for u, outs in enumerate(self.out_neighbors):
            for v in outs:
                inc[v].append(u)
        return [sorted(x) for x in inc]


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


def orient_along(g: Graph, order: LinearOrder) -> Orientation:
    """Each edge points from the later vertex in the order to the earlier."""
    if len(order.position) != g.n:
        raise ValueError("order size does not match graph")
    pos = order.position
    outs = tuple(
        tuple(sorted(w for w in g.adjacency[v] if pos[w] < pos[v])) for v in range(g.n)
    )
    return Orientation(outs, max((len(o) for o in outs), default=0))


def weak_reach(g: Graph, order: LinearOrder, d: int) -> list[dict[int, int]]:
    """Weak reachability of every vertex at every radius up to d, in one pass.

    rows[v][z] is the least i <= d with z in WReach_i[v]: z is reachable
    from v by a path of length <= i on which z is the order-minimum vertex
    (rows[v][v] == 0).  Equivalently v is within i steps of z in the
    subgraph induced by z and the vertices ranked after z, so one BFS of
    depth <= d per root z serves every v, at O(sum_v |WReach_d[v]| * deg)
    total cost; a BFS ends once its frontier is empty, whatever d is.
    """
    if d < 0:
        raise ValueError("radius must be non-negative")
    if len(order.position) != g.n:
        raise ValueError("order size does not match graph")
    pos = order.position
    adj = g.adjacency
    rows: list[dict[int, int]] = [{v: 0} for v in range(g.n)]
    for z in range(g.n):
        # rows[w] holds z exactly when this BFS has reached w
        rank = pos[z]
        frontier = [z]
        for i in range(1, d + 1):
            nxt = []
            for x in frontier:
                for w in adj[x]:
                    if pos[w] > rank:
                        row = rows[w]
                        if z not in row:
                            row[z] = i
                            nxt.append(w)
            if not nxt:
                break
            frontier = nxt
    return rows


def wcol_from_order(g: Graph, order: LinearOrder, d: int) -> int:
    """max_v |WReach_d[v]|; an upper bound on the weak coloring number
    realized by this particular order."""
    return max((len(row) for row in weak_reach(g, order, d)), default=0)


def wcol_exact(g: Graph, d: int, max_n: int = WCOL_EXACT_MAX_N) -> int:
    """Exact weak coloring number by exhausting all n! orders."""
    if g.n > max_n:
        raise ResourceLimitError(f"wcol_exact capped at n <= {max_n}, got n = {g.n}")
    if g.n == 0:
        return 0
    best = g.n + 1
    for perm in permutations(range(g.n)):
        order = LinearOrder.from_sequence(list(perm))
        best = min(best, wcol_from_order(g, order, d))
        if best == 1:
            break
    return best
