"""Linear orders on graphs: smallest-last degeneracy orders, orientations
of bounded out-degree, weak reachability, reach profiles and weak
coloring numbers.

Weak reachability is computed in one pass for all vertices and radii by
one rule, the closed vertex: the roots run in rank order, and each is
closed once its bounded BFS (`graphs.bfs_levels`, which never enters a
closed vertex) is done.  So root z's BFS runs through the vertices ranked
after z and finds every v that weakly reaches z, with the least radius
(the standard polynomial method; Nadara, Pilipczuk, Rabinovich, Reidl and
Siebertz, *Empirical evaluation of approaches for computing weak coloring
numbers*).  The pass is root-major: levels[z][i] lists the vertices at
BFS depth i from z, so every consumer (the reach profile, the weak-reach
stars, and at radius 1 the in-neighborhoods of the orientation along the
order) reads it without a transpose.  The exact weak coloring number runs
the per-root BFS too, in a branch and bound over order prefixes, with the
placed vertices closed: a root's BFS depends only on which vertices are
placed before it.

The weak coloring number of one order needs only the sizes |WReach_i[v]|.
On the masks (`graphs.fits_masks`) M_i = max_v |WReach_i[v]| is the
largest popcount after round i of `graphs._reach_masks`, and one slot
keeps the last graph and order's pass suspended, so wcol at growing radii
costs one pass; above, `reach_profile` counts them from one `weak_reach`
pass.  `wcol_profile` reads M_0..M_d by the route the size rule picks, and
`wcol_from_order` reads its last entry.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain, islice, zip_longest

from . import graphs
from .errors import ResourceLimitError
from .graphs import Graph, bfs_levels

WCOL_EXACT_MAX_N = 9


@dataclass(frozen=True)
class LinearOrder:
    """position[v] is the rank of vertex v; smaller rank = earlier.

    The position is a permutation of 0..n-1, which the constructor does
    not check: an order read from outside enters through the CLI's order
    reader, which checks it, and `degeneracy_order` removes every vertex
    exactly once (`tests/test_canonical.py` checks its output).
    """

    position: tuple[int, ...]

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

    One min-heap of vertex indices per degree, with lazy deletion: a
    vertex is pushed onto the heap of its new degree whenever its degree
    drops, and a head whose degree is not that heap's is skipped.  A
    cursor k names the heap to pop.  Every live degree is at least k, and
    a removal at degree k lowers each live degree by at most one, so after
    it the cursor moves down by at most one, and up past heaps found
    empty.  (So the skipped heads are those of removed vertices: a live
    vertex's older entries sit in heaps above its degree, which the cursor
    reaches only after the vertex is gone.)
    """
    adj = g.adjacency
    degs = [len(nbrs) for nbrs in adj]
    heaps: list[list[int]] = [[] for _ in range(max(degs, default=0) + 1)]
    for v, k in enumerate(degs):
        heaps[k].append(v)  # ascending, so already a heap
    removal: list[int] = []
    degeneracy = k = 0
    while len(removal) < g.n:
        heap = heaps[k]
        while heap and degs[heap[0]] != k:
            heappop(heap)
        if not heap:
            k += 1
            continue
        v = heappop(heap)
        degs[v] = -1  # removed: matches no heap's degree
        removal.append(v)
        if k > degeneracy:
            degeneracy = k
        for w in adj[v]:
            dw = degs[w] - 1
            if dw >= 0:  # w is live, so its degree counted v
                degs[w] = dw
                heappush(heaps[dw], w)
        if k:
            k -= 1
    return LinearOrder.from_sequence(removal[::-1]), degeneracy


def orient_along(g: Graph, order: LinearOrder) -> tuple[tuple[int, ...], ...]:
    """Each edge points from the later vertex in the order to the earlier:
    the sorted out-neighbors of every vertex.  A vertex's in-neighbors are
    its later neighbors, level 1 of its `weak_reach` levels."""
    if len(order.position) != g.n:
        raise ValueError("order size does not match graph")
    pos = order.position
    return tuple(tuple(w for w in g.adjacency[v] if pos[w] < pos[v]) for v in range(g.n))


def _check_reach_args(g: Graph, order: LinearOrder, d: int) -> None:
    if d < 0:
        raise ValueError("radius must be non-negative")
    if len(order.position) != g.n:
        raise ValueError("order size does not match graph")


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
    _check_reach_args(g, order, d)
    seen, levels = [-1] * g.n, [[]] * g.n
    for rank, z in enumerate(order.sequence()):
        levels[z] = bfs_levels(g.adjacency, z, d, seen, rank)
        seen[z] = g.n  # closed: above every later root's stamp
    return levels


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


# The mask route's one slot: a graph and an order, matched by identity (both
# are frozen), their suspended `graphs._reach_masks` pass (two ceil(n/64) x n
# matrices, the masks and the prefix masks: 256 KB at MASK_MAX_N), and the
# largest popcount of each round drawn so far, M_0, M_1, ...
_last: tuple = (None, None, iter(()), [])


def _mask_maxima(g: Graph, order: LinearOrder, d: int) -> list[int]:
    """M_0..M_d, or M_0..M_r when round r is the last that changes
    anything (r < d): M past r equals M_r."""
    global _last
    if _last[0] is not g or _last[1] is not order:
        _last = (g, order, graphs._reach_masks(g, order.position), [])
    _, _, rounds, maxima = _last
    for _, sizes in islice(rounds, max(0, d + 1 - len(maxima))):
        maxima.append(int(sizes.max(initial=0)))
    return maxima


def wcol_from_order(g: Graph, order: LinearOrder, d: int) -> int:
    """max_v |WReach_d[v]|; an upper bound on the weak coloring number
    realized by this particular order: the last entry of `wcol_profile`
    at radius min(d, n), since weak reach runs along simple paths, which
    have fewer than n edges."""
    return wcol_profile(g, order, min(d, g.n))[-1]


def wcol_profile(g: Graph, order: LinearOrder, d: int) -> tuple[int, ...]:
    """wcol_from_order(g, order, i) for i = 0..d, from one reach pass: the
    mask rounds, or above the size rule one `weak_reach` pass."""
    _check_reach_args(g, order, d)
    if not graphs.fits_masks(g):
        # reach_profile's M_0 is 1, where an empty graph's wcol is 0
        return reach_profile(weak_reach(g, order, d), d) if g.n else (0,) * (d + 1)
    maxima = _mask_maxima(g, order, d)
    return tuple(maxima[: d + 1] + maxima[-1:] * (d + 1 - len(maxima)))


def wcol_exact(g: Graph, d: int, max_n: int = WCOL_EXACT_MAX_N) -> int:
    """Exact weak coloring number by branch and bound over order prefixes.

    Vertices are placed one at a time; the unplaced ones rank after every
    placed one, and a placed vertex is closed.  Root z's BFS runs through
    the unplaced vertices, so it depends only on which vertices were placed
    before z: placing z fixes its contribution to |WReach_d[v]| for every
    v.  Counts only grow along a branch, so a branch is cut once any count
    reaches the best value of a complete order so far.
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
    closed = [0] * n  # 1 once placed; each BFS runs on a copy with stamp 1
    counts = [0] * n
    best = n + 1

    def place(k: int) -> None:
        nonlocal best
        if k == n:
            best = max(counts)
            return
        for z in range(n):
            if closed[z]:
                continue
            reached = list(chain.from_iterable(bfs_levels(adj, z, d, closed[:], 1)))
            closed[z] = 1
            for v in reached:
                counts[v] += 1
            # z's count is final; every other reached vertex is unplaced
            # and will still count itself
            if counts[z] < best and all(counts[v] + 1 < best for v in reached[1:]):
                place(k + 1)
            for v in reached:
                counts[v] -= 1
            closed[z] = 0

    place(0)
    return best
