"""Independent brute-force oracles used by the tests.

These deliberately share no algorithmic code with the package: exhaustive
enumeration, plain BFS, smallest-last orders by scanning every vertex at
each removal, the plain rational Gauss-Jordan elimination
that the solver's fraction-free null vector must agree with up to a
positive scale, the rounding solver as a rational loop rebuilt every
round, positive semidefiniteness by principal minors, formula
truth one point at a time by recursion, and intersection closures by
enumerating every subfamily, or every subfamily of the sets through each
element.  They are the second route of every dual-route check.
The canonical-form checks of set systems, graphs and orders are plain
pairwise comparisons, since the package's constructors no longer check
what its builders make.
Small constructions that only the tests need live here too, not in the
library: bipartiteness, subdivisions, the bipartite doubling of an
edge-colored graph, weakly induced substructures, and the assembly of a
defined set from its decomposition, evaluated by `eval_brute`.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Iterable

from sparsedisc.formulas import And, Eq, Node, Not, Or, Pred, Term
from sparsedisc.graphs import Graph
from sparsedisc.pointer import PointerStructure, PsiDecomposition
from sparsedisc.setsystems import SetSystem


def canonical_system(s: SetSystem) -> bool:
    """Is s in canonical form: a tuple of nonempty tuples of ints, each
    strictly increasing and inside 0..ground_size-1, the outer tuple
    strictly increasing too (so no set repeats)?"""
    if not isinstance(s.sets, tuple):
        return False
    for i, st in enumerate(s.sets):
        if not isinstance(st, tuple) or not st or any(type(v) is not int for v in st):
            return False
        if any(st[j] >= st[j + 1] for j in range(len(st) - 1)):
            return False
        if st[0] < 0 or st[-1] >= s.ground_size:
            return False
        if i and not s.sets[i - 1] < st:
            return False
    return True


def canonical_graph(g: Graph) -> bool:
    """Is g a simple undirected graph as the package stores it: one tuple
    of ints per vertex, strictly increasing, in range and loop-free, and
    u in the row of v exactly when v is in the row of u?"""
    if g.n < 0 or not isinstance(g.adjacency, tuple) or len(g.adjacency) != g.n:
        return False
    arcs = set()
    for v, row in enumerate(g.adjacency):
        if not isinstance(row, tuple) or any(type(u) is not int for u in row):
            return False
        if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
            return False
        if any(not 0 <= u < g.n or u == v for u in row):
            return False
        arcs.update((v, u) for u in row)
    return all((u, v) in arcs for v, u in arcs)


def is_permutation(position: tuple[int, ...]) -> bool:
    """Does position hold each of 0..len(position)-1 exactly once?"""
    return sorted(position) == list(range(len(position)))


def disc_brute(s: SetSystem) -> int:
    """Minimum over all 2^n colorings of the max |color sum|."""
    if not s.sets:
        return 0
    best = None
    for bits in product((1, -1), repeat=s.ground_size):
        worst = max(abs(sum(bits[v] for v in st)) for st in s.sets)
        if best is None or worst < best:
            best = worst
    return best


def herdisc_brute(s: SetSystem) -> int:
    """Max over all subsets of the exact discrepancy of the trace."""
    best = 0
    for mask in range(2**s.ground_size):
        sub = [v for v in range(s.ground_size) if mask >> v & 1]
        pos = {v: i for i, v in enumerate(sub)}
        traced = SetSystem.from_sets(
            len(sub), ({pos[v] for v in st if v in pos} for st in s.sets)
        )
        best = max(best, disc_brute(traced))
    return best


def eval_disc_brute(s: SetSystem, values: tuple[int, ...]) -> int:
    return max((abs(sum(values[v] for v in st)) for st in s.sets), default=0)


def bfs_distances(g: Graph, source: int, closed: frozenset[int] = frozenset()) -> dict[int, int]:
    """Distances from source in the subgraph induced by source and the
    vertices outside `closed`."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in g.adjacency[u]:
                if w not in dist and w not in closed:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.adjacency[u]:
                    if color[w] == -1:
                        color[w] = 1 - color[u]
                        nxt.append(w)
                    elif color[w] == color[u]:
                        return False
            frontier = nxt
    return True


def subdivide(g: Graph, r: int) -> Graph:
    """Replace each edge by a path through r fresh vertices.

    Fresh vertices are appended in edge-sorted order, path vertices
    consecutive, so fixtures are reproducible.
    """
    edges = []
    fresh = g.n
    for u, v in g.edges():
        chain = [u, *range(fresh, fresh + r), v]
        fresh += r
        edges.extend(zip(chain, chain[1:]))
    return Graph.from_edges(fresh, edges)


def bipartite_double(g: Graph, gamma: dict[tuple[int, int], int]) -> Graph:
    """Bipartite carrier graph with parts V and V x {1,2}: u is adjacent to
    (v,i), encoded as n + 2v + (i-1), iff {u,v} is an edge of color i, so
    every colored neighborhood of g is an ordinary neighborhood here."""
    edges = []
    for u, v in g.edges():
        i = gamma[(u, v)]
        edges.append((u, g.n + 2 * v + (i - 1)))
        edges.append((v, g.n + 2 * u + (i - 1)))
    return Graph.from_edges(3 * g.n, edges)


def girth(g: Graph) -> int | None:
    best = None
    for s in range(g.n):
        dist = {s: 0}
        parent = {s: None}
        frontier = [s]
        while frontier:
            nxt = []
            for u in frontier:
                for w in g.adjacency[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w:
                        cyc = dist[u] + dist[w] + 1
                        best = cyc if best is None else min(best, cyc)
            frontier = nxt
    return best


def wreach_brute(g: Graph, rank: tuple[int, ...], d: int, v: int) -> set[int]:
    """All endpoints of simple paths of length <= d from v on which the
    endpoint is the rank-minimum, by enumerating the paths."""
    out = {v}
    paths = [[v]]
    for _ in range(d):
        nxt = []
        for path in paths:
            for w in g.adjacency[path[-1]]:
                if w in path:
                    continue
                new = path + [w]
                nxt.append(new)
                if rank[w] == min(rank[u] for u in new):
                    out.add(w)
        paths = nxt
    return out


def wcol_brute(g: Graph, d: int) -> int:
    best = None
    for perm in permutations(range(g.n)):
        rank = [0] * g.n
        for r, v in enumerate(perm):
            rank[v] = r
        m = max(len(wreach_brute(g, tuple(rank), d, v)) for v in range(g.n))
        if best is None or m < best:
            best = m
    return best


def degeneracy_brute(g: Graph) -> int:
    """max over non-empty induced subgraphs of the minimum degree."""
    best = 0
    for r in range(1, g.n + 1):
        for sub in combinations(range(g.n), r):
            ss = set(sub)
            best = max(best, min(sum(1 for w in g.adjacency[v] if w in ss) for v in sub))
    return best


def smallest_last_brute(g: Graph) -> tuple[list[int], int]:
    """The smallest-last order (earliest first) and the degeneracy, in
    O(n^2): each step scans every remaining vertex for the least current
    degree (the first one found, so ties go to the lowest index) and
    removes it; the order is the removal sequence reversed."""
    degree = [len(nbrs) for nbrs in g.adjacency]
    remaining = [True] * g.n
    removal = []
    degeneracy = 0
    for _ in range(g.n):
        v = min((u for u in range(g.n) if remaining[u]), key=lambda u: degree[u])
        degeneracy = max(degeneracy, degree[v])
        removal.append(v)
        remaining[v] = False
        for w in g.adjacency[v]:
            degree[w] -= 1
    return removal[::-1], degeneracy


def weakly_induced(m: PointerStructure, subset: Iterable[int]) -> PointerStructure:
    """Substructure on the subset: predicates restrict, and a function
    value escaping the subset becomes a fixed point."""
    sub = sorted(set(subset))
    pos = {v: i for i, v in enumerate(sub)}
    functions = {
        name: tuple(pos.get(f[v], i) for i, v in enumerate(sub))
        for name, f in m.functions.items()
    }
    predicates = {
        name: frozenset(pos[v] for v in p if v in pos) for name, p in m.predicates.items()
    }
    return PointerStructure(len(sub), functions, predicates)


def eval_brute(m: PointerStructure, node: Node, a: tuple, b: tuple) -> bool:
    """The truth of a formula node at the one point (a; b), by recursion
    on the node and plain lookups in the structure's tables."""

    def term(t: Term) -> int:
        value = {"x": a, "y": b}[t.side][t.index]
        for name in t.word:
            value = m.functions[name][value]
        return value

    if isinstance(node, Pred):
        return term(node.term) in m.predicates[node.name]
    if isinstance(node, Eq):
        return term(node.left) == term(node.right)
    if isinstance(node, Not):
        return not eval_brute(m, node.child, a, b)
    if isinstance(node, And):
        return all(eval_brute(m, ch, a, b) for ch in node.children)
    if isinstance(node, Or):
        return any(eval_brute(m, ch, a, b) for ch in node.children)
    raise TypeError(node)


def assemble(m: PointerStructure, dec: PsiDecomposition, b: tuple) -> set[int]:
    """The set defined at parameter b, rebuilt from the decomposition: an
    x-tuple is a member iff, for some plan, its guard, its rho, each psi
    slot word(x_i) = z_r and the negation of each subtracted single-slot
    psi hold, every z_r read as its parameter term.  Each literal is
    decided by eval_brute at the one point; x-tuples are flattened to
    their lexicographic index, as defined_system flattens them."""
    plans = []
    for plan in dec.assembly:
        psi = dec.psis[plan.psi_index] if plan.psi_index is not None else ()
        crosses = [(True, x, y) for x, y in zip(psi, plan.psi_params)]
        crosses += [(False, dec.psis[p][0], y) for p, y in plan.negatives]
        plans.append(
            plan.guard
            + dec.rhos[plan.rho_index]
            + tuple(
                (pos, Eq(Term("x", i, xw), Term("y", j, yw)))
                for pos, (xw, i), (yw, j) in crosses
            )
        )
    return {
        index
        for index, a in enumerate(product(range(m.domain_size), repeat=dec.x_arity))
        if any(all(eval_brute(m, atom, a, b) == pos for pos, atom in lits) for lits in plans)
    }


def closure_brute(s: SetSystem) -> set[tuple[int, ...]]:
    """The ground set plus the intersection of every nonempty subfamily of
    the sets, by enumerating all 2^m - 1 subfamilies; empty intersections
    are dropped, as the canonical form drops them."""
    out = {tuple(range(s.ground_size))} if s.ground_size else set()
    for r in range(1, len(s.sets) + 1):
        for family in combinations(s.sets, r):
            common = set(family[0]).intersection(*family[1:])
            if common:
                out.add(tuple(sorted(common)))
    return out


def closure_by_element(s: SetSystem) -> set[tuple[int, ...]]:
    """The ground set plus, for each element v, the intersection of every
    subfamily of the sets through v, as bit masks: a nonempty intersection
    contains some v, so it is one of the at most 2^degree intersections of
    sets through v.  Exact like closure_brute, but its cost grows with
    2^degree per element rather than 2^m, so it reaches far larger m."""
    n = s.ground_size
    ground = (1 << n) - 1
    through: list[list[int]] = [[] for _ in range(n)]
    for st in s.sets:
        mask = sum(1 << v for v in st)
        for v in st:
            through[v].append(mask)
    closed = {ground} if n else set()
    for masks in through:
        meets = {ground}
        for mask in masks:
            meets |= {c & mask for c in meets}
        closed |= meets
    return {tuple(v for v in range(n) if c >> v & 1) for c in closed}


def approx_error_brute(s: SetSystem, sample: set[int]) -> Fraction:
    worst = Fraction(0)
    for st in s.sets:
        hit = sum(1 for v in st if v in sample)
        worst = max(worst, abs(Fraction(hit, len(sample)) - Fraction(len(st), s.ground_size)))
    return worst


def null_vector_reference(rows: list[list[int]], ncols: int) -> list[Fraction]:
    """Canonical null vector of a wide 0/1 matrix: Gauss-Jordan over exact
    rationals, columns left to right, the first unused row with a nonzero
    entry as pivot; the first pivotless column yields its canonical basis
    vector (coefficient 1 there, 0 on the other free columns)."""
    work = [[Fraction(e) for e in row] for row in rows]
    used = [False] * len(work)
    pivots: list[tuple[int, int]] = []
    for j in range(ncols):
        sel = next((i for i in range(len(work)) if not used[i] and work[i][j]), None)
        if sel is None:
            nu = [Fraction(0)] * ncols
            nu[j] = Fraction(1)
            for i, pc in pivots:
                nu[pc] = -work[i][j]
            return nu
        piv = work[sel][j]
        work[sel] = [e / piv for e in work[sel]]
        srow = work[sel]
        for i in range(len(work)):
            if i != sel and work[i][j]:
                f = work[i][j]
                work[i] = [a - f * b for a, b in zip(work[i], srow)]
        used[sel] = True
        pivots.append((sel, j))
    raise AssertionError("wide matrix must have a free column")


def beck_fiala_reference(s: SetSystem) -> tuple[tuple[int, ...], int]:
    """Iterated rounding as a plain rational loop, every round rebuilt from
    scratch: the coloring and the round count of the 2t - 1 solver.

    Elements in no set start at +1.  Each round drops the sets with at
    most t unfrozen elements; an unfrozen element in no remaining set is
    rounded to +1 if x >= 0, else -1; then x moves along the canonical null
    vector of the remaining sets restricted to the first r + 1 covered
    elements, by the least step that brings some coordinate to +-1.
    """
    n = s.ground_size
    t = max((sum(1 for st in s.sets if v in st) for v in range(n)), default=0)
    x = [Fraction(0)] * n
    frozen = [not any(v in st for st in s.sets) for v in range(n)]
    for v in range(n):
        if frozen[v]:
            x[v] = Fraction(1)
    rounds = 0
    while not all(frozen):
        rounds += 1
        active = [st for st in s.sets if sum(1 for v in st if not frozen[v]) > t]
        for st in active:
            assert sum(x[v] for v in st) == 0
        covered_set = {v for st in active for v in st if not frozen[v]}
        covered = sorted(covered_set)
        for v in range(n):
            if not frozen[v] and v not in covered_set:
                x[v] = Fraction(1) if x[v] >= 0 else Fraction(-1)
                frozen[v] = True
        if not covered:
            break
        cols = covered[: len(active) + 1]
        rows = [[1 if v in st else 0 for v in cols] for st in active]
        nu = null_vector_reference(rows, len(cols))
        lam = None
        for j, v in enumerate(cols):
            if nu[j]:
                step = ((1 if nu[j] > 0 else -1) - x[v]) / nu[j]
                if lam is None or step < lam:
                    lam = step
        assert lam is not None and lam > 0
        for j, v in enumerate(cols):
            x[v] += lam * nu[j]
            if abs(x[v]) == 1:
                frozen[v] = True
    return tuple(int(v) for v in x), rounds


def _det(a: list[list[Fraction]]) -> Fraction:
    """Determinant by rational Gaussian elimination with row swaps."""
    a = [list(row) for row in a]
    det = Fraction(1)
    for j in range(len(a)):
        sel = next((i for i in range(j, len(a)) if a[i][j]), None)
        if sel is None:
            return Fraction(0)
        if sel != j:
            a[j], a[sel] = a[sel], a[j]
            det = -det
        det *= a[j][j]
        for i in range(j + 1, len(a)):
            f = a[i][j] / a[j][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return det


def psd_brute(matrix: list[list[int]]) -> bool:
    """A symmetric matrix is positive semidefinite iff every principal
    minor, not only every leading one, is non-negative."""
    n = len(matrix)
    return all(
        _det([[Fraction(matrix[i][j]) for j in idx] for i in idx]) >= 0
        for r in range(1, n + 1)
        for idx in combinations(range(n), r)
    )
