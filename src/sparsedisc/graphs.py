"""Simple undirected graphs: representation, I/O, d-balls (one BFS per
vertex, serving both graph powers and the power certificate), powers,
and the generator families used as fixtures (including the Sylvester
bipartite graphs that exhibit sqrt(n) neighborhood discrepancy).  Every
vertex count read or generated, and every generated candidate edge count,
is checked against INPUT_CAP before anything is built.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations
from typing import IO, Iterable, Iterator, Optional

import numpy as np

from .errors import INPUT_CAP, ParseError, ResourceLimitError, check_input_size
from .rng import SplitMix64

HADAMARD_MAX_P = 13  # 2^26 matrix entries is the desk-scale cap

FAMILIES = (
    "path",
    "cycle",
    "grid",
    "complete",
    "complete_bipartite",
    "gnp",
    "all_d_subsets",
)


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1.

    adjacency[v] is the sorted tuple of neighbors of v; the structure is
    symmetric, loop-free and duplicate-free by construction.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0 or len(self.adjacency) != self.n:
            raise ValueError("adjacency length must equal n")
        for v, nbrs in enumerate(self.adjacency):
            if list(nbrs) != sorted(set(nbrs)):
                raise ValueError(f"neighbor list of {v} not sorted/deduplicated")
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise ValueError(f"neighbor {u} of {v} out of range")
                if u == v:
                    raise ValueError(f"self-loop at vertex {v}")
                back = self.adjacency[u]
                i = bisect_left(back, v)
                if i == len(back) or back[i] != v:
                    raise ValueError(f"edge {{{v},{u}}} not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]

    def edge_count(self) -> int:
        return sum(len(a) for a in self.adjacency) // 2


def read_edge_list(stream: IO[str]) -> Graph:
    """Parse the textual edge-list format.

    Lines starting with '#' are comments; the first non-comment line must
    be "n <count>"; every following line is one edge "u v".
    """
    n: Optional[int] = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if n is None:
            if len(parts) != 2 or parts[0] != "n":
                raise ParseError(f"expected header 'n <count>' at line {lineno}")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex count at line {lineno}") from None
            if n < 0:
                raise ParseError(f"negative vertex count at line {lineno}")
            check_input_size("edge-list vertex count", n)
            continue
        if len(parts) != 2:
            raise ParseError(f"malformed edge at line {lineno}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"malformed edge at line {lineno}") from None
        if u == v:
            raise ParseError(f"self-loop at line {lineno}")
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex index out of range at line {lineno}")
        edges.append((u, v))
    if n is None:
        raise ParseError("missing 'n <count>' header")
    return Graph.from_edges(n, edges)


def write_edge_list(g: Graph, stream: IO[str]) -> None:
    stream.write(f"n {g.n}\n")
    for u, v in g.edges():
        stream.write(f"{u} {v}\n")


def balls(g: Graph, d: int) -> Iterator[list[int]]:
    """For each vertex v in turn, the vertices at distance 1..d from v.

    One BFS per vertex, all sharing one stamp list (seen[w] == v once v's
    BFS has reached w); a BFS stops as soon as its frontier is empty, so
    the cost does not grow with d past the eccentricity.
    """
    adj = g.adjacency
    seen = [-1] * g.n
    for v in range(g.n):
        seen[v] = v
        frontier = [v]
        ball: list[int] = []
        for _ in range(d):
            nxt = []
            for u in frontier:
                for w in adj[u]:
                    if seen[w] != v:
                        seen[w] = v
                        nxt.append(w)
            if not nxt:
                break
            ball += nxt
            frontier = nxt
        yield ball


def graph_power(g: Graph, d: int) -> Graph:
    """G^d: edges between distinct vertices at graph distance <= d."""
    if d < 1:
        raise ValueError("graph power needs d >= 1")
    if d == 1:
        return g
    return Graph(g.n, tuple(tuple(sorted(b)) for b in balls(g, d)))


def _check_order_exponent(p: int) -> None:
    if p < 0:
        raise ValueError("order exponent must be non-negative")
    if p > HADAMARD_MAX_P:
        raise ResourceLimitError(f"hadamard order exponent {p} exceeds cap {HADAMARD_MAX_P}")


def hadamard(p: int) -> np.ndarray:
    """The 2^p x 2^p int8 matrix with +-1 entries and orthogonal rows, by
    the Kronecker-product recursion H_{p+1} = H_1 (x) H_p, H_0 = (1)."""
    _check_order_exponent(p)
    h1 = np.array([[1, 1], [1, -1]], dtype=np.int8)
    h = np.array([[1]], dtype=np.int8)
    for _ in range(p):
        h = np.kron(h1, h)
    return h


def sylvester_graph(p: int) -> Graph:
    """Bipartite graph whose bi-adjacency is hadamard(p) with -1 -> 0.

    Vertex convention: rows are 0..2^p-1, columns are 2^p..2^{p+1}-1.
    The sizes depend only on p, so they are checked before h is built.
    """
    _check_order_exponent(p)
    m = 1 << p
    _check_family_size(2 * m, m * (m + 1) // 2)  # the +1 entries of h
    h = hadamard(p)
    edges = [(int(i), int(m + j)) for i, j in zip(*np.nonzero(h == 1))]
    return Graph.from_edges(2 * m, edges)


def _family_arity_error(name: str, params: list[int]) -> ValueError:
    return ValueError(f"bad parameters {params} for family {name!r}")


def _check_family_size(vertices: int, candidate_edges: int) -> None:
    check_input_size("generated vertex count", vertices)
    check_input_size("generated candidate edge count", candidate_edges)


def _subset_count(n: int, d: int) -> int:
    """C(n, d), or the first C(n, i) past INPUT_CAP on the way to it: C(n, i)
    grows with i up to n / 2, so an early stop is already over the cap."""
    count = 1
    for i in range(min(d, n - d)):
        if count > INPUT_CAP:
            break
        count = count * (n - i) // (i + 1)
    return count


def generate_family(name: str, params: list[int], seed: int = 0) -> Graph:
    """Deterministic generator for the named graph family."""
    if name == "path":
        if len(params) != 1 or params[0] < 0:
            raise _family_arity_error(name, params)
        n = params[0]
        _check_family_size(n, n)
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if name == "cycle":
        if len(params) != 1 or params[0] < 3:
            raise _family_arity_error(name, params)
        n = params[0]
        _check_family_size(n, n)
        return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
    if name == "grid":
        if len(params) != 2 or min(params) < 1:
            raise _family_arity_error(name, params)
        rows, cols = params
        _check_family_size(rows * cols, 2 * rows * cols)
        edges = []
        for r in range(rows):
            for c in range(cols):
                if r + 1 < rows:
                    edges.append((r * cols + c, (r + 1) * cols + c))
                if c + 1 < cols:
                    edges.append((r * cols + c, r * cols + c + 1))
        return Graph.from_edges(rows * cols, edges)
    if name == "complete":
        if len(params) != 1 or params[0] < 0:
            raise _family_arity_error(name, params)
        n = params[0]
        _check_family_size(n, n * (n - 1) // 2)
        return Graph.from_edges(n, list(combinations(range(n), 2)))
    if name == "complete_bipartite":
        if len(params) != 2 or min(params) < 0:
            raise _family_arity_error(name, params)
        a, b = params
        _check_family_size(a + b, a * b)
        return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
    if name == "gnp":
        if len(params) != 3 or params[0] < 0 or params[2] <= 0 or not 0 <= params[1] <= params[2]:
            raise _family_arity_error(name, params)
        n, num, den = params
        _check_family_size(n, n * (n - 1) // 2)
        rng = SplitMix64(seed)
        edges = [(u, v) for u, v in combinations(range(n), 2) if rng.bernoulli(num, den)]
        return Graph.from_edges(n, edges)
    if name == "all_d_subsets":
        if len(params) != 2 or params[0] < 0 or not 0 <= params[1] <= params[0]:
            raise _family_arity_error(name, params)
        n, d = params
        count = _subset_count(n, d)
        _check_family_size(n + count, d * count)
        subsets = list(combinations(range(n), d))
        edges = [(u, n + i) for i, sub in enumerate(subsets) for u in sub]
        return Graph.from_edges(n + len(subsets), edges)
    raise ValueError(f"unknown family {name!r}")


def random_degenerate_graph(n: int, d: int, seed: int = 0) -> Graph:
    """Random d-degenerate graph: vertex i attaches to up to d earlier vertices."""
    rng = SplitMix64(seed)
    edges = []
    for v in range(1, n):
        k = min(v, rng.randrange(d + 1))
        for u in rng.sample(list(range(v)), k):
            edges.append((u, v))
    return Graph.from_edges(n, edges)

