"""Simple undirected graphs: representation, I/O, bounded reach, powers,
and the generator families used as fixtures (including the Sylvester
bipartite graphs that exhibit sqrt(n) neighborhood discrepancy).  Every
vertex count read or generated, and every generated candidate edge count,
is checked against INPUT_CAP before anything is built.

Bounded reach has one BFS and one mask kernel.  `bfs_levels` runs a BFS
from one root with one rule: it enters only open vertices, those whose
entry in a shared list is below its stamp, and stamps what it reaches.
Graph powers and the ball sums stamp each root with its index, so every
vertex is open to every root; weak reach (`orderings`) runs its roots in
rank order and closes each finished one, so a root's BFS runs through
the vertices ranked after it.  `_reach_masks` moves every source at
once, one round per yield, over the adjacency in compressed sparse rows
(`Graph.neighbor_arrays`, built on first use); with an order's positions
its popcounts are the sizes |WReach_i[v]|, which `orderings` reads round
by round for wcol at growing radii and `power_coloring` for its reach
profile, with the weak-reach stars read off the same rounds' unpacked
rows.  `ball_sums` sums signs over the closed d-balls.  The masks'
memory grows like n^2 bits and their work like d * m * n / 64 word
operations, hence the size rule `fits_masks`, which every reader
follows.  BFS time / mask time on
random_degenerate_graph(n, p, 0) of `orderings.wcol_from_order` with the
smallest-last order (wcol: on the BFS one `weak_reach` pass counted by
`reach_profile`) and of `ball_sums` with random signs (balls), from
scripts/reach_kernel_ratios.py (best of 3 calls; above 1 the masks win):

    n     p  reader    r=1    r=2    r=3    r=4
    1024  3  wcol     2.16   1.76   2.53   4.02
    1024  3  balls    1.67   2.97   6.87  16.95
    1024  6  wcol     1.73   3.47   8.78  18.70
    1024  6  balls    1.86   5.90  24.40  69.24
    2048  3  wcol     0.93   1.08   1.44   2.29
    2048  3  balls    1.33   2.13   5.00  11.98
    2048  6  wcol     1.34   2.16   5.21  14.08
    2048  6  balls    1.20   3.47  15.49  55.58

Three runs of the script's table (n = 512, 1024, 2048, 4096) each end
"masks win every cell up to n = 1024", the value MASK_MAX_N holds: at
n = 2048 the BFS won a wcol cell at radius 1 in two of them (0.79-0.93x),
and at n = 4096 it wins the ball sums at radius 1 and wcol cells at radii
1-3.  The rule stays on n alone: every benchmark workload has n <= 400,
far below the line, so a rule that also reads the radius waits until a
workload runs above it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, islice
from typing import IO, Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import INPUT_CAP, ParseError, ResourceLimitError, check_input_size
from .rng import SplitMix64

HADAMARD_MAX_P = 13  # 2^26 matrix entries is the desk-scale cap
MASK_MAX_N = 1024  # largest vertex count served by _reach_masks

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

    adjacency[v] is the sorted tuple of neighbors of v, and the structure
    is symmetric, loop-free and duplicate-free.  The constructor does not
    check this: outside data enters through `from_edges` and
    `read_edge_list`, which reject n < 0, out-of-range ends and loops, and
    the package's one direct call, `graph_power`, builds its rows as the
    sorted BFS balls of a symmetric graph, so they are symmetric too.
    `tests/test_canonical.py` checks every builder's output.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError(f"negative vertex count {n}")
        nbrs: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            nbrs[u].add(v)
            nbrs[v].add(u)
        return cls(n, tuple(tuple(sorted(s)) for s in nbrs))

    @cached_property
    def neighbor_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency in compressed sparse rows, for `_reach_masks`: all
        neighbor lists end to end, and the offset at which each vertex's
        list starts.  An isolated vertex lists the one index n, which
        `_reach_masks` keeps as a row of zeros, so no list is empty."""
        lists = [nbrs or (self.n,) for nbrs in self.adjacency]
        degs = np.fromiter(map(len, lists), dtype=np.intp, count=self.n)
        nbr = np.fromiter(chain.from_iterable(lists), dtype=np.intp, count=int(degs.sum()))
        return nbr, np.cumsum(degs) - degs

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


def bfs_levels(
    adj: Sequence[Sequence[int]], z: int, d: int, seen: list[int], stamp: int
) -> list[list[int]]:
    """BFS levels 0..<=d of root z through the open vertices, those w with
    seen[w] < stamp; level 0 is [z].

    Every vertex reached, z included, ends with seen[w] == stamp, so roots
    run with rising stamps share one list, and a vertex whose entry is set
    at or above every later stamp is closed to every later BFS.  The BFS
    ends once its frontier is empty, so the cost does not grow with d past
    the eccentricity.
    """
    seen[z] = stamp
    levels = [[z]]
    for _ in range(d):
        nxt = []
        for x in levels[-1]:
            for w in adj[x]:
                if seen[w] < stamp:
                    seen[w] = stamp
                    nxt.append(w)
        if not nxt:
            break
        levels.append(nxt)
    return levels


def _word_bits(src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each bit index b lives in a column of `_reach_masks`: its
    word (row) b // 64, and that word with only bit b % 64 set."""
    return src >> 6, np.left_shift(np.uint64(1), (src & 63).astype(np.uint64))


def fits_masks(g: Graph) -> bool:
    """The size rule: bounded reach on g runs on the masks, not the BFS."""
    return g.n <= MASK_MAX_N


def _reach_masks(g: Graph, pos: Optional[Sequence[int]] = None) -> Iterator[tuple]:
    """Bit-parallel bounded reach from every source at once, by rounds.

    Yields (masks, sizes) after 0, 1, 2, ... rounds: column v of the
    ceil(n/64) x n uint64 masks holds the source bits of v, bit b in row
    b // 64 at place b % 64, and sizes[v] is its popcount.  Vertex v
    starts with bit v, or bit pos[v] when an order's positions are given.
    A round ORs into every column its neighbors' columns of the previous
    round; with pos, column v keeps only the bits of ranks below pos[v]
    (its prefix column).  So after i rounds column v holds bit s exactly
    when the vertex starting with s reaches v by a walk of length <= i,
    through vertices that all rank after that source when pos is given.
    Columns only gain bits, so the first round that keeps the total
    popcount changes nothing and ends the generator unyielded: the cost
    stops growing once the reach is complete.  The masks change in place.
    Word-major, the popcounts are sums down contiguous rows.
    """
    nbr, starts = g.neighbor_arrays
    n, words = g.n, -(-g.n // 64)
    word, bit = _word_bits(np.arange(n) if pos is None else np.asarray(pos, dtype=np.intp))
    buf = np.zeros((words, n + 1), dtype=np.uint64)  # column n: isolated vertices' neighbor
    buf[word, np.arange(n)] = bit
    masks = buf[:, :n]
    allowed = None
    if pos is not None:
        # the prefix column of pos[v]: every word before v's own, and the
        # bits below v's bit in it
        allowed = np.take(np.triu(np.full((words, words), ~np.uint64(0)), 1), word, axis=1)
        allowed[word, np.arange(n)] |= bit - np.uint64(1)
    sizes, total = np.ones(n, dtype=np.int64), n
    while True:
        yield masks, sizes
        acc = np.bitwise_or.reduceat(np.take(buf, nbr, axis=1), starts, axis=1)
        if allowed is not None:
            acc &= allowed
        acc |= masks
        sizes = np.bitwise_count(acc).sum(axis=0, dtype=np.int64)
        grown = sizes.sum()
        if grown == total:
            return
        masks[...], total = acc, grown


def ball_sums(g: Graph, d: int, signs: np.ndarray) -> np.ndarray:
    """For every vertex v, the sum of signs[z] (each +1 or -1) over the
    closed d-ball of v: the z within d steps of v, v included.

    On the masks (`fits_masks`) the sums are read from the d-th yield of
    `_reach_masks`, or its last, as 2 * |column & plus| - |column|, plus
    holding the bits of the vertices signed +1; on the BFS each vertex's
    BFS adds its sign to every vertex it reaches.
    """
    if fits_masks(g):
        for masks, size in islice(_reach_masks(g), d + 1):
            pass
        plus = np.zeros((masks.shape[0], 1), dtype=np.uint64)
        np.bitwise_or.at(plus[:, 0], *_word_bits(np.flatnonzero(np.asarray(signs) > 0)))
        return 2 * np.bitwise_count(masks & plus).sum(axis=0, dtype=np.int64) - size
    adj, sums, seen = g.adjacency, [0] * g.n, [-1] * g.n
    for z, s in enumerate(np.asarray(signs).tolist()):
        for level in bfs_levels(adj, z, d, seen, z):
            for v in level:
                sums[v] += s
    return np.array(sums, dtype=np.int64)


def graph_power(g: Graph, d: int) -> Graph:
    """G^d: edges between distinct vertices at graph distance <= d.  The
    incidences are counted as the balls are built, and more than
    INPUT_CAP of them raise ResourceLimitError."""
    if d < 1:
        raise ValueError("graph power needs d >= 1")
    if d == 1:
        return g
    adj, seen = g.adjacency, [-1] * g.n
    rows, size = [], 0
    for z in range(g.n):
        ball: list[int] = []
        for level in bfs_levels(adj, z, d, seen, z)[1:]:
            ball += level
        size += len(ball)
        if size > INPUT_CAP:
            raise ResourceLimitError(
                f"graph power capped at {INPUT_CAP} incidences, needs at least {size}"
            )
        ball.sort()
        rows.append(tuple(ball))
    return Graph(g.n, tuple(rows))


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
    """Random d-degenerate graph: vertex v attaches to up to d earlier
    vertices, drawn without replacement by `SplitMix64.sample`, which
    costs O(k^2) for k edges, not O(v)."""
    rng = SplitMix64(seed)
    edges = []
    for v in range(1, n):
        k = min(v, rng.randrange(d + 1))
        edges += [(u, v) for u in rng.sample(range(v), k)]
    return Graph.from_edges(n, edges)
