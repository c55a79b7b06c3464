import hashlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bfs_distances, canonical_graph, girth, is_bipartite, subdivide
from sparsedisc import graphs
from sparsedisc.errors import ParseError, ResourceLimitError
from sparsedisc.graphs import (
    Graph,
    ball_sums,
    bfs_levels,
    generate_family,
    graph_power,
    hadamard,
    random_degenerate_graph,
    read_edge_list,
    sylvester_graph,
    write_edge_list,
)
from sparsedisc.rng import SplitMix64


def parse(text: str) -> Graph:
    return read_edge_list(io.StringIO(text))


class TestEdgeListIO:
    def test_single_edge(self):
        g = parse("n 2\n0 1\n")
        assert g.n == 2 and g.edges() == [(0, 1)]

    def test_duplicate_collapses(self):
        g = parse("n 3\n0 1\n1 0\n")
        assert g.edges() == [(0, 1)]

    def test_self_loop_names_line(self):
        with pytest.raises(ParseError, match="self-loop at line 2"):
            parse("n 2\n0 0\n")

    def test_negative_vertex_count(self):
        with pytest.raises(ParseError, match="negative vertex count at line 2"):
            parse("# c\nn -1\n")

    def test_negative_vertex(self):
        with pytest.raises(ParseError, match="out of range at line 2"):
            parse("n 2\n-1 1\n")

    def test_out_of_range_vertex(self):
        with pytest.raises(ParseError, match="line 3"):
            parse("n 2\n0 1\n0 5\n")

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse("n 2\n0 one\n")

    def test_missing_header(self):
        with pytest.raises(ParseError, match="header"):
            parse("0 1\n")

    def test_comments_and_blanks_ignored(self):
        g = parse("# c\n\nn 3\n# mid\n0 2\n")
        assert g.edges() == [(0, 2)]

    def test_round_trip(self):
        g = generate_family("gnp", [12, 1, 3], seed=5)
        buf = io.StringIO()
        write_edge_list(g, buf)
        assert parse(buf.getvalue()) == g


class TestGraphInvariants:
    @pytest.mark.parametrize(
        "adjacency",
        [((1,), ()), ((2,), (2,), (1,)), ((1,), (0, 2), (0,))],
    )
    def test_asymmetric_adjacency_rejected(self, adjacency):
        # by the canonical-form oracle: the constructor does not check
        assert not canonical_graph(Graph(len(adjacency), adjacency))

    @pytest.mark.parametrize(
        "n, edges, words",
        [
            (-1, [], "negative vertex count"),
            (3, [(0, 3)], "out of range"),
            (3, [(-1, 2)], "out of range"),
            (3, [(0, 1), (2, 2)], "self-loop at vertex 2"),
        ],
    )
    def test_from_edges_rejects(self, n, edges, words):
        with pytest.raises(ValueError, match=words):
            Graph.from_edges(n, edges)


class TestGraphPower:
    def test_path_distance_two(self):
        g = generate_family("path", [4])
        assert graph_power(g, 2).edges() == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]

    def test_identity_case(self):
        g = generate_family("gnp", [9, 1, 3], seed=2)
        assert graph_power(g, 1) == g

    def test_c6_cubed_is_complete(self):
        # oracle: all-pairs BFS distances; C_6 has diameter 3
        g = generate_family("cycle", [6])
        dists = [bfs_distances(g, v) for v in range(6)]
        assert all(dists[u][v] <= 3 for u in range(6) for v in range(6))
        cube = graph_power(g, 3)
        assert all(v in cube.adjacency[u] for u in range(6) for v in range(6) if u != v)

    def test_power_matches_bfs_oracle(self):
        cases = [
            (generate_family("gnp", [15, 1, 4], seed=7), (2, 3)),
            # disconnected: a 5-cycle, a path of 4 and two isolated vertices
            (
                Graph.from_edges(11, [(i, (i + 1) % 5) for i in range(5)] + [(5, 6), (6, 7), (7, 8)]),
                (2, 3),
            ),
            # past the diameter: a path of 6 has diameter 5
            (generate_family("path", [6]), (5, 9, 10**9)),
        ]
        for g, depths in cases:
            dists = [bfs_distances(g, v) for v in range(g.n)]
            for d in depths:
                p = graph_power(g, d)
                for u in range(g.n):
                    for v in range(g.n):
                        if u != v:
                            expect = v in dists[u] and dists[u][v] <= d
                            assert (v in p.adjacency[u]) == expect

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            graph_power(generate_family("path", [3]), 0)

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 2), (2, 3), (3, 3)])
    def test_power_composition(self, a, b):
        g = generate_family("gnp", [14, 1, 4], seed=a * 10 + b)
        assert graph_power(graph_power(g, a), b) == graph_power(g, a * b)

    def test_incidence_cap(self, monkeypatch):
        # the square of a path of 4 lists 2 + 3 + 3 + 2 = 10 incidences
        g = generate_family("path", [4])
        full = graph_power(g, 2)
        monkeypatch.setattr(graphs, "INPUT_CAP", 10)
        assert graph_power(g, 2) == full
        monkeypatch.setattr(graphs, "INPUT_CAP", 9)
        with pytest.raises(ResourceLimitError, match="needs at least 10"):
            graph_power(g, 2)


class TestBfsLevels:
    """The one rule of bfs_levels, against BFS distances in the subgraph
    without the closed vertices: a vertex whose entry is at or above the
    stamp is never entered, every vertex reached ends with the stamp, and
    the levels are the distance classes up to d."""

    def test_closed_vertices_against_oracle(self, small_corpus):
        rng = SplitMix64(2525)
        cases = 0
        for _, g in small_corpus:
            for _ in range(8):
                stamp = rng.randrange(5)
                # closed entries sit at or above the stamp, open ones below
                seen = [stamp + rng.randrange(3) for _ in range(g.n)]
                for v in range(g.n):
                    if rng.bernoulli(2, 3):
                        seen[v] = stamp - 1 - rng.randrange(3)
                opened = [v for v in range(g.n) if seen[v] < stamp]
                if not opened:
                    continue
                z = opened[rng.randrange(len(opened))]
                closed = frozenset(v for v in range(g.n) if seen[v] >= stamp)
                dist = bfs_distances(g, z, closed)
                for d in (0, 1, 2, 3, g.n):
                    after = list(seen)
                    levels = bfs_levels(g.adjacency, z, d, after, stamp)
                    depth = min(d, max(dist.values()))
                    assert [sorted(level) for level in levels] == [
                        sorted(v for v, r in dist.items() if r == i) for i in range(depth + 1)
                    ], (g.n, z, d)
                    reached = {v for level in levels for v in level}
                    assert after == [stamp if v in reached else seen[v] for v in range(g.n)]
                    assert not reached & closed
                    cases += 1
        assert cases > 200


def _signs(n: int, seed: int) -> np.ndarray:
    rng = SplitMix64(seed)
    return np.array([rng.randrange(2) * 2 - 1 for _ in range(n)], dtype=np.int64)


class TestBallSums:
    """ball_sums on both routes against BFS distances, with seeded signs
    and with every sign +1 (the ball sizes)."""

    def test_matches_oracles(self, route):
        corpus = [Graph(0, ()), Graph(5, ((),) * 5), generate_family("path", [12])]
        corpus += [generate_family("grid", [4, 5])]
        corpus += [random_degenerate_graph(n, 3, n) for n in (30, 65)]
        for g in corpus:
            ones, signs = np.ones(g.n, dtype=np.int64), _signs(g.n, g.n)
            for d in (0, 1, 2, 3):
                balls = [[w for w, r in bfs_distances(g, v).items() if r <= d] for v in range(g.n)]
                assert ball_sums(g, d, ones).tolist() == [len(b) for b in balls]
                assert ball_sums(g, d, signs).tolist() == [
                    sum(int(signs[z]) for z in b) for b in balls
                ], (g.n, d)
            # the kernels stop once a round (a BFS level) adds nothing
            assert ball_sums(g, 10**9, signs).tolist() == ball_sums(g, g.n, signs).tolist()


class TestSubdivide:
    def test_triangle_once_gives_six_cycle(self):
        g = subdivide(generate_family("complete", [3]), 1)
        assert g.n == 6
        assert all(len(g.adjacency[v]) == 2 for v in range(6))
        assert girth(g) == 6

    def test_zero_is_identity(self):
        g = generate_family("grid", [2, 3])
        assert subdivide(g, 0) == g

    def test_k4_twice(self):
        g = subdivide(generate_family("complete", [4]), 2)
        assert g.n == 4 + 2 * 6
        assert girth(g) == 9

    def test_vertex_count_formula(self):
        g = generate_family("gnp", [10, 1, 2], seed=3)
        for r in (1, 2, 3):
            assert subdivide(g, r).n == g.n + r * g.edge_count()

    def test_originals_keep_indices(self):
        g = generate_family("path", [3])
        s = subdivide(g, 2)
        assert 1 not in s.adjacency[0]
        assert len(s.adjacency[0]) == 1 and len(s.adjacency[1]) == 2


class TestHadamard:
    def test_base_cases(self):
        assert hadamard(0).tolist() == [[1]]
        assert hadamard(1).tolist() == [[1, 1], [1, -1]]

    @pytest.mark.parametrize("p", [0, 1, 2, 3, 5])
    def test_orthogonality_exact(self, p):
        h = hadamard(p).astype(np.int64)
        assert np.array_equal(h @ h.T, (1 << p) * np.eye(1 << p, dtype=np.int64))

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_row_sums(self, p):
        h = hadamard(p).astype(np.int64)
        sums = h.sum(axis=1)
        assert sums[0] == 1 << p
        assert not sums[1:].any()

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            hadamard(14)


class TestSylvester:
    def test_p0_single_edge(self):
        assert sylvester_graph(0).edges() == [(0, 1)]

    def test_p1_pattern(self):
        assert sylvester_graph(1).edges() == [(0, 2), (0, 3), (1, 2)]

    @pytest.mark.parametrize("p", range(7))
    def test_vertex_count(self, p):
        assert sylvester_graph(p).n == 1 << (p + 1)

    @pytest.mark.parametrize("p", range(9))
    def test_bipartite(self, p):
        assert is_bipartite(sylvester_graph(p))

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            sylvester_graph(14)

    def test_size_checked_before_the_matrix(self, monkeypatch):
        # p = 13 is under the hadamard cap, but its 2^13 (2^13 + 1) / 2
        # edges are over INPUT_CAP: refused without building the matrix
        def unbuilt(p):
            raise AssertionError("hadamard built before the size check")

        monkeypatch.setattr(graphs, "hadamard", unbuilt)
        with pytest.raises(ResourceLimitError):
            sylvester_graph(13)


class TestGenerateFamily:
    def test_cycle(self):
        assert generate_family("cycle", [5]).edges() == [
            (0, 1), (0, 4), (1, 2), (2, 3), (3, 4),
        ]

    def test_all_d_subsets(self):
        g = generate_family("all_d_subsets", [3, 2])
        assert g.n == 6
        assert all(len(g.adjacency[v]) == 2 for v in range(3, 6))

    def test_gnp_deterministic(self):
        a = generate_family("gnp", [20, 1, 2], seed=7)
        b = generate_family("gnp", [20, 1, 2], seed=7)
        assert a == b

    def test_gnp_seed_matters(self):
        a = generate_family("gnp", [20, 1, 2], seed=7)
        b = generate_family("gnp", [20, 1, 2], seed=8)
        assert a != b

    @pytest.mark.parametrize(
        "name,params",
        [("cycle", [2]), ("grid", [0, 3]), ("gnp", [5, 1]), ("path", [-1]),
         ("all_d_subsets", [3, 4]), ("nosuch", [1]), ("gnp", [5, 2, 1]), ("gnp", [1, 2, 1]),
         ("gnp", [1, 0, 0])],
    )
    def test_bad_params(self, name, params):
        with pytest.raises(ValueError):
            generate_family(name, params)

    @pytest.mark.parametrize("num, den", [(2, 1), (-1, 2), (1, 0)])
    def test_bernoulli_outside_unit_interval(self, num, den):
        with pytest.raises(ValueError, match="not in"):
            SplitMix64(0).bernoulli(num, den)


# sha256 of the edge lists of random_degenerate_graph(n, d, seed), each
# vertex's edges drawn by SplitMix64.sample over range(v): every
# seeded fixture and benchmark input is built from these edges
DEGENERATE_DIGEST = "06857cdad58065246629f556b80f9268b1472b78013ad05066d1b262edbe82af"


def test_random_degenerate_edges_frozen():
    h = hashlib.sha256()
    for n in (0, 1, 2, 50, 300):
        ds = range(n + 3) if n <= 50 else (0, 1, 2, 3, 5, 8, 17, 64, 150, 299, 300, 301, 302)
        for d in ds:
            for seed in (0, 1, 7):
                g = random_degenerate_graph(n, d, seed)
                assert all(sum(u < v for u in g.adjacency[v]) <= d for v in range(n))
                h.update(f"{n} {d} {seed} {g.edges()}\n".encode())
    assert h.hexdigest() == DEGENERATE_DIGEST


@given(st.integers(4, 30), st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_roundtrip_random(n, seed):
    g = generate_family("gnp", [n, 1, 3], seed=seed)
    buf = io.StringIO()
    write_edge_list(g, buf)
    assert read_edge_list(io.StringIO(buf.getvalue())) == g


@given(st.integers(2, 16), st.integers(0, 2**32), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_subdivision_count_random(n, seed, r):
    g = generate_family("gnp", [n, 1, 2], seed=seed)
    assert subdivide(g, r).n == g.n + r * g.edge_count()
