import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsedisc.errors import ResourceLimitError
from sparsedisc.graphs import generate_family, sylvester_graph
from sparsedisc.orderings import degeneracy_order
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import (
    SetSystem,
    bipartite_double,
    degree,
    edge_color_system,
    intersection_closure,
    neighborhood_system,
    random_system,
    trace,
)


def system(ground, sets):
    return SetSystem.from_sets(ground, sets)


class TestCanonicalForm:
    def test_dedup_sort_drop_empty(self):
        s = system(4, [[2, 1], [], [1, 2], [3]])
        assert s.sets == ((1, 2), (3,))

    def test_construction_order_irrelevant(self):
        a = system(5, [[0, 3], [1], [2, 4]])
        b = system(5, [[4, 2], [3, 0], [1]])
        assert a.to_json() == b.to_json()

    def test_json_round_trip(self):
        s = system(6, [[0, 5], [1, 2, 3]])
        assert SetSystem.from_json(s.to_json()) == s

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            system(2, [[0, 2]])


class TestNeighborhoodSystem:
    def test_triangle(self):
        s = neighborhood_system(generate_family("complete", [3]))
        assert s.sets == ((0, 1), (0, 2), (1, 2))

    def test_star_shares_leaf_neighborhoods(self):
        g = generate_family("complete_bipartite", [1, 3])
        s = neighborhood_system(g)
        assert s.sets == ((0,), (1, 2, 3))

    def test_sylvester_p1_sizes(self):
        s = neighborhood_system(sylvester_graph(1))
        assert sorted(len(t) for t in s.sets) == [1, 1, 2, 2]

    def test_degree_equals_max_degree_when_neighborhoods_distinct(self):
        for seed in range(10):
            g = generate_family("gnp", [10, 1, 2], seed=seed)
            if len({tuple(a) for a in g.adjacency}) != g.n:
                continue
            assert degree(neighborhood_system(g)) == max(len(a) for a in g.adjacency)


class TestEdgeColorSystem:
    def test_all_one_color(self):
        g = generate_family("cycle", [6])
        gamma = {e: 1 for e in g.edges()}
        assert edge_color_system(g, gamma) == neighborhood_system(g)

    def test_triangle_mixed(self):
        g = generate_family("complete", [3])
        gamma = {(0, 1): 2, (0, 2): 1, (1, 2): 1}
        s = edge_color_system(g, gamma)
        assert s.sets == ((0,), (0, 1), (1,), (2,))

    def test_single_edge(self):
        g = generate_family("path", [2])
        for c in (1, 2):
            s = edge_color_system(g, {(0, 1): c})
            assert s.sets == ((0,), (1,))

    def test_missing_edge(self):
        g = generate_family("path", [3])
        with pytest.raises(ValueError):
            edge_color_system(g, {(0, 1): 1})


class TestBipartiteDouble:
    def test_single_edge(self):
        g = generate_family("path", [2])
        doubled = bipartite_double(g, {(0, 1): 1})
        # (1,1) encodes to 2+2*1+0 = 4; (0,1) to 2+0+0 = 2
        assert doubled.edges() == [(0, 4), (1, 2)]

    def test_colored_sets_appear_as_neighborhoods(self):
        rng = SplitMix64(3)
        for seed in range(8):
            g = generate_family("gnp", [10, 2, 5], seed=seed)
            gamma = {e: 1 + rng.randrange(2) for e in g.edges()}
            doubled = bipartite_double(g, gamma)
            colored = {frozenset(s) for s in edge_color_system(g, gamma).sets}
            nbrs = {frozenset(s) for s in neighborhood_system(doubled).sets}
            assert colored <= nbrs

    def test_degeneracy_never_grows(self):
        rng = SplitMix64(4)
        for seed in range(8):
            g = generate_family("gnp", [12, 1, 3], seed=seed)
            gamma = {e: 1 + rng.randrange(2) for e in g.edges()}
            doubled = bipartite_double(g, gamma)
            assert degeneracy_order(doubled)[1] <= degeneracy_order(g)[1]

    def test_alternating_c4(self):
        g = generate_family("cycle", [4])
        gamma = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 2 + 1): 2}
        gamma = {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}
        doubled = bipartite_double(g, gamma)
        assert max(len(doubled.adjacency[v]) for v in range(4)) <= 2
        assert all(len(doubled.adjacency[v]) <= 1 for v in range(4, 12))


class TestTrace:
    def test_simple(self):
        s, mapping = trace(system(3, [[0, 1, 2]]), {0, 1})
        assert s.sets == ((0, 1),) and mapping == (0, 1)

    def test_full_ground_identity(self):
        orig = system(4, [[0, 2], [1, 3]])
        s, mapping = trace(orig, range(4))
        assert s == orig and mapping == (0, 1, 2, 3)

    def test_c5_neighborhoods(self):
        s = neighborhood_system(generate_family("cycle", [5]))
        traced, _ = trace(s, {0, 1, 2})
        assert traced.sets == ((0,), (0, 2), (1,), (2,))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            trace(system(3, [[0]]), {5})

    def test_never_increases_degree(self):
        rng = SplitMix64(9)
        for _ in range(25):
            s = random_system(rng, max_ground=12, max_degree=4, max_sets=8)
            mask = rng.next_u64()
            sub = [v for v in range(s.ground_size) if mask >> v & 1]
            traced, _ = trace(s, sub)
            assert degree(traced) <= degree(s)


class TestDegreeDual:
    def test_degree_examples(self):
        assert degree(system(2, [[0], [1]])) == 1
        assert degree(neighborhood_system(generate_family("cycle", [5]))) == 2
        s = neighborhood_system(generate_family("all_d_subsets", [4, 2]))
        assert degree(s) == 3

    def test_degree_empty(self):
        assert degree(system(4, [])) == 0


class TestIntersectionClosure:
    def test_adds_intersection_and_ground(self):
        s = system(3, [[0, 1], [1, 2]])
        closed = intersection_closure(s)
        assert closed.sets == ((0, 1), (0, 1, 2), (1,), (1, 2))

    def test_disjoint_adds_only_ground(self):
        s = system(4, [[0], [1], [2]])
        closed = intersection_closure(s)
        assert closed.sets == ((0,), (0, 1, 2, 3), (1,), (2,))

    def test_idempotent(self):
        rng = SplitMix64(13)
        for _ in range(10):
            s = random_system(rng, max_ground=10, max_degree=3, max_sets=6)
            once = intersection_closure(s)
            assert intersection_closure(once) == once

    def test_degree_bound(self):
        rng = SplitMix64(14)
        for _ in range(15):
            s = random_system(rng, max_ground=12, max_degree=2, max_sets=8)
            assert degree(intersection_closure(s)) <= 4

    def test_cap(self):
        rng = SplitMix64(15)
        sets = [[rng.randrange(40) for _ in range(12)] for _ in range(40)]
        with pytest.raises(ResourceLimitError):
            intersection_closure(system(40, sets), cap=10)


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_trace_on_full_ground_is_identity(seed):
    s = random_system(SplitMix64(seed), max_ground=10, max_degree=3, max_sets=6)
    traced, _ = trace(s, range(s.ground_size))
    assert traced == s
