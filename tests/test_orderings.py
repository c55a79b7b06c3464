from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import degeneracy_brute, wcol_brute, wreach_brute
from sparsedisc.errors import ResourceLimitError
from sparsedisc.graphs import Graph, generate_family, random_degenerate_graph
from sparsedisc.orderings import (
    LinearOrder,
    degeneracy_order,
    orient_along,
    wcol_exact,
    wcol_from_order,
    weak_reach,
)
from sparsedisc.power_coloring import in_neighborhood_system
from sparsedisc.setsystems import SetSystem

from conftest import shuffled_order, wreach_rows

natural = lambda n: LinearOrder.from_sequence(list(range(n)))


def random_instance(family: str, seed: int) -> tuple[Graph, LinearOrder]:
    """A seeded gnp or degenerate graph under a seeded random order."""
    if family == "gnp":
        g = generate_family("gnp", [11, 1, 4], seed=seed)
    else:
        g = random_degenerate_graph(13, 3, seed)
    return g, shuffled_order(g.n, seed)


class TestDegeneracy:
    def test_cycle(self):
        assert degeneracy_order(generate_family("cycle", [5]))[1] == 2

    def test_complete(self):
        assert degeneracy_order(generate_family("complete", [6]))[1] == 5

    def test_grid_5x5(self):
        # oracle: exhaustive max-over-induced-subgraphs on the 3x3 grid is
        # already 2, and the corner of any grid keeps it at 2
        assert degeneracy_brute(generate_family("grid", [3, 3])) == 2
        assert degeneracy_order(generate_family("grid", [5, 5]))[1] == 2

    def test_empty(self):
        order, d = degeneracy_order(Graph(0, ()))
        assert d == 0 and order.sequence() == []

    def test_matches_exhaustive_oracle(self):
        for seed in range(6):
            g = generate_family("gnp", [7, 1, 2], seed=seed)
            assert degeneracy_order(g)[1] == degeneracy_brute(g)

    def test_subgraph_monotone(self):
        for seed in range(8):
            g = generate_family("gnp", [12, 1, 3], seed=seed)
            base = degeneracy_order(g)[1]
            for drop in range(g.n):
                keep = [v for v in range(g.n) if v != drop]
                relab = {v: i for i, v in enumerate(keep)}
                sub = Graph.from_edges(
                    len(keep),
                    [(relab[u], relab[v]) for u, v in g.edges() if u != drop and v != drop],
                )
                assert degeneracy_order(sub)[1] <= base


class TestOrientAlong:
    def test_path_natural(self):
        g = generate_family("path", [3])
        outs = orient_along(g, natural(3))
        assert outs == ((), (0,), (1,))
        assert max(map(len, outs)) == 1

    def test_triangle_out_degrees(self):
        g = generate_family("complete", [3])
        outs = orient_along(g, natural(3))
        assert sorted(len(x) for x in outs) == [0, 1, 2]

    def test_grid_degeneracy_order(self):
        g = generate_family("grid", [4, 4])
        order, d = degeneracy_order(g)
        assert max(map(len, orient_along(g, order))) == d == 2

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            orient_along(generate_family("path", [3]), natural(4))

    def test_max_out_equals_degeneracy(self):
        for seed in range(6):
            g = generate_family("gnp", [14, 1, 3], seed=seed)
            order, d = degeneracy_order(g)
            assert max(map(len, orient_along(g, order))) == d

    def test_in_plus_out_is_adjacency(self):
        # the out-neighbors of v and its in-neighborhood split N(v), so the
        # in-neighborhood system is the system of the N(v) - out(v)
        g = generate_family("gnp", [10, 1, 2], seed=1)
        for order in (natural(10), shuffled_order(10, 1)):
            outs = orient_along(g, order)
            rests = []
            for v in range(10):
                assert set(outs[v]) <= set(g.adjacency[v])
                rests.append(set(g.adjacency[v]) - set(outs[v]))
            assert in_neighborhood_system(g, order) == SetSystem.from_sets(10, rests)


class TestWeakReach:
    def test_depth_zero(self):
        g = generate_family("cycle", [5])
        assert set(wreach_rows(weak_reach(g, natural(5), 0))[3]) == {3}

    def test_path_example(self):
        g = generate_family("path", [4])
        assert set(wreach_rows(weak_reach(g, natural(4), 2))[3]) == {1, 2, 3}

    def test_complete_last_vertex(self):
        g = generate_family("complete", [4])
        assert set(wreach_rows(weak_reach(g, natural(4), 1))[3]) == {0, 1, 2, 3}

    def test_contains_self(self):
        g = generate_family("gnp", [12, 1, 3], seed=4)
        for v in range(12):
            assert v in set(wreach_rows(weak_reach(g, natural(12), 3))[v])

    def test_matches_path_enumeration_oracle(self):
        for seed in range(5):
            g = generate_family("gnp", [8, 2, 5], seed=seed)
            order = natural(8)
            for d in range(4):
                for v in range(8):
                    assert set(wreach_rows(weak_reach(g, order, d))[v]) == wreach_brute(
                        g, order.position, d, v
                    )

    @given(st.sampled_from(["gnp", "degenerate"]), st.integers(0, 2**32), st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_random_orders_match_oracle(self, family, seed, d):
        g, order = random_instance(family, seed)
        rows = wreach_rows(weak_reach(g, order, d))
        assert len(rows) == g.n
        for v in range(g.n):
            assert set(rows[v]) == wreach_brute(g, order.position, d, v)

    @given(st.sampled_from(["gnp", "degenerate"]), st.integers(0, 2**32))
    @settings(max_examples=25, deadline=None)
    def test_radius_is_least(self, family, seed):
        g, order = random_instance(family, seed)
        rows = wreach_rows(weak_reach(g, order, 4))
        for v in range(g.n):
            brute = [wreach_brute(g, order.position, i, v) for i in range(5)]
            assert rows[v][v] == 0
            for z, r in rows[v].items():
                assert r == min(i for i in range(5) if z in brute[i])

    def test_radius_far_past_the_diameter(self):
        # each root's BFS ends once its frontier is empty, so the radius
        # costs nothing past the longest path out of the root
        g = generate_family("path", [20])
        order = shuffled_order(20, 3)
        assert weak_reach(g, order, 10**9) == weak_reach(g, order, 19)

    def test_rejects_bad_arguments(self):
        g = generate_family("path", [3])
        with pytest.raises(ValueError):
            weak_reach(g, natural(3), -1)
        with pytest.raises(ValueError):
            weak_reach(g, natural(4), 2)

    @given(st.integers(0, 2**32), st.integers(0, 4))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_d(self, seed, d):
        g = generate_family("gnp", [15, 1, 4], seed=seed)
        for v in range(g.n):
            small = set(wreach_rows(weak_reach(g, natural(15), d))[v])
            big = set(wreach_rows(weak_reach(g, natural(15), d + 1))[v])
            assert small <= big


class TestWcolFromOrder:
    def test_single_vertex(self):
        assert wcol_from_order(Graph(1, ((),)), natural(1), 5) == 1

    def test_path_ten(self):
        g = generate_family("path", [10])
        assert wcol_from_order(g, natural(10), 3) == 4

    def test_complete_any_order(self):
        for n in (3, 4, 5, 6):
            g = generate_family("complete", [n])
            assert wcol_from_order(g, natural(n), 1) == n
            assert wcol_from_order(g, natural(n), 2) == n

    def test_upper_bounds_exact(self, small_corpus):
        for name, g in small_corpus:
            if g.n > 6:
                continue
            for d in (1, 2):
                exact = wcol_exact(g, d)
                assert wcol_from_order(g, natural(g.n), d) >= exact
                heur = degeneracy_order(g)[0]
                assert wcol_from_order(g, heur, d) >= exact


class TestWcolExact:
    def test_identity_with_degeneracy(self, small_corpus):
        for name, g in small_corpus:
            if g.n > 7:
                continue
            assert wcol_exact(g, 1) == degeneracy_order(g)[1] + 1, name

    def test_complete_graphs(self):
        for n in (3, 4, 5, 6):
            g = generate_family("complete", [n])
            assert wcol_exact(g, 1) == n
            assert wcol_exact(g, 2) == n

    def test_p5_depth2(self):
        assert wcol_exact(generate_family("path", [5]), 2) == 3

    def test_matches_path_enumeration_oracle(self):
        for seed in (0, 1):
            g = generate_family("gnp", [5, 1, 2], seed=seed)
            for d in (1, 2, 3):
                assert wcol_exact(g, d) == wcol_brute(g, d)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            wcol_exact(generate_family("path", [10]), 1)

    @pytest.mark.parametrize("d, max_n", [(-1, 9), (1, -1)])
    def test_negative_radius_or_cap_rejected(self, d, max_n):
        # d = -1 would otherwise read as 1 (every root reaches itself) and
        # a negative cap as a resource limit
        with pytest.raises(ValueError):
            wcol_exact(generate_family("path", [3]), d, max_n=max_n)

    def test_matches_exhaustive_orders(self, small_corpus):
        # the branch and bound against the minimum of wcol_from_order over
        # every order
        for name, g in small_corpus:
            if g.n > 6:
                continue
            for d in (0, 1, 2, 3):
                best = min(
                    wcol_from_order(g, LinearOrder.from_sequence(list(p)), d)
                    for p in permutations(range(g.n))
                )
                assert wcol_exact(g, d) == best, (name, d)

    def test_nine_vertices(self):
        # 5 by exhausting all 9! orders
        assert wcol_exact(generate_family("gnp", [9, 1, 3], seed=6), 2) == 5

    def test_empty_graph(self):
        assert wcol_exact(Graph(0, ()), 2) == 0
        assert wcol_exact(Graph(3, ((), (), ())), 2) == 1


class TestHeuristicOrder:
    def test_optimal_for_depth_one(self, small_corpus):
        for name, g in small_corpus:
            if g.n > 7:
                continue
            heur = degeneracy_order(g)[0]
            assert wcol_from_order(g, heur, 1) == wcol_exact(g, 1), name

    def test_optimal_for_depth_one_n8(self):
        g = generate_family("gnp", [8, 1, 2], seed=3)
        heur = degeneracy_order(g)[0]
        assert wcol_from_order(g, heur, 1) == wcol_exact(g, 1)

    def test_empty_graph(self):
        g = Graph(4, ((), (), (), ()))
        heur = degeneracy_order(g)[0]
        for d in (0, 1, 3):
            assert wcol_from_order(g, heur, d) == 1

    def test_grid_4x4_depth2_ceiling(self):
        g = generate_family("grid", [4, 4])
        assert wcol_from_order(g, degeneracy_order(g)[0], 2) <= 8


class TestLinearOrder:
    def test_serialize(self):
        order = LinearOrder.from_sequence([2, 0, 1])
        assert order.serialize() == "2 0 1"
        assert order.position == (1, 2, 0)

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            LinearOrder((0, 0, 1))
