from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import degeneracy_brute, is_permutation, smallest_last_brute, wcol_brute, wreach_brute
from sparsedisc import graphs
from sparsedisc.errors import ResourceLimitError
from sparsedisc.graphs import Graph, generate_family, random_degenerate_graph, sylvester_graph
from sparsedisc.orderings import (
    LinearOrder,
    degeneracy_order,
    orient_along,
    wcol_exact,
    wcol_from_order,
    wcol_profile,
    weak_reach,
)
from sparsedisc.power_coloring import in_neighborhood_system
from sparsedisc.setsystems import SetSystem

from conftest import shuffled_order, word_boundary_graphs, wreach_rows

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

    def test_order_matches_smallest_last_oracle(self, small_corpus):
        corpus = [g for _, g in small_corpus]
        corpus += [Graph(0, ()), Graph(4, ((),) * 4), sylvester_graph(4)]
        corpus += [generate_family("grid", [7, 9]), generate_family("complete_bipartite", [5, 9])]
        corpus += [generate_family("gnp", [40, 1, 6], seed=seed) for seed in range(6)]
        corpus += [random_degenerate_graph(300, p, seed) for p in (3, 6) for seed in range(2)]
        # many ties at every step: the 40x40 grid, K_{5,40}, and the
        # 4-regular circulant C_60(1, 2)
        corpus += [generate_family("grid", [40, 40]), generate_family("complete_bipartite", [5, 40])]
        corpus.append(Graph.from_edges(60, [(i, (i + j) % 60) for i in range(60) for j in (1, 2)]))
        for g in corpus:
            order, dgn = degeneracy_order(g)
            assert (order.sequence(), dgn) == smallest_last_brute(g)

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


def _route_corpus() -> list[tuple[Graph, LinearOrder]]:
    """Graphs under natural and shuffled orders, with the edge cases of
    both routes: no vertices, isolated vertices, disconnected parts."""
    out = [(Graph(0, ()), natural(0)), (Graph(5, ((),) * 5), shuffled_order(5, 1))]
    parts = Graph.from_edges(9, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7)])
    out.append((parts, shuffled_order(9, 2)))
    for seed in range(4):
        g = random_degenerate_graph(30, 3, seed)
        out += [(g, degeneracy_order(g)[0]), (g, shuffled_order(g.n, seed))]
        g = generate_family("gnp", [14, 1, 4], seed=seed)
        out += [(g, natural(g.n)), (g, shuffled_order(g.n, seed + 10))]
    g = generate_family("grid", [5, 6])
    out += [(g, natural(g.n)), (g, shuffled_order(g.n, 7))]
    for g in word_boundary_graphs():
        out += [(g, natural(g.n)), (g, shuffled_order(g.n, g.n))]
    return out


class TestWcolRoutes:
    """The bit-mask route of wcol_from_order against the BFS route and
    against the path-enumeration oracle."""

    def test_routes_agree(self, monkeypatch, mask_passes, bfs_roots):
        corpus = _route_corpus()
        radii = (0, 1, 2, 3, 4, 60, 10**9)  # 60 is past every diameter here
        masks = [[wcol_from_order(g, order, d) for d in radii] for g, order in corpus]
        assert bfs_roots == [] and len(mask_passes) == len(corpus)
        monkeypatch.setattr(graphs, "MASK_MAX_N", -1)
        mask_passes.clear()
        for (g, order), expected in zip(corpus, masks):
            for d, wcol in zip(radii, expected):
                # every call runs the BFS from each root; none reads the
                # mask profile kept for the last corpus entry
                bfs_roots.clear()
                assert wcol_from_order(g, order, d) == wcol
                assert bfs_roots == list(range(g.n))
        assert mask_passes == []
        assert masks[0] == [0] * len(radii)
        assert masks[1] == [1] * len(radii)

    def test_profile_resumes_one_pass(self, route, mask_passes, bfs_roots):
        # radii out of order, and interleaved with an equal but distinct
        # order, another order of the same graph, and the same order on
        # another graph: each answer is the oracle's, and the masks make
        # one pass per change of (graph, order), matched by identity
        g, h = random_degenerate_graph(13, 3, 21), random_degenerate_graph(13, 3, 22)
        a = degeneracy_order(g)[0]
        keys = [(g, a), (g, LinearOrder(a.position)), (g, shuffled_order(13, 21)), (h, a)]
        radii = (4, 1, 0, 3, 10**9, 2)
        calls = [(g, a, d) for d in radii]
        calls += [(k, o, d) for d in radii for k, o in keys]
        calls += [(k, o, d) for k, o in keys for d in radii]

        def oracle(k, o, d):
            # a simple path has fewer than n edges
            return max(len(wreach_brute(k, o.position, min(d, k.n), v)) for v in range(k.n))

        expected = {(id(k), id(o), d): oracle(k, o, d) for k, o in keys for d in radii}
        assert [wcol_from_order(k, o, d) for k, o, d in calls] == [
            expected[id(k), id(o), d] for k, o, d in calls
        ]
        # the keys differ in answers, so a memo matched on less would fail
        answers = [[expected[id(k), id(o), d] for d in radii] for k, o in keys]
        assert answers[0] != answers[2] and answers[0] != answers[3]
        if route == "mask":
            assert bfs_roots == []
            changes = 1 + sum(
                k is not k0 or o is not o0 for (k0, o0, _), (k, o, _) in zip(calls, calls[1:])
            )
            assert len(mask_passes) == changes
        else:
            assert mask_passes == [] and len(bfs_roots) == 13 * len(calls)

    def test_profile_is_wcol_at_every_radius(self, route):
        # a distinct equal order makes wcol_from_order run its own pass
        for g, order in _route_corpus():
            for d in (0, 2, 7):
                twin = LinearOrder(order.position)
                assert wcol_profile(g, order, d) == tuple(
                    wcol_from_order(g, twin, i) for i in range(d + 1)
                ), (g.n, d)

    def test_size_rule_before_the_profile(self, monkeypatch, mask_passes, bfs_roots):
        # a profile kept on the masks is not read once the size rule sends
        # the graph to the BFS
        g = random_degenerate_graph(30, 3, 23)
        order = shuffled_order(g.n, 23)
        masks = [wcol_from_order(g, order, d) for d in (4, 1, 2, 10**9)]
        assert bfs_roots == [] and len(mask_passes) == 1
        monkeypatch.setattr(graphs, "MASK_MAX_N", g.n - 1)
        for d, wcol in zip((4, 1, 2, 10**9), masks):
            bfs_roots.clear()
            assert wcol_from_order(g, order, d) == wcol
            assert bfs_roots == list(range(g.n))
        assert len(mask_passes) == 1

    def test_matches_path_enumeration_oracle(self, route):
        for g, order in _route_corpus()[:6]:
            for d in range(4):
                sizes = [len(wreach_brute(g, order.position, d, v)) for v in range(g.n)]
                assert wcol_from_order(g, order, d) == max(sizes, default=0)

    def test_word_boundaries_match_path_enumeration_oracle(self, route):
        # bits of ranks 63/64 and 127/128 sit in different words
        for g in word_boundary_graphs():
            order = shuffled_order(g.n, g.n)
            for d in range(4):
                sizes = [len(wreach_brute(g, order.position, d, v)) for v in range(g.n)]
                assert wcol_from_order(g, order, d) == max(sizes), (g.n, d)
            assert wcol_from_order(g, order, 10**9) == wcol_from_order(g, order, g.n)

    def test_best_order_is_wcol_brute(self, route, small_corpus):
        for name, g in small_corpus:
            if g.n > 6:
                continue
            for d in (1, 2, 3):
                best = min(
                    wcol_from_order(g, LinearOrder.from_sequence(list(p)), d)
                    for p in permutations(range(g.n))
                )
                assert best == wcol_brute(g, d), name

    def test_radius_far_past_the_diameter(self, route):
        # both routes stop once a round (a BFS level) adds nothing
        g = generate_family("path", [20])
        order = shuffled_order(20, 4)
        assert wcol_from_order(g, order, 10**9) == wcol_from_order(g, order, 19)

    def test_size_rule(self, monkeypatch, mask_passes):
        # n = MASK_MAX_N + 1 takes the BFS route, and no mask round runs;
        # raising the constant by one sends it to the masks, with the same
        # answers, from one pass drawn to its second round
        g = random_degenerate_graph(graphs.MASK_MAX_N + 1, 3, 11)
        order = shuffled_order(g.n, 11)
        bfs = [wcol_from_order(g, order, d) for d in (1, 2)]
        assert mask_passes == []
        monkeypatch.setattr(graphs, "MASK_MAX_N", g.n)
        assert [wcol_from_order(g, order, d) for d in (1, 2)] == bfs
        assert mask_passes == [[True, 3]]

    def test_rejects_bad_arguments(self, route):
        g = generate_family("path", [3])
        with pytest.raises(ValueError, match="non-negative"):
            wcol_from_order(g, natural(3), -1)
        with pytest.raises(ValueError, match="order size"):
            wcol_from_order(g, natural(4), 2)


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
        # by the oracle: the constructor does not check, and the CLI's
        # order reader rejects a repeated vertex (tests/test_cli.py)
        assert not is_permutation(LinearOrder((0, 0, 1)).position)
        assert is_permutation(LinearOrder((2, 0, 1)).position)
