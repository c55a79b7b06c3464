import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bfs_distances, wreach_brute
from sparsedisc import power_coloring as power_module
from sparsedisc.discrepancy import beck_fiala, eval_discrepancy
from sparsedisc.errors import ResourceLimitError
from sparsedisc.graphs import Graph, generate_family, graph_power, random_degenerate_graph
from sparsedisc.orderings import (
    LinearOrder,
    degeneracy_order,
    reach_profile,
    wcol_from_order,
    weak_reach,
)
from sparsedisc.power_coloring import (
    in_neighborhood_system,
    orientation_coloring,
    power_coloring,
    wreach_star_system,
)
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import SetSystem, degree, neighborhood_system, trace

from conftest import shuffled_order

natural = lambda n: LinearOrder.from_sequence(list(range(n)))


class TestViewsMatchOracle:
    """reach_profile and wreach_star_system against path enumeration."""

    @given(st.integers(0, 2**32), st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_reach_profile(self, seed, d):
        g = random_degenerate_graph(12, 3, seed)
        order = shuffled_order(g.n, seed)
        expected = tuple(
            max(len(wreach_brute(g, order.position, i, v)) for v in range(g.n))
            for i in range(d + 1)
        )
        assert reach_profile(weak_reach(g, order, d), d) == expected

    def test_reach_profile_no_vertices(self):
        assert reach_profile(weak_reach(Graph(0, ()), natural(0), 3), 3) == (1, 1, 1, 1)

    @given(st.integers(0, 2**32), st.integers(1, 3))
    @settings(max_examples=25, deadline=None)
    def test_star_system(self, seed, d):
        g = generate_family("gnp", [10, 1, 4], seed=seed)
        order = shuffled_order(g.n, seed)
        stars = [
            {u for u in range(g.n) if z in wreach_brute(g, order.position, i, u)}
            for i in range(1, d + 1)
            for z in range(g.n)
        ]
        assert wreach_star_system(weak_reach(g, order, d), d) == SetSystem.from_sets(g.n, stars)

    @pytest.mark.parametrize("d", [6, 9, 40])
    def test_star_system_past_the_diameter(self, d):
        # a path of 7 (diameter 6) and a triangle: no weak-reach radius
        # exceeds 6, so the stars of radii 7..d repeat and are not built
        g = Graph.from_edges(10, [(i, i + 1) for i in range(6)] + [(7, 8), (8, 9), (7, 9)])
        order = shuffled_order(g.n, d)
        stars = [
            {u for u in range(g.n) if z in wreach_brute(g, order.position, i, u)}
            for i in range(1, d + 1)
            for z in range(g.n)
        ]
        assert wreach_star_system(weak_reach(g, order, d), d) == SetSystem.from_sets(g.n, stars)


class TestWreachStarSystem:
    def test_single_edge(self):
        g = generate_family("path", [2])
        s = wreach_star_system(weak_reach(g, natural(2), 1), 1)
        assert s.sets == ((0, 1), (1,))

    def test_degree_bound(self):
        rng = SplitMix64(3)
        for seed in range(8):
            g = generate_family("gnp", [15, 1, 4], seed=seed)
            order = degeneracy_order(g)[0]
            for d in (1, 2, 3):
                s = wreach_star_system(weak_reach(g, order, d), d)
                assert degree(s) <= d * wcol_from_order(g, order, d)

    def test_empty_graph(self):
        g = Graph(4, ((), (), (), ()))
        s = wreach_star_system(weak_reach(g, natural(4), 3), 3)
        assert s.sets == ((0,), (1,), (2,), (3,))

    def test_no_vertices(self):
        assert wreach_star_system(weak_reach(Graph(0, ()), natural(0), 2), 2) == SetSystem(0, ())

    def test_rejects_zero_radius(self):
        with pytest.raises(ValueError):
            wreach_star_system(weak_reach(generate_family("path", [3]), natural(3), 0), 0)

    def test_incidence_cap(self, monkeypatch):
        # the path of 4 in its natural order: root z's BFS runs along
        # z, z + 1, ..., 3, so its stars have sizes 2..4 - z, and root 3
        # has the one star {3}: 9 + 5 + 2 + 1 = 17 incidences at d = 3
        g = generate_family("path", [4])
        full = wreach_star_system(weak_reach(g, natural(4), 3), 3)
        assert sum(map(len, full.sets)) == 17
        monkeypatch.setattr(power_module, "POWER_STAR_CAP", 17)
        assert wreach_star_system(weak_reach(g, natural(4), 3), 3) == full
        monkeypatch.setattr(power_module, "POWER_STAR_CAP", 16)
        with pytest.raises(ResourceLimitError, match="needs at least 17"):
            wreach_star_system(weak_reach(g, natural(4), 3), 3)


class TestPowerColoring:
    def test_depth_one_bound_is_three_deg_plus_three(self):
        for name, params in [("grid", [4, 4]), ("cycle", [7]), ("complete", [5])]:
            g = generate_family(name, params)
            _, dgn = degeneracy_order(g)
            _, cert = power_coloring(g, 1)
            assert cert.claimed_bound == 3 * (dgn + 1)

    def test_grid_4x4_depth2(self):
        g = generate_family("grid", [4, 4])
        chi, cert = power_coloring(g, 2)
        profile = reach_profile(weak_reach(g, degeneracy_order(g)[0], 2), 2)
        assert cert.reach_profile == profile
        assert cert.claimed_bound == (4 * profile[1] + 1) * profile[2]
        assert cert.achieved < cert.claimed_bound

    def test_single_vertex(self):
        g = Graph(1, ((),))
        for d in (1, 2, 5):
            _, cert = power_coloring(g, d)
            assert cert.achieved == 0
            assert cert.claimed_bound >= 3

    def test_certificate_strict_on_corpus(self):
        graphs_ = [
            generate_family("grid", [5, 5]),
            generate_family("grid", [6, 6]),
            generate_family("gnp", [40, 1, 10], seed=4),
            generate_family("gnp", [30, 1, 6], seed=5),
            generate_family("cycle", [24]),
        ]
        for g in graphs_:
            for d in (1, 2, 3):
                _, cert = power_coloring(g, d)
                assert cert.achieved < cert.claimed_bound

    def test_traced_recoloring_stays_below_bound(self):
        # the hereditary claim is per subset: rerun the solver on the
        # traced star system and evaluate on the traced power neighborhoods
        rng = SplitMix64(6)
        g = generate_family("gnp", [25, 1, 6], seed=2)
        order = degeneracy_order(g)[0]
        for d in (1, 2):
            stars = wreach_star_system(weak_reach(g, order, d), d)
            power_sys = neighborhood_system(graph_power(g, d))
            profile = reach_profile(weak_reach(g, order, d), d)
            bound = (2 * d * profile[d - 1] + 1) * profile[d]
            for _ in range(20):
                subset = [v for v in range(g.n) if rng.bernoulli(1, 2)]
                if not subset:
                    continue
                traced_stars, _ = trace(stars, subset)
                traced_power, _ = trace(power_sys, subset)
                chi = beck_fiala(traced_stars)
                achieved, _ = eval_discrepancy(traced_power, chi)
                assert achieved < bound

    def test_certificate_json_reproducible(self):
        g = generate_family("grid", [5, 5])
        a = power_coloring(g, 2)[1].to_json()
        b = power_coloring(g, 2)[1].to_json()
        assert a == b

    def test_supplied_order_is_used(self):
        g = generate_family("path", [6])
        order = LinearOrder.from_sequence([5, 4, 3, 2, 1, 0])
        _, cert = power_coloring(g, 2, order)
        assert cert.ordering == order

    def test_one_weak_reach_pass(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return weak_reach(*args)

        monkeypatch.setattr(power_module, "weak_reach", counted)
        g = random_degenerate_graph(40, 3, seed=2)
        for d in (1, 2, 3):
            calls.clear()
            power_coloring(g, d)
            assert len(calls) == 1

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            power_coloring(generate_family("path", [3]), 0)

    def test_radius_cap_before_any_pass(self):
        # n*d = 2*10^13: the cap fires before the reach profile allocates
        # d + 1 counters
        g = generate_family("path", [20])
        with pytest.raises(ResourceLimitError, match="n\\*d"):
            power_coloring(g, 10**12)

    def test_radius_far_past_the_diameter(self):
        g = generate_family("path", [20])
        _, far = power_coloring(g, 200_000)
        _, near = power_coloring(g, 19)
        assert far.achieved == near.achieved
        assert far.reach_profile[:20] == near.reach_profile
        assert set(far.reach_profile[20:]) == {near.reach_profile[-1]}


def _ball_sums_max(g: Graph, d: int, values: tuple[int, ...]) -> int:
    """max over v of |sum of chi over the vertices at distance 1..d|."""
    best = 0
    for v in range(g.n):
        ball = [w for w, r in bfs_distances(g, v).items() if 1 <= r <= d]
        best = max(best, abs(sum(values[w] for w in ball)))
    return best


def _certificate_corpus() -> list[Graph]:
    rng = SplitMix64(1212)
    out = [generate_family("grid", [3, 4]), generate_family("grid", [5, 5])]
    out += [generate_family("gnp", [20, 1, 5], seed=rng.randrange(2**32)) for _ in range(3)]
    out += [random_degenerate_graph(24, 3, rng.randrange(2**32)) for _ in range(3)]
    # an isolated vertex beside a triangle
    out.append(Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)]))
    # disconnected: a 5-cycle, a path of 4 and two isolated vertices
    out.append(Graph.from_edges(11, [(i, (i + 1) % 5) for i in range(5)] + [(5, 6), (6, 7), (7, 8)]))
    # diameter 2, so d = 3 and 4 reach past it
    out.append(generate_family("complete_bipartite", [3, 4]))
    return out


class TestCertificateOracle:
    """cert.achieved against ball sums from an independent BFS."""

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_achieved_matches_ball_sums(self, d):
        for g in _certificate_corpus():
            chi, cert = power_coloring(g, d)
            assert cert.achieved == _ball_sums_max(g, d, chi.values)


class TestOrientationColoring:
    @pytest.mark.parametrize("seed", range(6))
    def test_in_neighborhoods_match_brute(self, seed):
        # vertex 11 is isolated; its in-neighborhood is empty
        g = Graph.from_edges(12, generate_family("gnp", [11, 1, 3], seed=seed).edges())
        order = shuffled_order(g.n, seed)
        pos = order.position
        later = [{w for w in g.adjacency[v] if pos[w] > pos[v]} for v in range(g.n)]
        assert in_neighborhood_system(g, order) == SetSystem.from_sets(g.n, later)

    def test_in_neighborhoods_no_vertices(self):
        assert in_neighborhood_system(Graph(0, ()), natural(0)) == SetSystem(0, ())

    def test_in_neighborhood_degree_bounded_by_degeneracy(self):
        for seed in range(8):
            g = generate_family("gnp", [20, 1, 5], seed=seed)
            order, dgn = degeneracy_order(g)
            assert degree(in_neighborhood_system(g, order)) <= dgn

    def test_bound_strict_on_corpus(self):
        graphs_ = [
            generate_family("grid", [5, 5]),
            generate_family("gnp", [30, 1, 5], seed=7),
            generate_family("complete_bipartite", [3, 9]),
        ]
        for g in graphs_:
            chi, bound = orientation_coloring(g)
            d, _ = eval_discrepancy(neighborhood_system(g), chi)
            assert d < bound

    def test_traced_recoloring(self):
        rng = SplitMix64(8)
        g = generate_family("gnp", [22, 1, 4], seed=9)
        order, dgn = degeneracy_order(g)
        ins = in_neighborhood_system(g, order)
        full = neighborhood_system(g)
        for _ in range(25):
            subset = [v for v in range(g.n) if rng.bernoulli(1, 2)]
            if not subset:
                continue
            traced_ins, _ = trace(ins, subset)
            traced_full, _ = trace(full, subset)
            chi = beck_fiala(traced_ins)
            d, _ = eval_discrepancy(traced_full, chi)
            assert d < 3 * dgn or dgn == 0
