import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bipartite_double, canonical_system, closure_brute, closure_by_element, trace_brute
from sparsedisc import setsystems
from sparsedisc.errors import ResourceLimitError
from sparsedisc.graphs import generate_family, sylvester_graph
from sparsedisc.orderings import degeneracy_order
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import (
    SetSystem,
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

    def test_rejects_negative_ground_size(self):
        for n in (-1, -5):
            for sets in ([], [[0]]):
                with pytest.raises(ValueError, match="negative ground size"):
                    system(n, sets)

    def test_rejects_out_of_range(self):
        for sets in ([[0, 2]], [[-1, 0]], [[1], [1, 0, 5]]):
            with pytest.raises(ValueError, match="out of ground range"):
                system(2, sets)

    @pytest.mark.parametrize("element", [3, -1])
    def test_json_rejects_out_of_range(self, element):
        text = '{"ground_size": 3, "sets": [[0], [%d, 1]]}' % element
        with pytest.raises(ValueError, match="out of ground range"):
            SetSystem.from_json(text)

    # the constructor does not check the canonical form, which the
    # package's builders make (tests/test_canonical.py); each defect is one
    # the canonical-form oracle must reject
    @pytest.mark.parametrize(
        "sets, words",
        [
            (((),), "empty"),
            (((1, 0),), "sorted and duplicate-free"),
            (((0, 0, 1),), "sorted and duplicate-free"),
            (((-1, 0),), "out of ground range"),
            (((0,), (0,)), "duplicate set"),
            (((1,), (0, 1)), "sorted lexicographically"),
            (((0,), (1,), (0,)), "sorted lexicographically"),
        ],
    )
    def test_oracle_rejects_non_canonical(self, sets, words):
        assert not canonical_system(SetSystem(3, sets)), words


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

    def test_non_edge(self):
        g = generate_family("path", [3])
        with pytest.raises(ValueError, match="\\(0,2\\) is colored but is not an edge"):
            edge_color_system(g, {(0, 1): 1, (1, 2): 2, (0, 2): 1})


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
        with pytest.raises(ValueError):
            trace(system(3, [[0]]), [0, -1])

    def test_matches_brute(self):
        # empty, singletons, the whole ground in several spellings and
        # proper subsets, each against the frozenset oracle
        rng = SplitMix64(58)
        checked = 0
        for _ in range(40):
            s = random_system(rng, max_ground=60, max_degree=4, max_sets=12)
            n = s.ground_size
            shuffled = list(range(n))
            rng.shuffle(shuffled)
            subsets = [[], [0], [n - 1], [rng.randrange(n)], shuffled, shuffled + shuffled[: n // 2], range(n)]
            for _ in range(4):
                mask = [v for v in range(n) if rng.bernoulli(1, 2)]
                subsets += [mask, mask[::-1] + mask[:3]]
            for sub in subsets:
                traced, mapping = trace(s, sub)
                assert (traced.ground_size, traced.sets, mapping) == trace_brute(s.sets, sub)
                assert canonical_system(traced)
                checked += 1
        assert checked == 40 * 15

    def test_whole_ground_is_the_system_itself(self):
        rng = SplitMix64(59)
        for _ in range(10):
            s = random_system(rng, max_ground=40, max_degree=3, max_sets=8)
            whole = list(range(s.ground_size))[::-1] * 2
            for sub in (range(s.ground_size), whole):
                traced, mapping = trace(s, sub)
                assert traced is s and mapping == tuple(range(s.ground_size))

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

    def test_matches_brute(self):
        # every subfamily, so a closure that always misses the same kind of
        # intersection fails here; ground <= 10 and m <= 8
        rng = SplitMix64(16)
        corpus = [system(0, []), system(5, []), system(1, [[0]])]
        for _ in range(300):
            n, m = rng.randrange(11), rng.randrange(9)
            keep = 1 + rng.randrange(3)  # element kept with chance keep/4
            corpus.append(
                system(n, [[v for v in range(n) if rng.bernoulli(keep, 4)] for _ in range(m)])
            )
        for s in corpus:
            assert set(intersection_closure(s).sets) == closure_brute(s), s
            assert closure_by_element(s) == closure_brute(s), s

    def test_three_rounds_of_growth(self):
        # the complements of the singletons of a 6-set: two of them meet in
        # a 4-set, up to four in a 2-set, and only five in a singleton, so
        # growing the family by pairwise intersections takes 3 rounds
        s = system(6, [[v for v in range(6) if v != i] for i in range(6)])
        family, rounds = set(map(frozenset, s.sets)), 0
        while True:
            grown = family | {a & b for a in family for b in family if a & b}
            if grown == family:
                break
            family, rounds = grown, rounds + 1
        assert rounds == 3
        assert set(intersection_closure(s).sets) == closure_brute(s)

    def test_matches_element_oracle_on_random_systems(self):
        # ground up to 500 and up to 30 sets: past closure_brute's reach
        rng = SplitMix64(21)
        for _ in range(200):
            s = random_system(rng)
            assert set(intersection_closure(s).sets) == closure_by_element(s), s

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

    def test_cap(self, monkeypatch):
        rng = SplitMix64(15)
        sets = [[rng.randrange(40) for _ in range(12)] for _ in range(40)]
        monkeypatch.setattr(setsystems, "CLOSURE_CAP", 10)
        with pytest.raises(ResourceLimitError):
            intersection_closure(system(40, sets))

    @pytest.mark.parametrize(
        "s",
        [
            system(6, [[v for v in range(6) if v != i] for i in range(6)]),  # grows 3 rounds
            system(3, [[0, 1], [1, 2], [0, 1, 2]]),  # the ground is a member
            system(4, [[0], [1], [2]]),  # only the ground joins
        ],
    )
    def test_cap_boundary(self, monkeypatch, s):
        size = len(closure_brute(s))
        monkeypatch.setattr(setsystems, "CLOSURE_CAP", size)
        assert len(intersection_closure(s).sets) == size
        monkeypatch.setattr(setsystems, "CLOSURE_CAP", size - 1)
        with pytest.raises(ResourceLimitError):
            intersection_closure(s)


@given(st.integers(0, 2**31))
@settings(max_examples=25, deadline=None)
def test_trace_on_full_ground_is_identity(seed):
    s = random_system(SplitMix64(seed), max_ground=10, max_degree=3, max_sets=6)
    traced, _ = trace(s, range(s.ground_size))
    assert traced == s
