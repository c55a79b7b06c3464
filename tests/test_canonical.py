"""Every builder's output is in canonical form.

The constructors of `SetSystem`, `Graph` and `LinearOrder` do not check
their input: outside data is checked where it enters (`from_sets`,
`from_json`, `from_edges`, `read_edge_list` and the CLI's order reader),
and the package's own builders make the canonical form as they go.  This
file is the proof of the second half: the oracles of `tests/oracles.py`
are asserted on the output of every builder over a seeded corpus.
"""
from conftest import shuffled_order, word_boundary_graphs
from oracles import canonical_graph, canonical_system, is_permutation
from sparsedisc.formulas import parse_formula
from sparsedisc.graphs import (
    FAMILIES,
    Graph,
    generate_family,
    graph_power,
    random_degenerate_graph,
    sylvester_graph,
)
from sparsedisc.orderings import LinearOrder, degeneracy_order, weak_reach
from sparsedisc.pointer import definable_closure, defined_system
from sparsedisc.power_coloring import in_neighborhood_system, wreach_star_system
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import (
    SetSystem,
    edge_color_system,
    intersection_closure,
    neighborhood_system,
    random_system,
    trace,
)
from test_pointer import WORKED, qf_corpus, random_formula, random_structure

# parameters of every generator family, small and degenerate ones included
FAMILY_PARAMS = {
    "path": [[0], [1], [7]],
    "cycle": [[3], [8]],
    "grid": [[1, 1], [3, 4]],
    "complete": [[0], [1], [5]],
    "complete_bipartite": [[0, 3], [2, 3]],
    "gnp": [[0, 1, 2], [12, 1, 3], [15, 2, 3]],
    "all_d_subsets": [[4, 0], [4, 2], [5, 3]],
}


def graph_corpus() -> list[Graph]:
    """Seeded random graphs, generator families, and the word-boundary
    graphs of the mask kernel."""
    shapes = [(0, 2), (1, 2), (9, 1), (20, 2), (40, 3), (70, 4)]
    out = [random_degenerate_graph(n, p, seed) for seed, (n, p) in enumerate(shapes)]
    out += [generate_family("gnp", [18, 1, 4], seed=seed) for seed in range(3)]
    out += [generate_family("grid", [4, 5]), Graph(6, ((),) * 6)]
    return out + word_boundary_graphs()


def system_corpus() -> list[SetSystem]:
    rng = SplitMix64(41)
    return [random_system(rng, max_ground=40, max_degree=4, max_sets=20) for _ in range(60)]


class TestGraphBuilders:
    def test_every_family_is_canonical(self):
        assert set(FAMILY_PARAMS) == set(FAMILIES)
        for name, rows in FAMILY_PARAMS.items():
            for params in rows:
                for seed in range(2):
                    assert canonical_graph(generate_family(name, params, seed=seed)), (name, params)
        for p in range(4):
            assert canonical_graph(sylvester_graph(p)), p

    def test_random_degenerate_graph(self):
        for seed in range(10):
            assert canonical_graph(random_degenerate_graph(30 + seed, 1 + seed % 4, seed))

    def test_graph_power(self):
        for g in graph_corpus():
            for d in (1, 2, 3, 5):
                assert canonical_graph(graph_power(g, d)), (g.n, d)

    def test_degeneracy_order_is_a_permutation(self, monkeypatch):
        # the sequence handed to from_sequence must itself be a permutation:
        # one that repeats a vertex can still give a permutation position
        sequences = []
        build = LinearOrder.from_sequence.__func__

        def recording(cls, seq):
            sequences.append(list(seq))
            return build(cls, seq)

        corpus = graph_corpus()
        monkeypatch.setattr(LinearOrder, "from_sequence", classmethod(recording))
        for g in corpus:
            sequences.clear()
            order, _ = degeneracy_order(g)
            [seq] = sequences
            assert sorted(seq) == list(range(g.n)), g.n
            assert order.sequence() == seq, g.n
            assert is_permutation(order.position), g.n


class TestSystemBuilders:
    def test_from_sets_and_random_system(self):
        rng = SplitMix64(42)
        for _ in range(100):
            n = rng.randrange(12)
            raw = [
                [rng.randrange(n) for _ in range(rng.randrange(6))] if n else []
                for _ in range(rng.randrange(10))
            ]
            assert canonical_system(SetSystem.from_sets(n, raw)), (n, raw)
        assert all(canonical_system(s) for s in system_corpus())

    def test_neighborhood_and_edge_color_systems(self):
        rng = SplitMix64(43)
        for g in graph_corpus():
            assert canonical_system(neighborhood_system(g))
            gamma = {e: 1 + rng.randrange(2) for e in g.edges()}
            assert canonical_system(edge_color_system(g, gamma))

    def test_weak_reach_stars_and_in_neighborhoods(self):
        for i, g in enumerate(graph_corpus()):
            for order in (degeneracy_order(g)[0], shuffled_order(g.n, i)):
                assert canonical_system(in_neighborhood_system(g, order))
                for d in (1, 2, 3):
                    assert canonical_system(wreach_star_system(weak_reach(g, order, d), d))

    def test_trace(self):
        rng = SplitMix64(44)
        for s in system_corpus():
            for _ in range(3):
                subset = [v for v in range(s.ground_size) if rng.bernoulli(1, 2)]
                traced, _ = trace(s, subset)
                assert canonical_system(traced)

    def test_intersection_closure(self):
        for s in system_corpus():
            assert canonical_system(intersection_closure(s))
        for g in graph_corpus()[:8]:
            assert canonical_system(intersection_closure(neighborhood_system(g)))


class TestPointerBuilders:
    def test_defined_system(self):
        rng = SplitMix64(45)
        for _ in range(150):
            n = rng.randrange(6)
            funcs = ("f", "g")[: 1 + rng.randrange(2)]
            preds = ("A", "B")[: 1 + rng.randrange(2)]
            m = random_structure(rng, n, preds=preds, funcs=funcs)
            assert canonical_system(defined_system(m, random_formula(rng, funcs, preds)))

    def test_definable_closure_and_its_base(self, closure_inputs):
        rng = SplitMix64(46)
        cases = [(m, [eta]) for _, m, eta in list(qf_corpus())[:6]]
        phis = [parse_formula(WORKED), parse_formula("g(x1)=y1 | A(x1)"), parse_formula("f(x1)=y1")]
        cases += [(random_structure(rng, n), phis) for n in (0, 1, 2, 7, 12)]
        for m, formulas in cases:
            closure, _, _ = definable_closure(m, formulas)
            assert canonical_system(closure_inputs[-1]) and canonical_system(closure)
        assert len(closure_inputs) == len(cases)
