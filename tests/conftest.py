import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sparsedisc import discrepancy, graphs, orderings, pointer, setsystems
from sparsedisc.discrepancy import Coloring
from sparsedisc.graphs import Graph, generate_family, random_degenerate_graph
from sparsedisc.orderings import LinearOrder
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import SetSystem


def shuffled_order(n: int, seed: int) -> LinearOrder:
    """A seeded uniformly shuffled order of 0..n-1."""
    seq = list(range(n))
    SplitMix64(seed).shuffle(seq)
    return LinearOrder.from_sequence(seq)


def word_boundary_graphs() -> list[Graph]:
    """Graphs at and around the 64-bit word boundaries of the mask kernel
    (n = 63, 64, 65, 127, 128, 129), one with no edges, and one whose few
    edges join vertices in different words among isolated vertices."""
    out = [random_degenerate_graph(n, 3, n) for n in (63, 64, 65, 127, 128, 129)]
    out.append(Graph(70, ((),) * 70))
    out.append(Graph.from_edges(130, [(0, 129), (63, 64), (64, 128), (1, 127), (65, 66)]))
    return out


def conserving_beck_fiala(s: SetSystem) -> tuple[Coloring, int]:
    """beck_fiala_with_stats(s), drained from the solver's own rounds, with
    the Beck-Fiala invariant asserted after each one: every active set's
    exact color sum is 0."""
    num, rounds = [1] * s.ground_size, 0
    for rounds, (active, num, den) in enumerate(discrepancy._rounds(s), 1):
        for i in active:
            assert sum(Fraction(num[v], den[v]) for v in s.sets[i]) == 0, (rounds, i)
    return Coloring(tuple(num)), rounds


def wreach_rows(levels: list[list[list[int]]]) -> list[dict[int, int]]:
    """Transpose weak_reach's root-major levels into WReach rows:
    rows[v][z] is the least radius i with z in WReach_i[v]."""
    rows: list[dict[int, int]] = [{} for _ in levels]
    for z, lv in enumerate(levels):
        for i, layer in enumerate(lv):
            for v in layer:
                rows[v][z] = i
    return rows


@pytest.fixture(params=["mask", "bfs"])
def route(request, monkeypatch) -> str:
    """Run a test once per bounded-reach route: the bit masks at the
    default size rule, then the BFS, forced for every graph (the empty one
    too) by setting graphs.MASK_MAX_N to -1."""
    if request.param == "bfs":
        monkeypatch.setattr(graphs, "MASK_MAX_N", -1)
    return request.param


@pytest.fixture()
def mask_passes(monkeypatch) -> list[list]:
    """The passes of graphs._reach_masks, one [positions given, yields
    drawn] entry per pass, counted as the caller draws its rounds."""
    passes = []
    masks = graphs._reach_masks

    def spy(g, pos=None):
        drawn = [pos is not None, 0]
        passes.append(drawn)

        def rounds():
            for item in masks(g, pos):
                drawn[1] += 1
                yield item

        return rounds()

    monkeypatch.setattr(graphs, "_reach_masks", spy)
    return passes


@pytest.fixture()
def bfs_roots(monkeypatch) -> list[int]:
    """The roots of every graphs.bfs_levels call, in call order, from
    `graphs` itself and from `orderings`, which imports it by name."""
    roots = []
    bfs = graphs.bfs_levels

    def spy(adj, z, d, seen, stamp):
        roots.append(z)
        return bfs(adj, z, d, seen, stamp)

    for module in (graphs, orderings):
        monkeypatch.setattr(module, "bfs_levels", spy)
    return roots


@pytest.fixture()
def closure_inputs(monkeypatch) -> list[SetSystem]:
    """The base systems that `pointer.definable_closure` hands to the
    intersection closure, recorded call by call."""
    recorded = []

    def recording(s):
        recorded.append(s)
        return setsystems.intersection_closure(s)

    monkeypatch.setattr(pointer, "intersection_closure", recording)
    return recorded


@pytest.fixture(scope="session")
def small_corpus() -> list[tuple[str, Graph]]:
    """Named graphs with at most 7 vertices, used by exhaustive checks."""
    return [
        ("P2", generate_family("path", [2])),
        ("P4", generate_family("path", [4])),
        ("P5", generate_family("path", [5])),
        ("C5", generate_family("cycle", [5])),
        ("C6", generate_family("cycle", [6])),
        ("K4", generate_family("complete", [4])),
        ("K6", generate_family("complete", [6])),
        ("star6", generate_family("complete_bipartite", [1, 5])),
        ("grid2x3", generate_family("grid", [2, 3])),
        ("gnp7a", generate_family("gnp", [7, 2, 5], seed=11)),
        ("gnp7b", generate_family("gnp", [7, 1, 2], seed=12)),
        ("K23", generate_family("complete_bipartite", [2, 3])),
    ]
