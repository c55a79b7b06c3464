import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from sparsedisc.graphs import Graph, generate_family
from sparsedisc.orderings import LinearOrder
from sparsedisc.rng import SplitMix64


def shuffled_order(n: int, seed: int) -> LinearOrder:
    """A seeded uniformly shuffled order of 0..n-1."""
    seq = list(range(n))
    SplitMix64(seed).shuffle(seq)
    return LinearOrder.from_sequence(seq)


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
