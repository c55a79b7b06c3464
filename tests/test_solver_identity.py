"""The exact solver's null vector and its outputs, pinned.

The null vector must be a positive multiple of the canonical rational one
(the oracle), so every step length and every iterate of the rounding is
the same rational as with plain Gauss-Jordan elimination; the frozen
digest pins the colorings and round counts themselves, and the rational
reference loop checks them on seeded systems and edge cases.
"""
import hashlib
from fractions import Fraction

import pytest

from oracles import beck_fiala_reference, null_vector_reference
from sparsedisc.discrepancy import _null_vector, beck_fiala_with_stats
from sparsedisc.graphs import random_degenerate_graph
from sparsedisc.orderings import degeneracy_order, weak_reach
from sparsedisc.power_coloring import wreach_star_system
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import SetSystem, random_system


def _masks(rows: list[list[int]]) -> list[int]:
    """Rows as the bitmasks _null_vector takes: bit j set when entry j is 1."""
    return [sum(1 << j for j, e in enumerate(row) if e) for row in rows]


def _col_weight(rows: list[list[int]]) -> int:
    """The largest number of ones in a column: the system degree t that
    the solver passes to _null_vector."""
    return max((sum(col) for col in zip(*rows)), default=0)


def _wide_matrix(rng: SplitMix64, max_rows: int = 12) -> tuple[list[list[int]], int]:
    """A random 0/1 matrix with more columns than rows, salted with
    duplicate rows, sums of disjoint rows, zero rows and zero columns."""
    r = 1 + rng.randrange(max_rows)
    ncols = r + 1 + rng.randrange(3)
    density = 2 + rng.randrange(2)
    rows = [[1 if rng.bernoulli(density, 5) else 0 for _ in range(ncols)] for _ in range(r)]
    for i in range(r):
        kind = rng.randrange(8)
        if kind == 0:
            rows[i] = list(rows[rng.randrange(r)])
        elif kind == 1:
            a, b = rows[rng.randrange(r)], rows[rng.randrange(r)]
            if not any(x and y for x, y in zip(a, b)):
                rows[i] = [x + y for x, y in zip(a, b)]
        elif kind == 2:
            rows[i] = [0] * ncols
    for _ in range(rng.randrange(3)):
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    return rows, ncols


def _check_against_reference(rows: list[list[int]], ncols: int) -> None:
    ref = null_vector_reference(rows, ncols)
    j = next(k for k, e in enumerate(ref) if e)
    got = _null_vector(_masks(rows), ncols, _col_weight(rows))
    assert all(type(e) is int for e in got)
    assert len(got) == ncols
    assert all(sum(a * b for a, b in zip(row, got)) == 0 for row in rows)
    scale = Fraction(got[j]) / ref[j]
    assert scale > 0
    assert [Fraction(e) for e in got] == [scale * e for e in ref]


def _sylvester_core(order: int) -> list[list[int]]:
    """The 0/1 core of the Sylvester Hadamard matrix of the given order:
    the first row and column dropped, -1 read as 1 and +1 as 0.  No 0/1
    matrix of its size has a larger determinant."""
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-e for e in row] for row in h]
    return [[1 if e < 0 else 0 for e in row[1:]] for row in h[1:]]


class TestNullVector:
    def test_positive_multiple_of_reference(self):
        rng = SplitMix64(2024)
        for _ in range(600):
            _check_against_reference(*_wide_matrix(rng))

    def test_up_to_sixty_rows(self):
        rng = SplitMix64(4048)
        for _ in range(16):
            _check_against_reference(*_wide_matrix(rng, max_rows=60))

    @pytest.mark.parametrize("order", [16, 32, 64])
    def test_largest_determinants(self, order):
        # determinants 2^17, 2^49 and 2^129 at 15, 31 and 63 rows: the
        # packed fields must hold minors this large
        rows = [row + [1] for row in _sylvester_core(order)]
        _check_against_reference(rows, order)

    @pytest.mark.parametrize("blocks", [4, 8])
    def test_column_weight_below_row_count(self, blocks):
        # block-diagonal cores of order 8 (column weight 4, determinant 32
        # each) and one extra column through four blocks: t = 4 < k, so
        # the fields are sized by t, and the minors reach 32^blocks
        core = _sylvester_core(8)
        k = 7 * blocks
        rows = [[0] * (k + 1) for _ in range(k)]
        for b in range(blocks):
            for i, row in enumerate(core):
                rows[7 * b + i][7 * b:7 * b + 7] = row
        for b in range(0, blocks, blocks // 4):
            rows[7 * b + 3][k] = 1
        assert _col_weight(rows) == 4
        _check_against_reference(rows, k + 1)

    def test_pivots_beyond_unit_determinants(self):
        # pivots 1, 1, 2, -3: exact divisions by 2, and a negative last
        # pivot
        rows = [
            [1, 1, 0, 1, 0],
            [0, 1, 1, 1, 0],
            [1, 0, 1, 1, 0],
            [1, 1, 1, 0, 1],
        ]
        assert _null_vector(_masks(rows), 5, _col_weight(rows)) == [-1, -1, -1, 2, 3]
        assert null_vector_reference(rows, 5) == [Fraction(k, 3) for k in (-1, -1, -1, 2, 3)]

    def test_zero_entry_rows_rescaled_by_a_fraction(self):
        # pivots 1, -1, -2, 1, 1: at the fourth step the last row has a 0
        # in the pivot column and is rescaled by 1/-2, not by 1 // -2
        rows = [
            [1, 1, 0, 0, 1, 0],
            [1, 0, 1, 1, 0, 1],
            [0, 1, 1, 0, 1, 0],
            [0, 0, 1, 0, 1, 1],
            [0, 0, 0, 0, 1, 0],
        ]
        assert _null_vector(_masks(rows), 6, _col_weight(rows)) == [-1, 1, -1, 1, 0, 1]
        assert null_vector_reference(rows, 6) == [-1, 1, -1, 1, 0, 1]

    def test_square_rejected(self):
        with pytest.raises(AssertionError):
            _null_vector(_masks([[1, 0], [0, 1]]), 2, 1)


def _large_degree4(n: int, rng: SplitMix64) -> SetSystem:
    """Sets of size 20, four disjoint covers of the ground: degree 4, m = n/5."""
    sets = []
    for _ in range(4):
        perm = list(range(n))
        rng.shuffle(perm)
        sets.extend(perm[i:i + 20] for i in range(0, n, 20))
    return SetSystem.from_sets(n, sets)


def _corpus() -> list[tuple[str, SetSystem]]:
    rng = SplitMix64(31337)
    out = [(f"random {k}", random_system(rng, max_ground=200)) for k in range(24)]
    out += [(f"size-20 degree-4 n={n}", _large_degree4(n, rng)) for n in (60, 60, 100)]
    g = random_degenerate_graph(120, 4, seed=5)
    order, _ = degeneracy_order(g)
    out.append(("wreach stars n=120 p=4 d=2", wreach_star_system(weak_reach(g, order, 2), 2)))
    return out


# sha256 of the corpus outputs of the Gauss-Jordan solver over Fractions
FROZEN_DIGEST = "a97ee8fd7cb14d88fda9a0be035c1dd73fb2bb55f576b972b93630d0a3c7501b"


def test_colorings_and_rounds_frozen():
    h = hashlib.sha256()
    for label, s in _corpus():
        chi, rounds = beck_fiala_with_stats(s)
        signs = "".join("+" if v == 1 else "-" for v in chi.values)
        h.update(f"{label}|{signs}|{rounds}\n".encode())
    assert h.hexdigest() == FROZEN_DIGEST


# sha256 of the (coloring, rounds) of one size-20 degree-4 system with
# n = 300: 236 rounds with up to 60 active rows, far more than the corpus
# above reaches; scripts/solver_scaling.py --sizes 300 prints its first 12
# digits
FROZEN_DIGEST_N300 = "3454bcc96b4fc28c8bdcd920cc33a78a6b1631584d96596b759f090105a064c7"


def test_wide_rounds_frozen():
    chi, rounds = beck_fiala_with_stats(_large_degree4(300, SplitMix64(1)))
    signs = "".join("+" if v == 1 else "-" for v in chi.values)
    assert rounds == 236
    assert hashlib.sha256(f"{signs}|{rounds}".encode()).hexdigest() == FROZEN_DIGEST_N300


class TestMatchesReference:
    def _check(self, s: SetSystem) -> tuple[tuple[int, ...], int]:
        chi, rounds = beck_fiala_with_stats(s, check_conservation=True)
        assert (chi.values, rounds) == beck_fiala_reference(s)
        return chi.values, rounds

    def test_random_systems(self):
        rng = SplitMix64(8080)
        for _ in range(300):
            self._check(random_system(rng, max_ground=120))

    def test_no_sets(self):
        assert self._check(SetSystem.from_sets(4, [])) == ((1, 1, 1, 1), 0)

    def test_empty_ground(self):
        assert self._check(SetSystem.from_sets(0, [])) == ((), 0)

    def test_every_set_within_degree(self):
        # degree 2, no set larger than 2: one round of strays, all +1
        s = SetSystem.from_sets(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        assert self._check(s) == ((1, 1, 1, 1), 1)

    def test_element_in_no_set(self):
        s = SetSystem.from_sets(6, [[0, 1, 2, 3], [2, 3, 4]])
        assert self._check(s) == ((-1, 1, -1, 1, 1, 1), 3)

    def test_duplicate_sets(self):
        s = SetSystem.from_sets(5, [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0], [0, 1, 2, 3, 4]])
        assert self._check(s) == self._check(SetSystem.from_sets(5, [[0, 1, 2, 3, 4]]))

    def test_single_set(self):
        assert self._check(SetSystem.from_sets(5, [[0, 1, 2, 3, 4]])) == ((-1, 1, -1, 1, 1), 3)
