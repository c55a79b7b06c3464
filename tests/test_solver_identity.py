"""The exact solver's null vector and its outputs, pinned.

The null vector must be a positive multiple of the canonical rational one
(the oracle), so every step length and every iterate of the rounding is
the same rational as with plain Gauss-Jordan elimination; the frozen
digest pins the colorings and round counts themselves, and the rational
reference loop checks them on seeded systems and edge cases.
"""
import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import conserving_beck_fiala
from oracles import beck_fiala_reference, null_vector_reference
from sparsedisc import discrepancy
from sparsedisc.discrepancy import _field_width, _Tableau, beck_fiala_with_stats
from sparsedisc.graphs import random_degenerate_graph
from sparsedisc.orderings import degeneracy_order, weak_reach
from sparsedisc.power_coloring import wreach_star_system
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import SetSystem, degree, random_system


def _packed_null_vector(rows: list[list[int]], ncols: int) -> list[int]:
    """The null vector of a fresh _Tableau of a 0/1 matrix given as lists:
    entry (i, c) becomes bit w*(ncols-1-c) + 1 of row i, in fields as wide
    as the solver makes them for the matrix's row count and column weight."""
    w = _field_width(len(rows), _col_weight(rows))
    top = w * (ncols - 1) + 1
    packed = [sum(1 << top - w * c for c, e in enumerate(row) if e) for row in rows]
    nu = [0] * ncols
    for c, e in _Tableau(packed, ncols, w, {}).vector():
        nu[c] = e
    return nu


def _col_weight(rows: list[list[int]]) -> int:
    """The largest number of ones in a column: the system degree t that
    the solver sizes the fields by."""
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
    got = _packed_null_vector(rows, ncols)
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
        assert _packed_null_vector(rows, 5) == [-1, -1, -1, 2, 3]
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
        assert _packed_null_vector(rows, 6) == [-1, 1, -1, 1, 0, 1]
        assert null_vector_reference(rows, 6) == [-1, 1, -1, 1, 0, 1]

    def test_square_rejected(self):
        with pytest.raises(AssertionError):
            _packed_null_vector([[1, 0], [0, 1]], 2)


def _tableau_with_slacks(rows: list[list[int]], ncols: int) -> _Tableau:
    """A fresh _Tableau of a 0/1 matrix given as lists, packed as the
    solver packs it, with a slack column for every row after the columns."""
    k = len(rows)
    w = _field_width(k, max(_col_weight(rows), 1))
    top = w * (ncols + k - 1) + 1
    packed = [
        sum(1 << top - w * c for c, e in enumerate(row) if e) + (1 << top - w * (ncols + i))
        for i, row in enumerate(rows)
    ]
    return _Tableau(packed, ncols, w, {i: top - w * (ncols + i) for i in range(k)})


def _check_tableau(tab: _Tableau, rows: list[list[int]], ncols: int,
                   cols: set[int], dropped: set[int]) -> None:
    """The tableau's vector must be a positive multiple of the reference
    null vector of the matrix without the deleted columns and rows, and 0
    on the deleted columns."""
    keep = [c for c in range(ncols) if c not in cols]
    sub = [[row[c] for c in keep] for i, row in enumerate(rows) if i not in dropped]
    ref = [Fraction(0)] * ncols
    for c, e in zip(keep, null_vector_reference(sub, len(keep))):
        ref[c] = e
    got = [0] * ncols
    for c, e in tab.vector():
        got[c] = e
    assert all(type(e) is int for e in got)
    j = next(c for c, e in enumerate(ref) if e)
    scale = Fraction(got[j]) / ref[j]
    assert scale > 0
    assert [Fraction(e) for e in got] == [scale * e for e in ref]


class TestRowDeletion:
    """Deleting rows from a live tableau through their slack columns gives
    the canonical null vector of the remaining matrix, checked against the
    rational reference."""

    def test_each_row_after_the_first_scan(self):
        rng = SplitMix64(3030)
        for _ in range(150):
            rows, ncols = _wide_matrix(rng)
            for rho in range(len(rows)):
                tab = _tableau_with_slacks(rows, ncols)
                tab.carry([], [rho])
                _check_tableau(tab, rows, ncols, set(), {rho})

    def test_each_row_after_a_carry(self):
        # one column of the first vector's support is deleted, alone in a
        # carry when the matrix is wide enough to keep a free column, and
        # with the row otherwise
        rng = SplitMix64(3131)
        for _ in range(150):
            rows, ncols = _wide_matrix(rng)
            support = [c for c, _ in _tableau_with_slacks(rows, ncols).vector()]
            for rho in range(len(rows)):
                c = support[rho % len(support)]
                tab = _tableau_with_slacks(rows, ncols)
                if ncols > len(rows) + 1:
                    tab.carry([c], [])
                    _check_tableau(tab, rows, ncols, {c}, set())
                    tab.carry([], [rho])
                else:
                    tab.carry([c], [rho])
                _check_tableau(tab, rows, ncols, {c}, {rho})

    def test_rows_one_after_another(self):
        # every row goes, in a random order, some with the free column, as
        # a step freezes it, or with a column right of it, as a stray
        # freezes, or both, so that the scan passes deleted columns
        rng = SplitMix64(3232)
        for _ in range(150):
            rows, ncols = _wide_matrix(rng)
            order = list(range(len(rows)))
            rng.shuffle(order)
            tab = _tableau_with_slacks(rows, ncols)
            cols: set[int] = set()
            for n_dropped, rho in enumerate(order, 1):
                right = [c for c in range(tab.free + 1, ncols) if c not in cols]
                candidates = [tab.free] + ([right[rng.randrange(len(right))]] if right else [])
                deleted = []
                for c in candidates:
                    if rng.bernoulli(1, 2) and ncols - len(cols) - len(deleted) - 1 > len(rows) - n_dropped:
                        deleted.append(c)
                tab.carry(deleted, [rho])
                cols.update(deleted)
                _check_tableau(tab, rows, ncols, cols, set(order[:n_dropped]))


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


def test_scaling_script_smallest_rungs():
    # the digests that scripts/solver_scaling.py prints are the evidence
    # of byte-identical colorings quoted for solver changes
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join([str(root / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, str(root / "scripts" / "solver_scaling.py"),
         "--sizes", "200", "300", "400"],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [(n, rounds, digest) for n, _, rounds, _, digest in rows] == [
        ("200", "131", "e68a81e41613"),
        ("300", "236", FROZEN_DIGEST_N300[:12]),
        ("400", "305", "f14cdad9d3ba"),
    ]


@pytest.fixture()
def tableau_log(monkeypatch):
    """The solver's tableaux, logged: ("fresh", rows, columns) for each
    fresh elimination; ("carry", old free column, deleted columns, whether
    the old free column became basic, released rows still spare after the
    scan) for each carried round; and after it ("drop", row, the row its
    slack column takes, the free column after the drop) for each row that
    the round deletes.  Rows are numbered as in the fresh elimination."""
    log = []

    class Recording(_Tableau):
        __slots__ = ("rows",)

        def __init__(self, work, ncols, w, slack):
            super().__init__(work, ncols, w, slack)
            log.append(("fresh", len(work), ncols))
            self.rows = list(range(len(work)))  # fresh numbering of the work rows

        def carry(self, cols, rows):
            free, basic = self.free, {c: self.rows[i] for c, i in self.pivots.items()}
            at = len(log)
            super().carry(cols, rows)
            spare = {self.rows[i] for i in self.spare}
            idle = [basic[c] for c in cols if c in basic and basic[c] in spare]
            log.insert(at, ("carry", free, tuple(cols), free in self.pivots, idle))

        def drop(self, rho):
            # the row the slack takes, by the rule of _Tableau.drop: its
            # entries are read from rho's slack field as the packing lays
            # it out, as signed w-bit residues
            w, start = self.w, self.slack[rho]
            u = [(((row % (1 << start + w)) >> start - 1) + 1 >> 1) + (1 << w - 1) for row in self.work]
            u = [e % (1 << w) - (1 << w - 1) for e in u]
            q = next((i for i in self.spare if u[i]), None)
            if q is None:
                q = self.pivots[max(c for c, i in self.pivots.items() if u[i])]
            taken = self.rows.pop(q)
            super().drop(rho)
            log.append(("drop", rho, taken, self.free))

    monkeypatch.setattr(discrepancy, "_Tableau", Recording)
    return log


class TestCarriedTableau:
    """Each way a carried round can go, on a hand-built system whose
    coloring and rounds must equal the reference loop's, which rebuilds
    every round from scratch."""

    def _check(self, n: int, sets: list[list[int]]) -> None:
        s = SetSystem.from_sets(n, sets)
        chi, rounds = conserving_beck_fiala(s)
        assert (chi.values, rounds) == beck_fiala_reference(s)

    def test_basic_column_freezes_and_free_column_enters(self, tableau_log):
        # round 1's step freezes basic column 1 (pivot row 2); round 2
        # carries the tableau, the old free column 3 takes row 2 (an
        # exchange pivot), and column 4 is the new free column
        self._check(6, [[0, 3, 5], [1, 2, 3, 5], [0, 2, 4]])
        assert tableau_log == [("fresh", 3, 6), ("carry", 3, (1,), True, [])]

    def test_two_basic_columns_freeze(self, tableau_log):
        # round 2 deletes the free column 3 and the row 0 of {0, 1, 3, 4},
        # the pivot row of column 0.  e_0 is a combination of the basic
        # columns 0, 1 and 2, so its slack takes the pivot row 2 of column
        # 2, the rightmost one in it, and column 2 is the new free column.
        # That step freezes basic columns 0 and 1 together.  Round 3
        # carries: the free column 2 takes released row 0, and no column
        # takes row 1
        self._check(7, [[0, 2, 3, 4, 5, 6], [0, 1, 3, 4], [1, 2, 3, 4, 5, 6]])
        assert tableau_log == [
            ("fresh", 3, 7),
            ("carry", 3, (3,), False, []),
            ("drop", 0, 2, 2),
            ("carry", 2, (0, 1), True, [1]),
        ]

    def test_free_column_freezes(self, tableau_log):
        # round 1's step freezes only the free column 3; round 2 clears its
        # field and resumes the scan at column 4, the new free column
        self._check(6, [[0, 2, 5], [1, 2, 5], [0, 1, 3, 4]])
        assert tableau_log == [("fresh", 3, 6), ("carry", 3, (3,), False, [])]

    def test_released_row_no_column_takes(self, tableau_log):
        # round 1's step freezes the free column 2 and basic column 0; in
        # round 2 row 0 is released, column 3 is 0 on it, so column 3 is
        # the new free column and row 0 stays spare
        self._check(6, [[1, 3], [0, 2, 4, 5]])
        assert tableau_log == [
            ("fresh", 2, 5), ("carry", 2, (2, 0), False, [0]), ("fresh", 1, 2)
        ]

    def test_buffer_runs_out(self, tableau_log):
        # rounds 1 and 2 each freeze two of the five tableau columns; in
        # round 3 no set deactivates, but one column is left, fewer than
        # r + 1 = 3, so the elimination starts afresh on elements 1, 5, 6
        # and 7, three of them past the old tableau.  In round 4 {1, 5}
        # deactivates: its row 1 was column 0's pivot row, released by the
        # step, so its slack takes that spare row and the tableau carries
        self._check(8, [[0, 2, 3, 4, 6, 7], [1, 5]])
        assert tableau_log == [
            ("fresh", 2, 5),
            ("carry", 2, (2, 0), False, []),
            ("fresh", 2, 4),
            ("carry", 1, (1, 0), False, []),
            ("drop", 1, 1, 1),
        ]

    def test_refill_in_a_deactivation_round(self, tableau_log):
        # round 2 carries (column 2 takes the free row 1, column 3 the
        # released row 0) and its step freezes the last two tableau
        # columns of {0, 1, 3, 4}.  Round 3 deactivates that set, but one
        # tableau column is left, fewer than r + 1 = 2, so the window is
        # refilled: a fresh elimination, one row smaller
        self._check(6, [[0, 1, 3, 4], [2, 5]])
        assert tableau_log == [
            ("fresh", 2, 5), ("carry", 1, (1, 0), False, []), ("fresh", 1, 2)
        ]

    def test_spare_row_dropped(self, tableau_log):
        # column 1 equals column 0, so row 1 is never a pivot row.  When
        # {0, 1, 3} deactivates in round 2, its slack is D e_1 and takes
        # row 1 itself, and the step changes nothing; the scan resumes past
        # the deleted free column 1, and column 2 takes the released row 0
        self._check(5, [[0, 1, 2, 3, 4], [0, 1, 3]])
        assert tableau_log == [
            ("fresh", 2, 5), ("carry", 1, (1, 0), False, []), ("drop", 1, 1, 1)
        ]

    def test_pivot_row_dropped_slack_takes_spare_row(self, tableau_log):
        # {0, 1, 2} deactivates in round 2; its row 0 is the pivot row of
        # the live basic column 0, and the step released row 1 of column 1.
        # The slack is nonzero there and takes it, so column 0 stays basic
        # and the scan resumes past the deleted free column 2
        self._check(5, [[0, 1, 2], [0, 3, 4]])
        assert tableau_log == [
            ("fresh", 2, 5), ("carry", 2, (2, 1), False, []), ("drop", 0, 1, 2)
        ]

    def test_two_sets_leave_one_exchange(self, tableau_log):
        # {0, 2, 3} and {2, 3, 4} deactivate together in round 2.  Row 1
        # is the pivot row of column 1, and e_1 = column 0 - column 1 on
        # the rows, 0 on the spare row 2 released by column 2: its slack
        # takes column 1's row, and the free column moves left from 3 to
        # 1.  Row 2 is then spare, and its slack takes it
        self._check(5, [[0, 1, 4], [0, 2, 3], [2, 3, 4]])
        assert tableau_log == [
            ("fresh", 3, 5),
            ("carry", 3, (3, 2), False, []),
            ("drop", 1, 1, 1),
            ("drop", 2, 2, 1),
        ]

    def test_stray_right_of_the_front(self, tableau_log):
        # in round 2 {1, 2, 3} deactivates, and element 3, in no other set,
        # freezes as a stray: tableau column 3, right of the free column 2.
        # The scan clears the deleted columns 2 and 3 and stops at column
        # 4, equal to column 0 on the remaining row
        self._check(5, [[0, 4], [1, 2, 3]])
        assert tableau_log == [
            ("fresh", 2, 5), ("carry", 2, (2, 1, 3), False, []), ("drop", 1, 1, 2)
        ]

    def test_most_rounds_carried(self, tableau_log):
        # the n = 300 system of FROZEN_DIGEST_N300: of its 236 rounds, 4
        # eliminate afresh (the first and three window refills), 231 carry
        # the tableau, 41 of them deleting the rows of 59 sets, and the
        # last one only freezes strays
        chi, rounds = beck_fiala_with_stats(_large_degree4(300, SplitMix64(1)))
        assert rounds == 236
        assert sum(e[0] == "fresh" for e in tableau_log) == 4
        assert sum(e[0] == "carry" for e in tableau_log) == 231
        assert sum(e[0] == "drop" for e in tableau_log) == 59
        pairs = zip(tableau_log, tableau_log[1:])
        assert sum(e[0] == "carry" and nxt[0] == "drop" for e, nxt in pairs) == 41


class TestMatchesReference:
    def _check(self, s: SetSystem) -> tuple[tuple[int, ...], int]:
        chi, rounds = conserving_beck_fiala(s)
        assert (chi.values, rounds) == beck_fiala_reference(s)
        return chi.values, rounds

    def test_random_systems(self):
        rng = SplitMix64(8080)
        for _ in range(300):
            self._check(random_system(rng, max_ground=120))

    def test_wide_random_systems(self):
        # ground sizes 300-500, as the approx benchmark's random systems
        # reach: long covered lists whose window prefix is compacted
        rng = SplitMix64(5050)
        checked = 0
        while checked < 40:
            s = random_system(rng)
            if s.ground_size >= 300:
                self._check(s)
                checked += 1

    def test_stray_between_window_columns(self):
        # degree 2.  Round 1 freezes 1 and 3.  In round 2 the set {1, 2, 3, 6}
        # deactivates and 2 becomes a stray (+1, its iterate is 0) while the
        # window is columns 0, 4, 5: the frozen 1 and 3 and the stray 2 all
        # sit between window columns
        s = SetSystem.from_sets(7, [[0, 1, 3, 4, 5, 6], [0, 4, 5], [1, 2, 3, 6], [2]])
        assert self._check(s) == ((-1, -1, 1, 1, 1, 1, 1), 3)

    def test_calls_leave_the_system_unchanged(self):
        # the solver prunes a private copy of the membership lists
        s = _large_degree4(100, SplitMix64(6060))
        member = s.membership()
        first = beck_fiala_with_stats(s)
        assert s.membership() == member
        assert beck_fiala_with_stats(s) == first

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


def _star_system(n: int, p: int, seed: int, d: int) -> SetSystem:
    """The weak-reach star system of power_coloring at radius d, on a
    random p-degenerate graph in its degeneracy order."""
    g = random_degenerate_graph(n, p, seed)
    order, _ = degeneracy_order(g)
    return wreach_star_system(weak_reach(g, order, d), d)


def _within_degree(rng: SplitMix64) -> SetSystem:
    """A random system with no set larger than its degree: 2n sets of 1 to
    3 elements over n elements, so the degree is almost surely past 3."""
    n = 10 + rng.randrange(30)
    sets = [rng.sample(list(range(n)), 1 + rng.randrange(3)) for _ in range(2 * n)]
    s = SetSystem.from_sets(n, sets)
    assert max(map(len, s.sets)) <= degree(s)
    return s


def _drop_small_sets(s: SetSystem, keep_every: int) -> SetSystem:
    """s without its sets of at most t = degree(s) elements, except the
    sets through one element of degree t, which keep the degree at t, and
    every keep_every-th of the others."""
    t = degree(s)
    v = next(v for v, through in enumerate(s.membership()) if len(through) == t)
    small = [st for st in s.sets if len(st) <= t and v not in st]
    dropped = set(small) - set(small[::keep_every])
    out = SetSystem.from_sets(s.ground_size, (st for st in s.sets if st not in dropped))
    assert degree(out) == t
    return out


class TestSetsWithinDegree:
    """A set of at most t elements (t = the degree) is never active, so
    the solver leaves it out of its lists, and every element in none of
    the larger sets is frozen to +1 before round 1, as round 1 would."""

    def _check(self, s: SetSystem) -> tuple[tuple[int, ...], int]:
        chi, rounds = conserving_beck_fiala(s)
        assert (chi.values, rounds) == beck_fiala_reference(s)
        return chi.values, rounds

    @pytest.mark.parametrize("d", [2, 3])
    def test_star_systems(self, d):
        for n, p, seed in ((60, 3, 0), (60, 3, 1), (130, 5, 0), (130, 5, 2)):
            s = _star_system(n, p, seed, d)
            t = degree(s)
            # most stars have at most t elements, and some more
            assert 0 < sum(len(st) > t for st in s.sets) < len(s.sets) / 2
            self._check(s)

    def test_all_sets_within_degree(self):
        # every element is a stray in round 1, so that one round colors
        # everything +1
        rng = SplitMix64(7070)
        for _ in range(40):
            s = _within_degree(rng)
            assert self._check(s) == ((1,) * s.ground_size, 1)

    def test_all_but_one_set_within_degree(self):
        rng = SplitMix64(7171)
        for _ in range(40):
            small = _within_degree(rng)
            n = small.ground_size
            big = rng.sample(list(range(n)), degree(small) + 2)
            s = SetSystem.from_sets(n, [*small.sets, big])
            t = degree(s)
            assert [st for st in s.sets if len(st) > t] == [tuple(sorted(big))]
            values, _ = self._check(s)
            assert all(values[v] == 1 for v in range(n) if v not in big)

    def test_dropping_sets_within_degree(self):
        # while t stays the same, the sets of at most t elements do not
        # change the coloring or the round count
        rng = SplitMix64(7272)
        systems = [random_system(rng, max_ground=120) for _ in range(60)]
        systems += [_star_system(130, 5, seed, d) for seed in (0, 1) for d in (2, 3)]
        systems += [_within_degree(rng) for _ in range(10)]
        dropped_any = 0
        for s in systems:
            first = beck_fiala_with_stats(s)
            for keep_every in (2, len(s.sets) + 1):
                smaller = _drop_small_sets(s, keep_every)
                dropped_any += len(smaller.sets) < len(s.sets)
                assert beck_fiala_with_stats(smaller) == first
        assert dropped_any > len(systems)

    def test_small_sets_never_walked(self, monkeypatch):
        # once the degree is counted, the solver walks no set of at most t
        # elements, not even the ones of exactly t
        walks = []
        armed = False

        class Watched(tuple):
            def __iter__(self):
                if armed:
                    walks.append(self)
                return super().__iter__()

        def degree_then_arm(system: SetSystem) -> int:
            nonlocal armed
            t = degree(system)
            armed = True
            return t

        monkeypatch.setattr(discrepancy, "degree", degree_then_arm)
        for n, p, seed, d in ((60, 3, 0, 2), (60, 3, 2, 3), (130, 5, 2, 2)):
            s = _star_system(n, p, seed, d)
            t = degree(s)
            assert any(len(st) == t for st in s.sets)
            expected = beck_fiala_reference(s)
            watched = SetSystem(s.ground_size, tuple(Watched(st) for st in s.sets))
            walks.clear()
            armed = False
            chi, rounds = conserving_beck_fiala(watched)
            assert (chi.values, rounds) == expected
            assert walks and min(map(len, walks)) > t
