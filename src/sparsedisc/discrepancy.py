"""Discrepancy evaluation and minimization.

The constructive solver follows the classical iterated-rounding proof:
keep fractional values, repeatedly move along an exact null vector of the
active-set constraint matrix, and freeze variables as they hit +-1.  A set
is active while it has more than t unfrozen elements (t = system degree),
so every set's color sum is exactly zero while it is active and can drift
by less than 2 per unfrozen element afterwards: the final discrepancy is
at most 2t - 1.  So a set of at most t elements is never active, and it
never enters the solver's lists: they hold only the sets larger than t,
and every element in none of them is a stray (in no active set) from the
start, frozen to +1 because its iterate is 0, as round 1 would freeze it.
On weak-reach star systems that leaves out most sets and incidences.  The
null vector comes from fraction-free integer elimination and the iterate
is held as reduced integer pairs num/den, so the arithmetic is exact
throughout; floating point would break the strictness of that argument.
The solver is a generator of rounds, `_rounds`, which yields the live
iterate after each round's deactivations; its two entry points,
`beck_fiala_with_stats` and `beck_fiala`, drain it and count the rounds.
A round pays only for what it uses: the solver prunes its membership
lists to the active sets, so an element becomes a stray when its list
empties, its window is the first unfrozen elements of a covered list
whose frozen entries are dropped as the window passes them, and each
constraint row is built once, straight into the packed form that the
elimination reads.  The elimination keeps each row as one integer, in
fields of a width proven by Hadamard's bound over the columns (each has
at most t ones), so a row update is a few whole-integer operations.

The elimination is carried from round to round.  A fresh one (Bareiss)
runs over the window and a buffer of the next r unfrozen covered
elements, r being the number of active sets.  The next round deletes the
columns that the last step froze, all in the last vector's support, and
those of the strays that its deactivations froze, releases the pivot
rows of the deleted basic columns, deletes the rows of the sets that
deactivated, and resumes the greedy left-to-right scan at the old free
column, with one exchange pivot per column that has become independent
(`_Tableau.carry`): about (frozen basic columns) * r row updates instead
of about f * r, f being the free column's index.  A row leaves as a
slack column: deleting row rho is adding the unit column e_rho left of
every column, and one Bareiss step on its entries makes it basic
(`_Tableau.drop`).  Those entries are D times column rho of the row
transform, which the rows do not hold, so a fresh elimination packs a
slack column for each row whose set can deactivate before the next fresh
one, in a field past the window, and the row updates keep it: a set
whose unfrozen elements outside the window number more than t stays
active, for only window elements freeze in between.  Each pivot is an
exact Bareiss step, the basic columns stay the greedy independent prefix
of what remains, and the first dependent column is the new free column,
so the vector is a positive multiple of the canonical one and the
colorings and round counts are those of a fresh elimination.  A round
eliminates afresh only when fewer than r + 1 tableau columns are
unfrozen.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import IO, Iterator, Optional

import numpy as np

from .errors import ParseError, ResourceLimitError
from .rng import SplitMix64
from .setsystems import SetSystem, degree, trace

EXACT_MAX_GROUND = 24
SPECTRAL_MAX_GROUND = 128  # the exact PSD check is O(n^3) on big integers
SPECTRAL_GRANULARITY = 10**6  # results floored to 1e-6 so the bound stays sound


@dataclass(frozen=True)
class Coloring:
    values: tuple[int, ...]

    def __post_init__(self):
        for x in self.values:
            if x not in (-1, 1):
                raise ValueError("coloring entries must be -1 or +1")


def eval_discrepancy(s: SetSystem, chi: Coloring) -> tuple[int, Optional[int]]:
    """Exact maximum |color sum| over the sets, with the first witness index."""
    if len(chi.values) != s.ground_size:
        raise ValueError("coloring length does not match ground size")
    best, witness = 0, None
    for i, st in enumerate(s.sets):
        d = abs(sum(chi.values[v] for v in st))
        if d > best:
            best, witness = d, i
    return best, witness


def _field_width(k: int, t: int) -> int:
    """Bits per field of a packed k-row matrix whose columns have at most
    t ones each; _Tableau's docstring proves the bound."""
    return k * min(k, t).bit_length() // 2 + 2


class _Tableau:
    """Fraction-free Gauss-Jordan tableau of a wide 0/1 matrix given as
    packed rows, scanned left to right for the canonical null vector, and
    kept so that later solver rounds can resume the scan after columns and
    rows are deleted.  The rows are consumed.

    The canonical null vector: columns left to right, each one that is
    independent of the columns before it becomes basic, up to the first
    dependent column f.  The vector has 1 at f, minus f's coordinates in
    the basic columns on them, and 0 everywhere else.  `vector` returns a
    positive multiple of it.

    Invariant: the basis is a set B of columns with a set R of pivot rows,
    |R| = |B|, and the work matrix is D times the rational Gauss-Jordan
    matrix of (R, B), where D = |det A[R, B]| > 0 (D = 1 for the empty
    basis).  By Cramer's rule every entry of it is, up to sign, a minor of
    the input: of order |B| on a pivot row, and of order |B| + 1 (a Schur
    complement) on the other rows.  So every division below is exact.  A
    pivot row's own entry in its basic column is D; it is stored as 0.

    Packing: each work row is one integer, entry c in a w-bit field
    starting at bit w*(n-1-c) + 1, n being the number of fields, column 0
    in the top field, and a row update is a few whole-integer operations.
    The ncols columns of the matrix come first, and the slack columns
    (below) after them.  For
    a matrix with k rows whose columns have at most t ones each (a column
    is one element, and its ones are the active sets through it; a slack
    column has one), w = _field_width(k, t) suffices.  Every entry is a
    minor of order i <= k of the 0/1 input.  By Hadamard's bound taken
    over columns, each column of a minor has Euclidean norm at most
    sqrt(min(i, t)), so |entry| <= min(k, t)^(k/2) < 2^(k*b/2) <= 2^(w-3/2)
    with b = min(k, t).bit_length() and w = k*b//2 + 2.  Fields before a
    division may overflow into their neighbours, but the packed integer is
    exact, and each field is a multiple of D, so dividing the whole row by
    it is exact.  The scan keeps every field left of its current column j
    at 0 (those columns are basic, and Gauss-Jordan clears them in every
    row, or they were deleted), and the fields right of j add up to less
    than half the unit of j's field in magnitude (the spare low bit makes
    room), so j's entry is the top of the row rounded to the nearest
    integer: two shifts and an add, whatever the row's length.

    A step of the scan at column j.  Column j's entries on the pivot rows
    are D times its coordinates in the basis, and its entries on the rows
    outside R are all 0 iff it lies in the span of B.  So j is independent
    of the live basic columns iff its entry is nonzero on some spare row:
    a row outside R, or the released pivot row of a deleted column (see
    `carry`).  Then that row is the pivot, its entry p made positive by
    negating the row; every other row becomes (p*row - row[j]*pivot row)
    / D, and D becomes p.  This is one Bareiss step, and it keeps the
    invariant.  If the pivot row is outside R, the basis grows by
    (row, j), and p = |det A[R + row, B + j]| (a Schur complement).  If it
    is the pivot row of a deleted column b, j takes b's place (an exchange
    pivot), and p = |det A[R, B - b + j]| by Cramer's rule.  A deleted
    column that the scan reaches is skipped: its field is subtracted from
    every row, so that the fields left of the scan stay 0.

    Slack columns.  `slack` maps some rows rho to the first bit of the
    field of their slack column: the unit column e_rho, packed as a 1 in
    row rho and carried through every step like any column, so that the
    field holds D * M e_rho, M being the row transform.  The scan never
    reaches it.  `drop` reads it to delete row rho; only rows with a slack
    column can be deleted.
    """

    __slots__ = ("work", "w", "top", "ncols", "spare", "pivots", "prev", "free", "heads", "gone", "slack")

    def __init__(self, work: list[int], ncols: int, w: int, slack: dict[int, int]):
        self.work, self.w, self.ncols, self.slack = work, w, ncols, slack
        self.top = w * (ncols + len(slack) - 1) + 1  # the lowest bit of column 0's field
        self.spare = list(range(len(work)))  # rows without a live basic column
        self.pivots: dict[int, int] = {}  # live basic column -> its pivot row
        self.prev = 1  # D
        self.gone = [False] * ncols  # the deleted columns
        self._scan(0)

    def _scan(self, j: int) -> None:
        """Pivot on each column from j on that is independent of the live
        basic columns, skip the deleted ones, and stop at the first column
        that is neither: the free column."""
        work, w, spare, pivots, prev, gone = (
            self.work, self.w, self.spare, self.pivots, self.prev, self.gone)
        pos, last = self.top - w * j, self.ncols - 1
        heads = [(row >> pos - 1) + 1 >> 1 for row in work]  # entries in column j
        while True:
            if gone[j]:
                if j == last:
                    raise AssertionError("wide matrix must have a free column")
                for i, h in enumerate(heads):
                    if h:
                        work[i] -= h << pos
                j += 1
                pos -= w
                heads = [(row >> pos - 1) + 1 >> 1 for row in work]
                continue
            for sel in spare:
                if heads[sel]:
                    break
            else:
                self.prev, self.free, self.heads = prev, j, heads
                return
            if j == last:
                raise AssertionError("wide matrix must have a free column")
            spare.remove(sel)
            nxt = pos - w - 1  # (row >> nxt) + 1 >> 1 reads column j + 1
            srow, piv = work[sel], heads[sel]
            if piv < 0:
                srow, piv = -srow, -piv
            work[sel] = heads[sel] = 0  # the pivot row is rewritten below
            for i, row in enumerate(work):
                f = heads[i]
                if f:
                    row = (row if piv == 1 else piv * row) - f * srow
                    if prev != 1:
                        row //= prev
                    work[i] = row
                elif piv != prev:
                    row = piv * row // prev
                    work[i] = row
                heads[i] = (row >> nxt) + 1 >> 1
            row = srow - (piv << pos)
            work[sel] = row
            heads[sel] = (row >> nxt) + 1 >> 1
            prev = piv
            pivots[j] = sel
            j += 1
            pos -= w

    def vector(self) -> list[tuple[int, int]]:
        """The canonical null vector's support, as (column, coefficient)
        pairs scaled by D > 0: D at the free column, and minus the free
        column's entry on each basic column's pivot row."""
        heads, support = self.heads, [(self.free, self.prev)]
        for c, i in self.pivots.items():
            support.append((c, -heads[i]))
        return support

    def carry(self, cols: list[int], rows: list[int]) -> None:
        """Delete the given columns and rows and move the scan on to the
        canonical null vector of what remains.

        A deleted basic column's pivot row is released to the spare rows:
        the basis keeps the column, so the invariant still holds, but the
        column no longer counts for independence.  A column is in the span
        of the live basic columns iff its entries on the spare rows are all
        0.  Any other deleted column is the free column or lies right of
        it, and the scan skips it when it gets there.  The rows go next
        (`drop`).  Then the greedy scan of the remaining columns keeps the
        live basic columns (a subset of an independent prefix is
        independent, and every column left of the free column f is basic or
        deleted) and resumes at f.  Each column that is now independent
        costs one exchange or growing pivot, and the first dependent column
        is the new free column: the vector is again a positive multiple of
        the canonical one.  Entries stay minors of the input with the
        deleted columns and the slack columns (one 1 each) kept in it, so
        the field width still bounds them.
        """
        pivots, gone = self.pivots, self.gone
        for c in cols:
            gone[c] = True
            if c in pivots:
                self.spare.append(pivots.pop(c))
        for rho in rows:
            self.drop(rho)
        self._scan(self.free)

    def drop(self, rho: int) -> None:
        """Delete row rho.  Deleting a row is adding its unit column e_rho
        left of every column: the greedy scan of the columns after it is
        the scan of the matrix without row rho.  That column, the slack,
        has the entries u = D * M e_rho of rho's slack column, and it
        becomes basic by one Bareiss step on u.  Its pivot row then leaves
        the work rows, since no later step reads it.

        If u is nonzero on a spare row, the slack takes that row: e_rho is
        outside the span of the live basic columns, so they stay the greedy
        prefix, and the free column stays free.  When that row is rho and
        u = D e_rho (rho was never a pivot row), the step changes nothing.

        Otherwise e_rho is a combination of the live basic columns, and the
        rightmost one with a nonzero coefficient, b*, is the first column
        that the slack makes dependent: the slack takes b*'s pivot row, and
        b* is the new free column.  The stored 0 of b*'s own entry is
        written back as D first, so that the step leaves b*'s entries.  The
        basic columns right of b* are in the greedy basis, but right of the
        free column the scan tests each column itself, so they leave the
        basis with their entries written back likewise, and their pivot
        rows become spare rows.  (Any basic column with a nonzero
        coefficient would give the same vector, since the scan resumes at
        the free column and re-tests what lies right of it; b* leaves the
        fewest columns to re-test.)
        """
        work, spare, pivots, prev, w = self.work, self.spare, self.pivots, self.prev, self.w
        pos = self.slack.pop(rho) - 1
        # the slack field of each row, rounded as the scan rounds, and read
        # as a signed w-bit residue, for the fields before it are not 0
        low, half, mask = (1 << pos + w + 1) - 1, 1 << w - 1, (1 << w) - 1
        u = [((((row & low) >> pos) + 1 >> 1) + half & mask) - half for row in work]
        for q in spare:
            if u[q]:
                break
        else:
            b = max(c for c, i in pivots.items() if u[i])
            q = pivots[b]
            for c in [c for c in pivots if c >= b]:
                i = pivots.pop(c)
                work[i] += prev << self.top - w * c
                spare.append(i)
            self.free = b
        spare.remove(q)
        h = u[q]
        p = h if h > 0 else -h
        if p != prev or u.count(0) < len(u) - 1:
            srow = work[q] if h > 0 else -work[q]
            for i, row in enumerate(work):
                f = u[i]
                if f:
                    work[i] = (p * row - f * srow) // prev
                elif p != prev:
                    work[i] = p * row // prev
            self.prev = p
        # row q is the slack's pivot row: the rows after it move up
        del work[q]
        for c, i in pivots.items():
            if i > q:
                pivots[c] = i - 1
        spare[:] = [i - 1 if i > q else i for i in spare]


def _rounds(s: SetSystem) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """The solver, one yield per round: the live lists (active, num, den)
    after the round's deactivations, where the iterate is
    x[v] = num[v] / den[v] and every active set's sum of it is exactly 0.
    A system whose sets all have at most t elements yields once, for the
    round that would freeze its strays.  Drained, num is the coloring."""
    n = s.ground_size
    t = degree(s)
    # a set of at most t elements is never active: round 1 deactivates it
    # before anything is frozen, so it never enters these lists
    active = [i for i, st in enumerate(s.sets) if len(st) > t]
    member: list[list[int]] = [[] for _ in range(n)]  # pruned to the active sets through v
    for i in active:
        for v in s.sets[i]:
            member[v].append(i)
    covered = [v for v in range(n) if member[v]]  # frozen ones dropped lazily
    # every other element is a stray in round 1, frozen to +1 because its
    # iterate is still 0
    num = [1] * n  # the iterate x[v] = num[v] / den[v], reduced, den[v] > 0
    den = [1] * n
    frozen = [True] * n
    for v in covered:
        num[v], frozen[v] = 0, False
    unfrozen_in = [len(st) for st in s.sets]
    slot = [0] * len(s.sets)  # an active set's row in this round's matrix
    n_unfrozen = len(covered)
    if not covered and s.sets:
        # that round counts even when its strays are all there is to freeze
        yield active, num, den

    def freeze(v: int, sign: int) -> None:
        nonlocal n_unfrozen
        num[v], den[v] = sign, 1
        frozen[v] = True
        n_unfrozen -= 1
        for i in member[v]:
            unfrozen_in[i] -= 1

    tab = None  # the elimination, carried from round to round
    # its columns, those deleted since its last scan, and the number unfrozen
    cols, gone, alive = [], [], 0
    while n_unfrozen:
        still, left = [], []  # left: the rows of the sets that deactivate
        for i in active:
            if unfrozen_in[i] > t:
                still.append(i)
                continue
            left.append(slot[i])
            for v in s.sets[i]:
                if not frozen[v]:
                    member[v].remove(i)
                    if not member[v]:
                        # a stray, in no active set: its canonical basis
                        # vector is a null vector, and the positive max
                        # step lands on the nearest endpoint
                        freeze(v, 1 if num[v] >= 0 else -1)
                        j = bisect_left(cols, v)  # a window column goes too
                        if j < len(cols) and cols[j] == v:
                            gone.append(j)
                            alive -= 1
        active = still
        yield active, num, den
        if not n_unfrozen:
            break
        r = len(active)
        if tab is None or alive <= r:
            # a fresh elimination over the window and a buffer of the next
            # r unfrozen covered elements: the first 2r + 1 of them
            cols = []
            for pos, v in enumerate(covered):
                if not frozen[v]:
                    cols.append(v)
                    if len(cols) > 2 * r:
                        break
            covered[: pos + 1] = cols
            w = _field_width(r, t)
            top = w * (len(cols) - 1) + 1
            for k, i in enumerate(active):
                slot[i] = k
            rows = [0] * r
            for j, v in enumerate(cols):
                bit = 1 << top - w * j
                for i in member[v]:
                    rows[slot[i]] |= bit
            # a row whose set can deactivate while this tableau lives gets
            # a slack column, in a field past the window (_Tableau.drop):
            # until the next fresh elimination only window elements
            # freeze, so a set with more than t unfrozen elements outside
            # the window stays active
            slack = {}
            for k, i in enumerate(active):
                if unfrozen_in[i] - rows[k].bit_count() <= t:
                    slack[k] = 0
            if slack:
                low = w * len(slack)
                for k, row in enumerate(rows):
                    rows[k] = row << low
                for k in slack:
                    low -= w
                    slack[k] = low + 1
                    rows[k] |= 1 << low + 1
            tab = _Tableau(rows, len(cols), w, slack)
            alive = len(cols)
        else:
            tab.carry(gone, left)
        support = tab.vector()
        # the step lam_p / lam_q (lam_q > 0): the largest that keeps every
        # coordinate in [-1, 1], compared by cross-multiplying
        lam_p, lam_q = 0, 0
        for j, c in support:
            v = cols[j]
            if c > 0:
                p, q = den[v] - num[v], den[v] * c
            elif c < 0:
                p, q = den[v] + num[v], -den[v] * c
            else:
                continue
            if not lam_q or p * lam_q < lam_p * q:
                lam_p, lam_q = p, q
        assert lam_q and lam_p > 0
        g = gcd(lam_p, lam_q)
        lam_p, lam_q = lam_p // g, lam_q // g
        gone = []  # the tableau columns frozen by this step
        for j, c in support:
            if c:
                v = cols[j]
                a = num[v] * lam_q + lam_p * c * den[v]
                b = den[v] * lam_q
                g = gcd(a, b)
                num[v], den[v] = a // g, b // g
                if den[v] == 1 and abs(num[v]) == 1:
                    freeze(v, num[v])
                    gone.append(j)
        alive -= len(gone)
        assert gone, "the maximal step must freeze at least one variable"


def beck_fiala_with_stats(s: SetSystem) -> tuple[Coloring, int]:
    """Coloring with discrepancy at most 2*degree(s) - 1, plus the number
    of solver rounds performed."""
    num, rounds = [1] * s.ground_size, 0  # no round: every element a stray
    for rounds, (_, num, _) in enumerate(_rounds(s), 1):
        pass
    return Coloring(tuple(num)), rounds


def beck_fiala(s: SetSystem) -> Coloring:
    return beck_fiala_with_stats(s)[0]


def exact_discrepancy(
    s: SetSystem, max_ground: int = EXACT_MAX_GROUND
) -> tuple[int, Coloring]:
    """Exhaustive minimum discrepancy with one optimal coloring.

    Enumeration is depth-first in increasing binary code (+1 before -1)
    with chi(0) fixed to +1 by the global negation symmetry; a prefix is
    abandoned as soon as a fully assigned set reaches the incumbent.
    """
    n = s.ground_size
    if max_ground < 0:
        raise ValueError(f"exact discrepancy cap must be non-negative, got {max_ground}")
    if n > max_ground:
        raise ResourceLimitError(f"exact discrepancy capped at ground <= {max_ground}")
    if not s.sets:
        return 0, Coloring((1,) * n)
    m = len(s.sets)
    member = s.membership()
    completing: list[list[int]] = [[] for _ in range(n)]
    for i, st in enumerate(s.sets):
        completing[st[-1]].append(i)
    sums = [0] * m
    chi = [1] * n
    best = n + 1
    best_chi: Optional[tuple[int, ...]] = None

    def dfs(v: int, running: int) -> None:
        nonlocal best, best_chi
        if v == n:
            best, best_chi = running, tuple(chi)
            return
        for sign in ((1,) if v == 0 else (1, -1)):
            chi[v] = sign
            for i in member[v]:
                sums[i] += sign
            worst = running
            for i in completing[v]:
                a = abs(sums[i])
                if a > worst:
                    worst = a
            if worst < best:
                dfs(v + 1, worst)
            for i in member[v]:
                sums[i] -= sign
        chi[v] = 1

    dfs(0, 0)
    assert best_chi is not None
    return best, Coloring(best_chi)


def herdisc_search(
    s: SetSystem, budget: int = 4096, *, exact_cap: int = EXACT_MAX_GROUND
) -> tuple[int, tuple[int, ...]]:
    """Hereditary discrepancy by trace search.

    Exact when all 2^ground subsets fit in the budget; otherwise a
    certified lower bound from random subsets plus greedy single-element
    flips around the incumbent (deterministic, internal seed 0).
    """
    if budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    n = s.ground_size

    def disc_of(subset: tuple[int, ...]) -> int:
        traced, _ = trace(s, subset)
        return exact_discrepancy(traced, exact_cap)[0]

    if n <= 30 and 2**n <= budget:
        best, witness = 0, ()
        for mask in range(2**n):
            subset = tuple(v for v in range(n) if mask >> v & 1)
            val = disc_of(subset)
            if val > best:
                best, witness = val, subset
        return best, witness

    rng = SplitMix64(0)
    witness = tuple(range(n))
    best = disc_of(witness)
    evaluated = 1
    while evaluated < budget:
        sub = tuple(v for v in range(n) if rng.bernoulli(1, 2))
        val = disc_of(sub)
        evaluated += 1
        if val > best:
            best, witness = val, sub
        # greedy: try flipping single elements in and out of the incumbent
        improved = True
        while improved and evaluated < budget:
            improved = False
            ws = set(witness)
            for v in range(n):
                cand = tuple(sorted(ws ^ {v}))
                val = disc_of(cand)
                evaluated += 1
                if val > best:
                    best, witness = val, cand
                    improved = True
                    break
                if evaluated >= budget:
                    break
    return best, witness


def _is_psd(upper: list[list[int]]) -> bool:
    """Exact PSD test of a symmetric integer matrix given as its upper
    triangle, by fraction-free (Bareiss) elimination without pivoting: each
    work entry is the last pivot (> 0) times the exact Schur complement
    entry.  A negative pivot fails; so does a zero pivot in a nonzero row."""
    work, prev = upper, 1
    while work:
        head = work[0]
        piv = head[0]
        if piv < 0 or (piv == 0 and any(head)):
            return False
        if piv == 0:
            work = work[1:]
            continue
        work = [
            [(piv * a - head[r] * c) // prev for a, c in zip(row, head[r:])]
            for r, row in enumerate(work[1:], 1)
        ]
        prev = piv
    return True


def spectral_lower_bound(s: SetSystem) -> Fraction:
    """sigma_min(incidence) * sqrt(n/m), a certified lower bound on the
    discrepancy: for any x in {-1,1}^n, ||Ax||_inf >= ||Ax||_2 / sqrt(m)
    >= sigma_min * sqrt(n) / sqrt(m).

    numpy's eigvalsh estimates lambda_min(A^T A), the value is floored to
    k/10^6, and k/10^6 is returned only after an exact check that
    n*10^12*A^T A - k^2*m*I is positive semidefinite (one retry with k - 1,
    else 0): it never overstates, and is within 2e-6 when eigvalsh is.
    """
    m, n = len(s.sets), s.ground_size
    if n > SPECTRAL_MAX_GROUND:
        raise ResourceLimitError(f"spectral bound capped at ground <= {SPECTRAL_MAX_GROUND}")
    if m == 0 or m < n:
        return Fraction(0)  # rank < n forces sigma_min = 0
    b = np.zeros((n, n), dtype=np.int64)  # A^T A: co-occurrence counts
    for st in s.sets:
        b[np.ix_(st, st)] += 1
    lam = Fraction(max(float(np.linalg.eigvalsh(b)[0]), 0.0))
    scale = n * SPECTRAL_GRANULARITY**2
    top = isqrt(lam * scale // m)
    for k in (top, top - 1):
        if k <= 0:
            break
        g = gcd(scale, k * k * m)  # smaller entries, same sign pattern
        upper = [[scale // g * e for e in row[i:]] for i, row in enumerate(b.tolist())]
        for row in upper:
            row[0] -= k * k * m // g
        if _is_psd(upper):
            return Fraction(k, SPECTRAL_GRANULARITY)
    return Fraction(0)


def read_coloring(stream: IO[str], ground_size: int) -> Coloring:
    """One "index value" pair per line, value in {-1, 1}."""
    values = [0] * ground_size
    seen = [False] * ground_size
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            idx, val = int(parts[0]), int(parts[1])
        except (ValueError, IndexError):
            raise ParseError(f"malformed coloring line {lineno}") from None
        if not 0 <= idx < ground_size or val not in (-1, 1) or len(parts) != 2:
            raise ParseError(f"bad coloring entry at line {lineno}")
        values[idx] = val
        seen[idx] = True
    if not all(seen):
        raise ParseError("coloring does not assign every ground element")
    return Coloring(tuple(values))


def write_coloring(chi: Coloring, stream: IO[str]) -> None:
    for i, v in enumerate(chi.values):
        stream.write(f"{i} {v}\n")
