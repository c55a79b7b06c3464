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
elements, r being the number of active sets.  While no set deactivates,
the rows stay the same, and a round only loses the columns that the last
step froze, all in the last vector's support.  So the next round deletes
them, releases the pivot rows of the basic ones, and resumes the greedy
left-to-right scan at the old free column, with one exchange pivot per
column that has become independent (`_Tableau.carry`): about
(frozen basic columns) * r row updates instead of about f * r, f being
the free column's index.  Each pivot is an exact Bareiss step, the basic
columns stay the greedy independent prefix of the window, and the first
dependent column is the new free column, so the vector is a positive
multiple of the canonical one and the colorings and round counts are
those of a fresh elimination.  A round eliminates afresh when a set
deactivates (a row leaves; strays freeze only then) or when fewer than
r + 1 tableau columns are unfrozen.
"""
from __future__ import annotations

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
    kept so that the next solver round can resume the scan.  The rows are
    consumed.

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
    starting at bit w*(ncols-1-c) + 1, column 0 in the top field, and a
    row update is a few whole-integer operations.  For a matrix with k
    rows whose columns have at most t ones each (a column is one element,
    and its ones are the active sets through it), w = _field_width(k, t)
    suffices.  Every entry is a minor of order i <= k of the 0/1 input.  By
    Hadamard's bound taken over columns, each column of a minor has
    Euclidean norm at most sqrt(min(i, t)), so
    |entry| <= min(k, t)^(k/2) < 2^(k*b/2) <= 2^(w-3/2) with
    b = min(k, t).bit_length() and w = k*b//2 + 2.  Fields before a
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
    pivot), and p = |det A[R, B - b + j]| by Cramer's rule.
    """

    __slots__ = ("work", "w", "top", "ncols", "spare", "pivots", "prev", "free", "heads")

    def __init__(self, work: list[int], ncols: int, w: int):
        self.work, self.w, self.ncols = work, w, ncols
        self.top = w * (ncols - 1) + 1  # the lowest bit of column 0's field
        self.spare = list(range(len(work)))  # rows without a live basic column
        self.pivots: dict[int, int] = {}  # live basic column -> its pivot row
        self.prev = 1  # D
        self._scan(0)

    def _scan(self, j: int) -> None:
        """Pivot on each column from j on that is independent of the live
        basic columns, and stop at the first one that is not: the free
        column."""
        work, w, spare, pivots, prev = self.work, self.w, self.spare, self.pivots, self.prev
        pos, last = self.top - w * j, self.ncols - 1
        heads = [(row >> pos - 1) + 1 >> 1 for row in work]  # entries in column j
        while True:
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

    def carry(self, deleted: list[int]) -> None:
        """Delete the columns of the last vector's support that its step
        froze (the rows stay the same) and move the scan on to the
        canonical null vector of the remaining columns.

        A deleted basic column's pivot row is released to the spare rows:
        the basis keeps the column, so the invariant still holds, but the
        column no longer counts for independence.  A column is in the span
        of the live basic columns iff its entries on the spare rows are all
        0.  So the greedy scan of the remaining columns keeps the live
        basic columns (a subset of an independent prefix is independent,
        and every column left of the free column f is basic or deleted)
        and resumes at f, or after it if f is deleted, in which case f's
        field is first subtracted from every row, so that the fields left
        of the scan stay 0.  Each column that is now independent costs one
        exchange or growing pivot, and the first dependent column is the
        new free column: the vector is again a positive multiple of the
        canonical one.  Entries stay minors of the input with the deleted
        columns kept in it, so the field width still bounds them.
        """
        work, pivots, f = self.work, self.pivots, self.free
        j = f
        for c in deleted:
            if c == f:
                pos = self.top - self.w * f
                for i, h in enumerate(self.heads):
                    if h:
                        work[i] -= h << pos
                j = f + 1
            else:
                self.spare.append(pivots.pop(c))
        self._scan(j)


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
    while n_unfrozen:
        still = []
        for i in active:
            if unfrozen_in[i] > t:
                still.append(i)
                continue
            for v in s.sets[i]:
                if not frozen[v]:
                    member[v].remove(i)
                    if not member[v]:
                        # a stray, in no active set: its canonical basis
                        # vector is a null vector, and the positive max
                        # step lands on the nearest endpoint
                        freeze(v, 1 if num[v] >= 0 else -1)
        deactivated = len(still) < len(active)
        active = still
        yield active, num, den
        if not n_unfrozen:
            break
        r = len(active)
        if tab is None or deactivated or alive <= r:
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
            tab = _Tableau(rows, len(cols), w)
            alive = len(cols)
        else:
            tab.carry(gone)
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
