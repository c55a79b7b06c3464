"""Finite structures with unary functions and predicates, definable set
systems, and the decomposition pipeline that colors them with a constant
discrepancy bound.

Every variable is one broadcast axis, y1..y_k first, then x1, x2, ...:
variable i is `np.arange(n)` along axis i of k axes, length 1 on the
others.  A term reads one variable, so `_term` costs n lookups, and the
atoms of `_truth` broadcast to the n^k points.  A definable system is
one truth over all (parameter, object) points, and every definable set
and rho in this module goes through that one evaluator.

Every system here is built canonical as it is made: `np.nonzero` reads
the truth matrix row-major, so each parameter's members come out sorted,
and a stable sort on the value tuple lists each psi fiber in ascending
order.  The tuples are deduplicated and sorted, then passed to the
`SetSystem` constructor, which does not check them again.

A quantifier-free partitioned formula is normalized to DNF, each
conjunct once: a duplicate conjunct adds no slot, rho or psi.  The DNF
is what can blow up, as a conjunction of disjunctions multiplies out, so
the cap is on what `_dnf` builds, not on the formula's atoms: each
product is counted before it is built and refused above DNF_PRODUCT_CAP,
so an over-cap formula fails before it allocates the product.

Each conjunct splits into object-only literals (rho), parameter-only
literals (the guard), and cross equalities word(x_i) = word(y_j).
Naming the parameter side of each positive cross z_r yields a psi of
the canonical form
AND_r (word_r(x_{i_r}) = z_r); negated crosses each become a single-slot
psi subtracted in the assembly.  z_r is only notation: the assembly reads
it as its parameter term (`tests/oracles.assemble` rebuilds each defined
set from the plans so, one point at a time).  The psi systems have
degree 1 (the z-tuple of a member is determined by the member), so the
union system of all rho and psi systems has degree at most t, the number
of those systems; its intersection closure has degree at most 2^t, and a
solver coloring of the closure is within the constant 2^(2k+t+1) on
every definable set.  The closure grows by pairwise intersections of
members that meet, since a family holding A & B for every two members
that meet is closed under every nonempty intersection; it costs one set
intersection per pair of members that meet (one-element members and the
ground excepted).  On the adjacency formula the base sets are the
ground, the singletons and the fibers of each function, so few pairs
meet through an element.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import Iterable, Optional, Union

import numpy as np

from .discrepancy import Coloring, beck_fiala
from .errors import ParseError, ResourceLimitError, check_input_size
from .formulas import And, Eq, Node, Not, Or, Pred, QFFormula, Term, parse_formula
from .graphs import Graph
from .orderings import degeneracy_order, orient_along
from .setsystems import SetSystem, intersection_closure

# bounds the cells (points times variables) of defined_system's n^(x+y)
# points, and so its largest array, the truth over every point; 2 * 10^7
# lets every 2-variable formula of at most 10^7 points run
DEFINED_CELL_CAP = 2 * 10**7
# the truth matrix is read this many cells at a time, which bounds the
# index arrays and lists that the read makes next to the sets it keeps
READ_BLOCK_CELLS = 2**16
# bounds each product _dnf multiplies out, conjuncts so far times the next
# child's conjuncts; the largest over the test corpus is 42, and over
# from_degenerate_graph's formulas 2 * degeneracy (60 at degeneracy 30),
# so 2^12 leaves a margin of 68 times the larger
DNF_PRODUCT_CAP = 2**12

Word = tuple[str, ...]
Literal = tuple[bool, Union[Pred, Eq]]


@dataclass(frozen=True)
class PointerStructure:
    domain_size: int
    functions: dict[str, tuple[int, ...]]
    predicates: dict[str, frozenset[int]]

    def __post_init__(self):
        n = self.domain_size
        overlap = set(self.functions) & set(self.predicates)
        if overlap:
            raise ValueError(f"names used as both function and predicate: {overlap}")
        for name, f in self.functions.items():
            if len(f) != n or any(not 0 <= v < n for v in f):
                raise ValueError(f"function {name!r} is not total on the domain")
        for name, p in self.predicates.items():
            if any(not 0 <= v < n for v in p):
                raise ValueError(f"predicate {name!r} leaves the domain")

    @classmethod
    def from_json(cls, text: str) -> "PointerStructure":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ParseError("pointer structure JSON must be an object")
        n = data.get("n")
        if type(n) is not int or n < 0:
            raise ParseError("n must be a non-negative integer")
        check_input_size("structure domain size n", n)
        functions, predicates = data.get("functions", {}), data.get("predicates", {})
        for field, table in (("functions", functions), ("predicates", predicates)):
            if not isinstance(table, dict) or not all(
                isinstance(vals, list) and all(type(v) is int for v in vals)
                for vals in table.values()
            ):
                raise ParseError(f"{field} must map names to lists of integers")
        return cls(
            n,
            {k: tuple(v) for k, v in functions.items()},
            {k: frozenset(v) for k, v in predicates.items()},
        )

    @cached_property
    def function_arrays(self) -> dict[str, np.ndarray]:
        dtype = np.min_scalar_type(max(self.domain_size - 1, 0))
        return {name: np.array(f, dtype=dtype) for name, f in self.functions.items()}

    @cached_property
    def predicate_masks(self) -> dict[str, np.ndarray]:
        ground = np.arange(self.domain_size)
        return {name: np.isin(ground, sorted(p)) for name, p in self.predicates.items()}


def _check_signature(m: PointerStructure, phi: QFFormula) -> None:
    """Reject a formula that names a function or predicate the structure
    lacks, before anything is evaluated: there may be no row or parameter
    tuple to evaluate at."""
    words = {name for a in phi.atoms for t in a.terms for name in t.word}
    functions = sorted(words - m.functions.keys())
    if functions:
        raise KeyError(f"unknown function {functions[0]!r}")
    predicates = sorted({a.name for a in phi.atoms if isinstance(a, Pred)} - m.predicates.keys())
    if predicates:
        raise KeyError(f"unknown predicate {predicates[0]!r}")


def _grid(values: list) -> list[np.ndarray]:
    """values[i] along axis i of len(values) axes, length 1 on the others."""
    k = len(values)
    return [np.reshape(v, (1,) * i + (-1,) + (1,) * (k - 1 - i)) for i, v in enumerate(values)]


def _term(m: PointerStructure, t: Term, grid: list[np.ndarray], y_arity: int) -> np.ndarray:
    """The value of t along its variable's axis: the grid's first y_arity
    axes are y1..y_k and its other axes are x1, x2, ..."""
    width = y_arity if t.side == "y" else len(grid) - y_arity
    if t.index >= width:
        raise ValueError(f"{t.side}{t.index + 1} outside the supplied tuple")
    value = grid[t.index if t.side == "y" else y_arity + t.index]
    for name in t.word:
        value = m.function_arrays[name][value]
    return value


def _truth(m: PointerStructure, node: Node, grid: list[np.ndarray], y_arity: int):
    """The truth of node over the grid, as a boolean array that broadcasts
    to it; an empty And or Or is a plain True or False."""
    if isinstance(node, Pred):
        return m.predicate_masks[node.name][_term(m, node.term, grid, y_arity)]
    if isinstance(node, Eq):
        return _term(m, node.left, grid, y_arity) == _term(m, node.right, grid, y_arity)
    if isinstance(node, Not):
        return np.logical_not(_truth(m, node.child, grid, y_arity))
    if isinstance(node, (And, Or)):
        conj = isinstance(node, And)  # also the truth of the empty node
        if not node.children:
            return conj
        op = np.logical_and if conj else np.logical_or
        return reduce(op, (_truth(m, ch, grid, y_arity) for ch in node.children))
    raise TypeError(node)


def _full_truth(m: PointerStructure, node: Node, n: int, k: int, y_arity: int) -> np.ndarray:
    """The truth of node at all n^k points, of shape (n,) * k."""
    truth = _truth(m, node, _grid([np.arange(n)] * k), y_arity)
    return np.broadcast_to(truth, (n,) * k)


def eval_formula(m: PointerStructure, phi: QFFormula, a: tuple, b: tuple) -> bool:
    if len(a) != phi.x_arity or len(b) != phi.y_arity:
        raise ValueError("tuple arities do not match the formula")
    _check_signature(m, phi)
    point = (*b, *a)
    if any(not 0 <= v < m.domain_size for v in point):
        raise ValueError(f"tuple entry outside the domain 0..{m.domain_size - 1}")
    return bool(_truth(m, phi.root, _grid([[v] for v in point]), phi.y_arity))


def _cut(flat: list[int], ends: Iterable[int]) -> list[tuple[int, ...]]:
    """flat cut at each of the non-decreasing ends, as tuples; the empty
    pieces are dropped."""
    out, start = [], 0
    for end in ends:
        if end > start:
            out.append(tuple(flat[start:end]))
            start = end
    return out


def defined_system(m: PointerStructure, phi: QFFormula) -> SetSystem:
    """One set per parameter tuple: {x-tuples satisfying phi}, with
    x-tuples of arity > 1 flattened to lexicographic indices.  The truth
    over the capped n^(y+x) points, reshaped to (n^y, n^x), has one row per
    parameter tuple, in lexicographic order.  np.nonzero reads that
    matrix in row blocks, row-major, so each row's columns come out sorted
    and the row counts cut them into the sets."""
    _check_signature(m, phi)
    n, k = m.domain_size, phi.x_arity + phi.y_arity
    if n**k * k > DEFINED_CELL_CAP:
        raise ResourceLimitError(
            f"truth of n^(x+y) points by x+y variables over {DEFINED_CELL_CAP} cells"
        )
    width = n**phi.x_arity
    matrix = _full_truth(m, phi.root, n, k, phi.y_arity).reshape(n**phi.y_arity, width)
    block = max(1, READ_BLOCK_CELLS // max(width, 1))
    sets = set()
    for start in range(0, len(matrix), block):
        part = matrix[start : start + block]
        _, columns = np.nonzero(part)
        sets.update(_cut(columns.tolist(), np.cumsum(part.sum(axis=1)).tolist()))
    return SetSystem(width, tuple(sorted(sets)))


def from_degenerate_graph(g: Graph) -> tuple[PointerStructure, QFFormula]:
    """Encode a graph as pointer functions along its degeneracy
    orientation, with the adjacency formula: x and y are distinct and one
    points at the other."""
    order, dgn = degeneracy_order(g)
    d = max(1, dgn)
    outs = orient_along(g, order)
    functions = {f"f{i}": list(range(g.n)) for i in range(1, d + 1)}
    for v in range(g.n):
        for i, w in enumerate(outs[v], start=1):
            functions[f"f{i}"][v] = w
    m = PointerStructure(g.n, {k: tuple(v) for k, v in functions.items()}, {})
    clauses = " | ".join(f"f{i}(x1)=y1 | f{i}(y1)=x1" for i in range(1, d + 1))
    eta = parse_formula(f"!(x1=y1) & ({clauses})")
    return m, eta


# ---------- decomposition ----------


@dataclass(frozen=True)
class ConjunctPlan:
    guard: tuple[Literal, ...]  # parameter-only literals
    rho_index: int
    psi_index: Optional[int]
    psi_params: tuple[tuple[Word, int], ...]  # slot r's parameter term word(y_j)
    negatives: tuple[tuple[int, tuple[Word, int]], ...]


@dataclass(frozen=True)
class PsiDecomposition:
    x_arity: int
    rhos: tuple[tuple[Literal, ...], ...]
    psis: tuple[tuple[tuple[Word, int], ...], ...]
    assembly: tuple[ConjunctPlan, ...]


def _dnf(node: Node, negated: bool) -> list[frozenset[Literal]]:
    """Disjunctive normal form as a list of literal sets, each conjunct
    once, in first-seen order.  Each child's form is built once.  A
    conjunction multiplies out its children's forms one at a time.  The
    size of each product, conjuncts so far times the child's conjuncts, is
    checked against DNF_PRODUCT_CAP before it is built, so an over-cap
    formula costs no more than the products under the cap; checked after,
    it would first build a product of any size."""
    if isinstance(node, (Pred, Eq)):
        return [frozenset([(not negated, node)])]
    if isinstance(node, Not):
        return _dnf(node.child, not negated)
    forms = [_dnf(ch, negated) for ch in node.children]
    if isinstance(node, Or) != negated:
        return list(dict.fromkeys(chain.from_iterable(forms)))
    conjuncts: list[frozenset[Literal]] = [frozenset()]
    for form in forms:
        if len(conjuncts) * len(form) > DNF_PRODUCT_CAP:
            raise ResourceLimitError(f"normal form product over {DNF_PRODUCT_CAP} conjuncts")
        merged = (left | right for left in conjuncts for right in form)
        conjuncts = list(dict.fromkeys(c for c in merged if not _contradictory(c)))
    return conjuncts


def _contradictory(literals: frozenset[Literal]) -> bool:
    return any((not pos, atom) in literals for pos, atom in literals)


def _term_key(t: Term) -> tuple:
    return (t.side, t.index, t.word)


def _literal_key(lit: Literal) -> tuple:
    pos, atom = lit
    if isinstance(atom, Pred):
        return (0, atom.name, _term_key(atom.term), (), pos)
    k = sorted([_term_key(atom.left), _term_key(atom.right)])
    return (1, "", k[0], k[1], pos)


def qf_decompose(phi: QFFormula) -> PsiDecomposition:
    """Split a partitioned formula into parameter-free rhos and canonical
    psis so that every definable set assembles from guarded intersections
    minus single-slot psi sets."""
    rho_pool: dict[tuple, int] = {}
    rhos: list[tuple[Literal, ...]] = []
    psi_pool: dict[tuple, int] = {}
    psis: list[tuple[tuple[Word, int], ...]] = []

    def rho_id(literals: list[Literal]) -> int:
        canon = tuple(sorted(literals, key=_literal_key))
        key = tuple(_literal_key(l) for l in canon)
        if key not in rho_pool:
            rho_pool[key] = len(rhos)
            rhos.append(canon)
        return rho_pool[key]

    def psi_id(atoms: tuple[tuple[Word, int], ...]) -> int:
        if atoms not in psi_pool:
            psi_pool[atoms] = len(psis)
            psis.append(atoms)
        return psi_pool[atoms]

    plans = []
    for conjunct in _dnf(phi.root, False):
        rho_lits: list[Literal] = []
        guard_lits: list[Literal] = []
        pos_cross: list[tuple[tuple[Word, int], tuple[Word, int]]] = []
        neg_cross: list[tuple[tuple[Word, int], tuple[Word, int]]] = []
        for pos, atom in conjunct:
            sides = {t.side for t in atom.terms}
            if sides <= {"x"}:
                rho_lits.append((pos, atom))
            elif sides <= {"y"}:
                guard_lits.append((pos, atom))
            else:
                left, right = atom.left, atom.right
                if left.side == "y":
                    left, right = right, left
                entry = ((left.word, left.index), (right.word, right.index))
                (pos_cross if pos else neg_cross).append(entry)
        # at most one positive cross per parameter term: rewrite duplicates
        # into object-only equalities
        by_param: dict[tuple[Word, int], tuple[Word, int]] = {}
        kept: list[tuple[tuple[Word, int], tuple[Word, int]]] = []
        for xpart, ypart in sorted(pos_cross):
            if ypart in by_param:
                fw, fi = by_param[ypart]
                hw, hi = xpart
                eq = Eq(Term("x", fi, fw), Term("x", hi, hw))
                rho_lits.append((True, eq))
            else:
                by_param[ypart] = xpart
                kept.append((xpart, ypart))
        psi_index = None
        psi_params: tuple[tuple[Word, int], ...] = ()
        if kept:
            psi_index = psi_id(tuple(x for x, _ in kept))
            psi_params = tuple(y for _, y in kept)
        negatives = tuple(
            (psi_id((xpart,)), ypart) for xpart, ypart in sorted(neg_cross)
        )
        plans.append(
            ConjunctPlan(
                guard=tuple(sorted(guard_lits, key=_literal_key)),
                rho_index=rho_id(rho_lits),
                psi_index=psi_index,
                psi_params=psi_params,
                negatives=negatives,
            )
        )
    return PsiDecomposition(phi.x_arity, tuple(rhos), tuple(psis), tuple(plans))


def _conjunction(literals: Iterable[Literal]) -> And:
    return And(tuple(atom if pos else Not(atom) for pos, atom in literals))


# ---------- the constant-bound coloring ----------


def psi_system_sets(
    m: PointerStructure, psi: tuple[tuple[Word, int], ...]
) -> list[tuple[int, ...]]:
    """Nonempty sets of the psi-defined system, grouped by the value
    tuple; pairwise disjoint because the tuple is a function of the member.
    A stable sort on the value tuple lists each fiber in ascending order."""
    xs = _grid([np.arange(m.domain_size)])
    keys = np.array([_term(m, Term("x", 0, w), xs, 0) for w, _ in psi])
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    ends = np.flatnonzero((keys[:, 1:] != keys[:, :-1]).any(axis=0)) + 1
    return _cut(order.tolist(), [*ends.tolist(), m.domain_size])


def definable_closure(
    m: PointerStructure, phis: list[QFFormula]
) -> tuple[SetSystem, int, int]:
    """The intersection closure of the union decomposition system for the
    given formulas, together with k (max sets per Boolean combination) and
    t, the number of distinct rho and psi systems.  Solver colorings of
    this closure (or of any of its traces) stay within 2^(2k+t+1) on every
    system the formulas define."""
    for phi in phis:
        _check_signature(m, phi)
    decs = [qf_decompose(phi) for phi in phis]
    if any(dec.x_arity != 1 for dec in decs):
        raise ValueError("constant-bound coloring supports x-arity 1 only")

    # rhos keyed by their literal keys, psis by content, in first-seen order
    rhos: dict[tuple, tuple[Literal, ...]] = {}
    psis: dict[tuple[tuple[Word, int], ...], None] = {}
    k = 0
    for dec in decs:
        rho_keys = [tuple(_literal_key(l) for l in rho) for rho in dec.rhos]
        for key, rho in zip(rho_keys, dec.rhos):
            rhos.setdefault(key, rho)
        psis.update(dict.fromkeys(dec.psis))
        slots = set()
        for plan in dec.assembly:
            slots.add(("rho", rho_keys[plan.rho_index]))
            if plan.psi_index is not None:
                slots.add(("psi", dec.psis[plan.psi_index], plan.psi_params))
            for pidx, param in plan.negatives:
                slots.add(("psi", dec.psis[pidx], (param,)))
        k = max(k, len(slots))

    t = len(rhos) + len(psis)
    n = m.domain_size
    base = {
        tuple(np.flatnonzero(_full_truth(m, _conjunction(rho), n, 1, 0)).tolist())
        for rho in rhos.values()
    }
    base.discard(())
    for psi in psis:
        base.update(psi_system_sets(m, psi))
    closure = intersection_closure(SetSystem(n, tuple(sorted(base))))
    return closure, k, t


def qf_color(m: PointerStructure, phis: list[QFFormula]) -> tuple[Coloring, int]:
    """Color the domain so every system definable by the given formulas
    has discrepancy at most 2^(2k+t+1), a constant independent of the
    structure: k bounds the sets per Boolean combination, and t counts the
    distinct rho and psi systems of the decomposition."""
    closure, k, t = definable_closure(m, phis)
    chi = beck_fiala(closure)
    bound = 2 ** (2 * k + t + 1)
    return chi, bound
