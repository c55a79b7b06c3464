"""Finite structures with unary functions and predicates, definable set
systems, and the decomposition pipeline that colors them with a constant
discrepancy bound.

Every variable is a column of one row table, y1..y_k first, then x1,
x2, ...: `_term` maps a term over the rows through numpy index arrays and
`_truth` gives a boolean vector over them.  A definable system is one
truth table over all (parameter, object) rows, and every definable set
and rho in this module goes through that one evaluator.

A quantifier-free partitioned formula is normalized to DNF; each conjunct
splits into object-only literals (rho), parameter-only literals (the
guard), and cross equalities word(x_i) = word(y_j).  Naming the parameter
side of each positive cross z_r yields a psi of the canonical form
AND_r (word_r(x_{i_r}) = z_r); negated crosses each become a single-slot
psi subtracted in the assembly.  z_r is only notation: the assembly reads
it as its parameter term (`tests/oracles.assemble` rebuilds each defined
set from the plans so, one point at a time).  The psi systems have
degree 1 (the z-tuple of a member is determined by the member), so the
union system of all rho and psi systems has degree at most t, the number
of those systems; its intersection closure has degree at most 2^t, and a
solver coloring of the closure is within the constant 2^(2k+t+1) on
every definable set.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Iterable, Optional, Union

import numpy as np

from .discrepancy import Coloring, beck_fiala
from .errors import ParseError, ResourceLimitError, check_input_size
from .formulas import And, Eq, Node, Not, Or, Pred, QFFormula, Term, parse_formula
from .graphs import Graph
from .orderings import degeneracy_order, orient_along
from .setsystems import SetSystem, intersection_closure

# bounds the rows of defined_system's one table walk, and so every array
# of that walk: a column, a term's values, a truth vector
DEFINED_TABLE_CAP = 10**7
DNF_ATOM_CAP = 12

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

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.domain_size,
                "functions": {k: list(v) for k, v in sorted(self.functions.items())},
                "predicates": {k: sorted(v) for k, v in sorted(self.predicates.items())},
            },
            separators=(",", ":"),
        )

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
        dtype = np.min_scalar_type(max(self.domain_size - 1, 0))  # as in _table
        return {name: np.array(f, dtype=dtype) for name, f in self.functions.items()}

    @cached_property
    def predicate_masks(self) -> dict[str, np.ndarray]:
        ground = np.arange(self.domain_size)
        return {name: np.isin(ground, sorted(p)) for name, p in self.predicates.items()}


def _count_atoms(node: Node, seen: set) -> None:
    if isinstance(node, (Pred, Eq)):
        seen.add(node)
    elif isinstance(node, Not):
        _count_atoms(node.child, seen)
    else:
        for ch in node.children:
            _count_atoms(ch, seen)


def _check_signature(m: PointerStructure, root: Node) -> None:
    """Reject a formula that names a function or predicate the structure
    lacks, before anything is evaluated: there may be no row or parameter
    tuple to evaluate at."""
    atoms: set = set()
    _count_atoms(root, atoms)
    terms = [t for a in atoms for t in ((a.term,) if isinstance(a, Pred) else (a.left, a.right))]
    functions = sorted({name for t in terms for name in t.word} - m.functions.keys())
    if functions:
        raise KeyError(f"unknown function {functions[0]!r}")
    predicates = sorted({a.name for a in atoms if isinstance(a, Pred)} - m.predicates.keys())
    if predicates:
        raise KeyError(f"unknown predicate {predicates[0]!r}")


def _table(n: int, k: int) -> np.ndarray:
    """All n^k k-tuples as the rows of an (n^k x k) array in lexicographic
    order, so a row's index is its tuple read in base n; the smallest
    unsigned dtype that holds n - 1 keeps the table small near the cap."""
    cells = np.indices((n,) * k, dtype=np.min_scalar_type(max(n - 1, 0)))
    return cells.reshape(k, n**k).T


def _term(m: PointerStructure, t: Term, table: np.ndarray, y_arity: int) -> np.ndarray:
    """The value of t at every row of the table, whose first y_arity
    columns are y1..y_k and whose other columns are x1, x2, ..."""
    width = y_arity if t.side == "y" else table.shape[1] - y_arity
    if t.index >= width:
        raise ValueError(f"{t.side}{t.index + 1} outside the supplied tuple")
    value = table[:, t.index if t.side == "y" else y_arity + t.index]
    for name in t.word:
        value = m.function_arrays[name][value]
    return value


def _truth(m: PointerStructure, node: Node, table: np.ndarray, y_arity: int) -> np.ndarray:
    """The truth of node at every row of the table, as a boolean vector."""
    if isinstance(node, Pred):
        return m.predicate_masks[node.name][_term(m, node.term, table, y_arity)]
    if isinstance(node, Eq):
        return _term(m, node.left, table, y_arity) == _term(m, node.right, table, y_arity)
    if isinstance(node, Not):
        return np.logical_not(_truth(m, node.child, table, y_arity))
    if isinstance(node, (And, Or)):
        conj = isinstance(node, And)  # also the identity of the empty node
        op = np.logical_and if conj else np.logical_or
        children = (_truth(m, ch, table, y_arity) for ch in node.children)
        return reduce(op, children, np.full(len(table), conj))
    raise TypeError(node)


def eval_formula(m: PointerStructure, phi: QFFormula, a: tuple, b: tuple) -> bool:
    if len(a) != phi.x_arity or len(b) != phi.y_arity:
        raise ValueError("tuple arities do not match the formula")
    _check_signature(m, phi.root)
    row = (*b, *a)
    if any(not 0 <= v < m.domain_size for v in row):
        raise ValueError(f"tuple entry outside the domain 0..{m.domain_size - 1}")
    return bool(_truth(m, phi.root, np.array([row], dtype=np.intp), phi.y_arity)[0])


def defined_system(m: PointerStructure, phi: QFFormula) -> SetSystem:
    """One set per parameter tuple: {x-tuples satisfying phi}, with
    x-tuples of arity > 1 flattened to lexicographic indices.  One walk of
    the formula covers the capped table of all n^(y+x) rows; row b*n^x + a
    holds (b; a), so the truth vector reshaped to (n^y, n^x) has one row
    per parameter tuple, in lexicographic order."""
    _check_signature(m, phi.root)
    n = m.domain_size
    if n ** (phi.x_arity + phi.y_arity) > DEFINED_TABLE_CAP:
        raise ResourceLimitError(f"truth table of n^(x+y) entries over {DEFINED_TABLE_CAP}")
    table = _table(n, phi.y_arity + phi.x_arity)
    truth = _truth(m, phi.root, table, phi.y_arity)
    sets = truth.reshape(n**phi.y_arity, n**phi.x_arity)
    return SetSystem.from_sets(n**phi.x_arity, (np.flatnonzero(s).tolist() for s in sets))


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
    y_arity: int
    rhos: tuple[tuple[Literal, ...], ...]
    psis: tuple[tuple[tuple[Word, int], ...], ...]
    assembly: tuple[ConjunctPlan, ...]


def _dnf(node: Node, negated: bool) -> list[frozenset[Literal]]:
    """Disjunctive normal form as a list of literal sets."""
    if isinstance(node, (Pred, Eq)):
        return [frozenset([(not negated, node)])]
    if isinstance(node, Not):
        return _dnf(node.child, not negated)
    branches = node.children
    disjunctive = isinstance(node, Or) != negated
    if disjunctive:
        out = []
        for ch in branches:
            out.extend(_dnf(ch, negated))
        return out
    conjuncts: list[frozenset[Literal]] = [frozenset()]
    for ch in branches:
        nxt = []
        for left in conjuncts:
            for right in _dnf(ch, negated):
                merged = left | right
                if not _contradictory(merged):
                    nxt.append(merged)
        conjuncts = nxt
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


def _atom_sides(atom: Union[Pred, Eq]) -> set[str]:
    if isinstance(atom, Pred):
        return {atom.term.side}
    return {atom.left.side, atom.right.side}


def qf_decompose(phi: QFFormula) -> PsiDecomposition:
    """Split a partitioned formula into parameter-free rhos and canonical
    psis so that every definable set assembles from guarded intersections
    minus single-slot psi sets."""
    atoms: set = set()
    _count_atoms(phi.root, atoms)
    if len(atoms) > DNF_ATOM_CAP:
        raise ResourceLimitError(f"formula has more than {DNF_ATOM_CAP} atoms")

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

    def psi_id(atoms_: tuple[tuple[Word, int], ...]) -> int:
        if atoms_ not in psi_pool:
            psi_pool[atoms_] = len(psis)
            psis.append(atoms_)
        return psi_pool[atoms_]

    plans = []
    for conjunct in _dnf(phi.root, False):
        rho_lits: list[Literal] = []
        guard_lits: list[Literal] = []
        pos_cross: list[tuple[tuple[Word, int], tuple[Word, int]]] = []
        neg_cross: list[tuple[tuple[Word, int], tuple[Word, int]]] = []
        for pos, atom in conjunct:
            sides = _atom_sides(atom)
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
    return PsiDecomposition(
        phi.x_arity, phi.y_arity, tuple(rhos), tuple(psis), tuple(plans)
    )


def _conjunction(literals: Iterable[Literal]) -> And:
    return And(tuple(atom if pos else Not(atom) for pos, atom in literals))


# ---------- the constant-bound coloring ----------


def psi_system_sets(
    m: PointerStructure, psi: tuple[tuple[Word, int], ...]
) -> list[list[int]]:
    """Nonempty sets of the psi-defined system, grouped by the value
    tuple; pairwise disjoint because the tuple is a function of the member."""
    xs = _table(m.domain_size, 1)
    columns = [_term(m, Term("x", 0, w), xs, 0).tolist() for w, _ in psi]
    fibers: dict[tuple[int, ...], list[int]] = {}
    for a, c in enumerate(zip(*columns)):
        fibers.setdefault(c, []).append(a)
    sets = list(fibers.values())
    assert sum(len(s) for s in sets) == m.domain_size
    return sets


def definable_closure(
    m: PointerStructure, phis: list[QFFormula]
) -> tuple[SetSystem, int, int]:
    """The intersection closure of the union decomposition system for the
    given formulas, together with k (max sets per Boolean combination) and
    t, the number of distinct rho and psi systems.  Solver colorings of
    this closure (or of any of its traces) stay within 2^(2k+t+1) on every
    system the formulas define."""
    for phi in phis:
        _check_signature(m, phi.root)
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
    xs = _table(n, 1)
    base_sets = [
        np.flatnonzero(_truth(m, _conjunction(rho), xs, 0)).tolist()
        for rho in rhos.values()
    ]
    for psi in psis:
        base_sets.extend(psi_system_sets(m, psi))
    closure = intersection_closure(SetSystem.from_sets(n, base_sets))
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
