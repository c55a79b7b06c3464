import hashlib
import json
from itertools import product

import pytest

from oracles import assemble, closure_by_element, eval_brute, weakly_induced
from sparsedisc import formulas, pointer
from sparsedisc.discrepancy import beck_fiala, eval_discrepancy
from sparsedisc.errors import ResourceLimitError
from sparsedisc.formulas import (
    SIDES,
    WORD_CAP,
    And,
    Eq,
    Not,
    Or,
    Pred,
    QFFormula,
    Term,
    parse_formula,
    render,
)
from sparsedisc.graphs import Graph, generate_family, random_degenerate_graph
from sparsedisc.orderings import degeneracy_order
from sparsedisc.pointer import (
    PointerStructure,
    definable_closure,
    defined_system,
    eval_formula,
    from_degenerate_graph,
    psi_system_sets,
    qf_color,
    qf_decompose,
)
from sparsedisc.rng import SplitMix64
from sparsedisc.setsystems import SetSystem, neighborhood_system, trace

WORKED = "A(x1) & (B(y1) & f(x1)=y1 | !B(y1) & f(x1)=f(y1))"


def random_structure(rng: SplitMix64, n: int, preds=("A", "B"), funcs=("f", "g")):
    return PointerStructure(
        n,
        {name: tuple(rng.randrange(n) for _ in range(n)) for name in funcs},
        {
            name: frozenset(v for v in range(n) if rng.bernoulli(1, 2))
            for name in preds
        },
    )


class TestPointerStructure:
    def test_json_round_trip(self):
        # the pointer structure JSON of the README
        text = json.dumps({"n": 3, "functions": {"f": [1, 2, 0]}, "predicates": {"A": [0, 2]}})
        m = PointerStructure(3, {"f": (1, 2, 0)}, {"A": frozenset({0, 2})})
        assert PointerStructure.from_json(text) == m

    def test_rejects_partial_function(self):
        with pytest.raises(ValueError):
            PointerStructure(3, {"f": (0, 1)}, {})

    def test_rejects_escaping_values(self):
        with pytest.raises(ValueError):
            PointerStructure(2, {"f": (0, 5)}, {})

    def test_rejects_name_clash(self):
        with pytest.raises(ValueError):
            PointerStructure(2, {"a": (0, 1)}, {"a": frozenset()})

    def test_weakly_induced_fixed_points(self):
        m = PointerStructure(4, {"f": (1, 2, 3, 0)}, {"A": frozenset({0, 3})})
        sub = weakly_induced(m, [0, 1, 3])
        # f(1) = 2 leaves the subset, so the image of the new index of 1
        # becomes itself; predicates restrict
        assert sub.functions["f"] == (1, 1, 0)
        assert sub.predicates["A"] == frozenset({0, 2})


class TestEvalFormula:
    def test_identity_function_tautology(self):
        m = PointerStructure(4, {"f": (0, 1, 2, 3)}, {})
        phi = parse_formula("f(x1)=x1")
        assert all(eval_formula(m, phi, (a,), ()) for a in range(4))

    def test_worked_example_by_hand(self):
        # phi(0;1) unfolds to A(0) & (B(1) & f(0)=1): true exactly when 0 in A
        phi = parse_formula(WORKED)
        for zero_in_a in (False, True):
            m = PointerStructure(
                3,
                {"f": (1, 0, 0)},
                {"A": frozenset({0} if zero_in_a else ()), "B": frozenset({1})},
            )
            assert eval_formula(m, phi, (0,), (1,)) == zero_in_a

    def test_empty_predicate_everywhere_false(self):
        m = PointerStructure(3, {"f": (1, 2, 0)}, {"P": frozenset()})
        phi = parse_formula("P(f(x1))")
        assert not any(eval_formula(m, phi, (a,), ()) for a in range(3))

    def test_unknown_symbol_raises(self):
        m = PointerStructure(2, {}, {})
        with pytest.raises(KeyError):
            eval_formula(m, parse_formula("Q(x1)"), (0,), ())
        with pytest.raises(KeyError):
            eval_formula(m, parse_formula("h(x1)=x1"), (0,), ())

    def test_arity_mismatch(self):
        m = PointerStructure(2, {}, {"A": frozenset({0})})
        with pytest.raises(ValueError):
            eval_formula(m, parse_formula("A(x1)"), (0, 1), ())

    @pytest.mark.parametrize(
        "text, a, b",
        [("A(x1)", (-1,), ()), ("A(x1)", (3,), ()), ("x1=y1", (5,), (5,)),
         ("x1=y1", (0,), (-1,)), ("x1=y1", (0,), (3,))],
    )
    def test_out_of_domain_entries_raise(self, text, a, b):
        # numpy indices would wrap -1 to n - 1 and answer for a tuple not in the domain
        m = PointerStructure(3, {}, {"A": frozenset({2})})
        with pytest.raises(ValueError, match="outside the domain"):
            eval_formula(m, parse_formula(text), a, b)

    def test_empty_and_or_are_true_and_false(self):
        m = PointerStructure(2, {}, {})
        assert eval_formula(m, QFFormula(1, 0, And(())), (1,), ())
        assert not eval_formula(m, QFFormula(1, 0, Or(())), (1,), ())
        assert defined_system(m, QFFormula(1, 0, And(()))).sets == ((0, 1),)


class TestDefinedSystem:
    def test_equality_gives_singletons(self):
        m = PointerStructure(4, {}, {})
        s = defined_system(m, parse_formula("x1=y1"))
        assert s.sets == ((0,), (1,), (2,), (3,))

    def test_worked_example_sets_match_rho_cap_psi(self):
        rng = SplitMix64(17)
        phi = parse_formula(WORKED)
        for _ in range(10):
            m = random_structure(rng, 5, funcs=("f",))
            s = defined_system(m, phi)
            rho = {a for a in range(5) if a in m.predicates["A"]}
            f = m.functions["f"]
            expected = set()
            for b in range(5):
                c = b if b in m.predicates["B"] else f[b]
                members = frozenset(a for a in rho if f[a] == c)
                if members:
                    expected.add(members)
            assert {frozenset(t) for t in s.sets} == expected

    def test_parameter_cap(self):
        m = PointerStructure(101, {}, {})
        phi = parse_formula("x1=y1 | x1=y2 | x1=y3")
        with pytest.raises(ResourceLimitError):
            defined_system(m, phi)

    def test_ground_bits_cap(self):
        m = PointerStructure(300, {}, {})
        phi = parse_formula("x1=x2 & x1=x3 & x1=y1")
        with pytest.raises(ResourceLimitError):
            defined_system(m, phi)

    def test_table_cap_bounds_the_product(self):
        # 3^10 parameters and 3^10 x-tuples each pass a separate cap; the
        # 3^20-entry truth table does not
        m = PointerStructure(3, {}, {})
        with pytest.raises(ResourceLimitError):
            defined_system(m, parse_formula("x10=y10"))

    def test_cell_cap_before_the_table(self, monkeypatch):
        # 2^23 points pass a cap of 10^7 points, but each has 23 variables:
        # the 1.9 * 10^8 cells are refused before any array is made, the
        # grid of the variables' axes included
        def no_grid(values):
            raise AssertionError("grid allocated")

        monkeypatch.setattr(pointer, "_grid", no_grid)
        m = PointerStructure(2, {"f": (1, 0)}, {})
        with pytest.raises(ResourceLimitError, match="cells"):
            defined_system(m, parse_formula("f(x1)=y1 & f(x1)=y22"))

    def test_cell_cap_counts_rows_times_variables(self, monkeypatch):
        m = PointerStructure(5, {}, {})
        monkeypatch.setattr(pointer, "DEFINED_CELL_CAP", 50)  # 25 rows by 2 variables
        assert len(defined_system(m, parse_formula("x1=y1")).sets) == 5
        monkeypatch.setattr(pointer, "DEFINED_CELL_CAP", 49)
        with pytest.raises(ResourceLimitError):
            defined_system(m, parse_formula("x1=y1"))

    @pytest.mark.parametrize("text", ["A(x1) | g(x1)=y1", "!A(x1) & Q(y1)"])
    def test_unknown_symbol_raises_whatever_the_data(self, text):
        # A holds everywhere, so a short-circuit would never look at g or Q
        m = PointerStructure(3, {"f": (1, 2, 0)}, {"A": frozenset({0, 1, 2})})
        with pytest.raises(KeyError):
            defined_system(m, parse_formula(text))

    @pytest.mark.parametrize(
        "text, message",
        [("Q(x1) | g(y1)=x1", "unknown function 'g'"), ("Q(x1) | x1=y1", "unknown predicate 'Q'")],
    )
    def test_unknown_symbol_raises_on_an_empty_domain(self, text, message):
        # no parameter tuple and no row to evaluate at: the signature check alone rejects it
        m = PointerStructure(0, {}, {})
        with pytest.raises(KeyError, match=message):
            defined_system(m, parse_formula(text))
        with pytest.raises(KeyError, match=message):
            qf_color(m, [parse_formula(text)])

    def test_x_arity_zero_is_one_empty_tuple(self):
        m = PointerStructure(3, {"f": (1, 1, 0)}, {"B": frozenset({1})})
        s = defined_system(m, parse_formula("B(f(y1))"))
        assert s.ground_size == 1 and s.sets == ((0,),)

    def test_parameter_only_formula_broadcasts_to_the_ground(self):
        m = PointerStructure(3, {}, {"B": frozenset({1})})
        s = defined_system(m, QFFormula(1, 1, Pred("B", Term("y", 0))))
        assert s.sets == ((0, 1, 2),)

    def test_empty_domain(self):
        m = PointerStructure(0, {"f": ()}, {"A": frozenset()})
        assert defined_system(m, parse_formula("A(f(x1))")) == SetSystem(0, ())
        assert defined_system(m, parse_formula("x1=y1")) == SetSystem(0, ())


def brute_system(m: PointerStructure, phi: QFFormula) -> SetSystem:
    """defined_system by eval_brute, one point at a time."""
    xs = list(product(range(m.domain_size), repeat=phi.x_arity))
    return SetSystem.from_sets(
        len(xs),
        (
            [i for i, a in enumerate(xs) if eval_brute(m, phi.root, a, b)]
            for b in product(range(m.domain_size), repeat=phi.y_arity)
        ),
    )


class TestBroadcastEdgeCases:
    """Truths that do not span every axis of the grid: the 0-d truths of
    empty connectives, formulas over the parameters or the objects alone,
    and variables declared but unused, on domains of size 0 to 3."""

    F, X, Y = ("f",), "x", "y"
    FORMULAS = [
        QFFormula(1, 1, And(())),
        QFFormula(1, 1, Or(())),
        QFFormula(2, 2, And(())),
        QFFormula(2, 0, Or(())),
        QFFormula(0, 2, And(())),
        QFFormula(1, 2, Not(Or(()))),
        QFFormula(1, 1, Or((And(()), Pred("A", Term(X, 0))))),
        # parameters only
        QFFormula(2, 1, Pred("B", Term(Y, 0, F))),
        QFFormula(1, 2, Or((Pred("B", Term(Y, 1)), Eq(Term(Y, 0), Term(Y, 1, F))))),
        # objects only
        QFFormula(1, 2, And((Pred("A", Term(X, 0)), Not(Eq(Term(X, 0, F), Term(X, 0)))))),
        QFFormula(2, 1, Eq(Term(X, 1, F), Term(X, 0))),
        # x2 and y1 declared but unused, then x1 and y2
        QFFormula(2, 2, Eq(Term(X, 0, F), Term(Y, 1))),
        QFFormula(2, 2, And((Eq(Term(X, 1), Term(Y, 0, F)), Pred("A", Term(Y, 0))))),
    ]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_brute(self, n):
        f = tuple((v + 1) % n for v in range(n))
        m = PointerStructure(
            n, {"f": f}, {"A": frozenset(range(0, n, 2)), "B": frozenset(range(max(n - 1, 0), n))}
        )
        for phi in self.FORMULAS:
            assert defined_system(m, phi) == brute_system(m, phi), phi
            for a in product(range(n), repeat=phi.x_arity):
                for b in product(range(n), repeat=phi.y_arity):
                    assert eval_formula(m, phi, a, b) == eval_brute(m, phi.root, a, b), (phi, a, b)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_rho_of_an_empty_conjunction_is_the_ground(self, n, closure_inputs):
        # f(x1)=y1 has one conjunct and no object-only literal: its rho is
        # the empty conjunction, a 0-d truth that stands for every object
        f = tuple(v // 2 for v in range(n))
        definable_closure(PointerStructure(n, {"f": f}, {}), [parse_formula("f(x1)=y1")])
        fibers = [[a for a in range(n) if f[a] == c] for c in range(n)]
        assert closure_inputs == [SetSystem.from_sets(n, [range(n), *fibers])]


def random_formula(rng: SplitMix64, funcs, preds) -> QFFormula:
    """x-arity 1-2, y-arity 0-2, words of length <= 2, nesting depth <= 3;
    the declared arities may exceed the indices the formula uses."""
    x_arity, y_arity = 1 + rng.randrange(2), rng.randrange(3)

    def term() -> Term:
        side = "y" if y_arity and rng.bernoulli(1, 2) else "x"
        word = tuple(funcs[rng.randrange(len(funcs))] for _ in range(rng.randrange(3)))
        return Term(side, rng.randrange(x_arity if side == "x" else y_arity), word)

    def node(depth: int):
        if depth == 0 or rng.bernoulli(1, 3):
            if rng.bernoulli(1, 3):
                return Pred(preds[rng.randrange(len(preds))], term())
            return Eq(term(), term())
        kind = rng.randrange(3)
        if kind == 0:
            return Not(node(depth - 1))
        children = tuple(node(depth - 1) for _ in range(2 + rng.randrange(2)))
        return And(children) if kind == 1 else Or(children)

    return QFFormula(x_arity, y_arity, node(3))


def random_formula_corpus(count: int = 300) -> list[QFFormula]:
    """Seeded random formulas over the functions f, g and predicates A, B."""
    rng = SplitMix64(57)
    return [random_formula(rng, ("f", "g"), ("A", "B")) for _ in range(count)]


class TestParsedTerms:
    def test_every_parsed_term_is_in_bounds(self, monkeypatch):
        # the parser is the only check on a term's side and word
        built = []

        def recording(*args):
            built.append(Term(*args))
            return built[-1]

        deepest = "x1"
        for name in "fg" * (WORD_CAP // 2):
            deepest = f"{name}({deepest})"
        texts = [render(phi.root) for phi in random_formula_corpus()] + [f"{deepest}=y1"]
        monkeypatch.setattr(formulas, "Term", recording)
        for text in texts:
            parse_formula(text)
        assert built and max(len(t.word) for t in built) == WORD_CAP
        assert all(t.side in SIDES and len(t.word) <= WORD_CAP for t in built)

    def test_atoms_are_walked_at_parse_time_only(self, monkeypatch):
        walked = []
        walk = formulas.atoms

        def counting(node):
            walked.append(node)
            return walk(node)

        monkeypatch.setattr(formulas, "atoms", counting)
        rng = SplitMix64(58)
        for text in (WORKED, "!(x1=y1) & (f(x1)=y1 | f(y1)=x1)", "A(x1) & !(g(x1)=f(y1)) | B(x1)"):
            phi = parse_formula(text)
            assert walked
            walked.clear()
            m = random_structure(rng, 8)
            qf_color(m, [phi])
            defined_system(m, phi)
            assert walked == []


class TestEvaluatorMatchesBrute:
    """The set-at-a-time evaluator against the pointwise oracle."""

    def test_random_structures_and_formulas(self):
        rng = SplitMix64(55)
        for _ in range(300):
            n = rng.randrange(6)
            funcs = ("f", "g")[: 1 + rng.randrange(2)]
            preds = ("A", "B")[: 1 + rng.randrange(2)]
            m = random_structure(rng, n, preds=preds, funcs=funcs)
            phi = random_formula(rng, funcs, preds)
            xs = list(product(range(n), repeat=phi.x_arity))
            dec = qf_decompose(phi)
            sets = []
            for b in product(range(n), repeat=phi.y_arity):
                truth = [eval_brute(m, phi.root, a, b) for a in xs]
                assert [eval_formula(m, phi, a, b) for a in xs] == truth
                members = {i for i, hit in enumerate(truth) if hit}
                sets.append(members)
                assert assemble(m, dec, b) == members
            assert defined_system(m, phi) == SetSystem.from_sets(n**phi.x_arity, sets)


class TestFromDegenerateGraph:
    @pytest.mark.parametrize(
        "g",
        [
            generate_family("cycle", [5]),
            generate_family("complete", [4]),
            generate_family("grid", [3, 4]),
            Graph(4, ((), (), (), ())),
        ],
    )
    def test_round_trip_neighborhoods(self, g):
        m, eta = from_degenerate_graph(g)
        assert defined_system(m, eta) == neighborhood_system(g)

    def test_function_count_is_degeneracy(self):
        g = generate_family("complete", [4])
        m, _ = from_degenerate_graph(g)
        assert set(m.functions) == {"f1", "f2", "f3"}

    def test_edgeless_defines_empty_system(self):
        g = Graph(3, ((), (), ()))
        m, eta = from_degenerate_graph(g)
        assert all(f == tuple(range(3)) for f in m.functions.values())
        assert defined_system(m, eta).sets == ()


class TestDecompose:
    def test_worked_example_psi(self):
        dec = qf_decompose(parse_formula(WORKED))
        assert len(dec.rhos) == 1
        [(pos, atom)] = dec.rhos[0]
        assert pos and render(atom) == "A(x1)"
        assert dec.psis == (((("f",), 0),),)
        assert len(dec.assembly) == 2

    def test_three_object_variable_example(self):
        dec = qf_decompose(parse_formula("R(x3) & B(y1) & h(x1)=f(y2) & h(x2)=g(y2)"))
        assert len(dec.rhos) == 1
        [(pos, atom)] = dec.rhos[0]
        assert pos and render(atom) == "R(x3)"
        assert dec.psis == (((("h",), 0), (("h",), 1)),)
        [plan] = dec.assembly
        assert plan.psi_params == ((("f",), 1), (("g",), 1))

    def test_duplicate_parameter_terms_rewritten(self):
        # two positive crosses onto the same g(y1): the second becomes an
        # object-only equality
        dec = qf_decompose(parse_formula("f(x1)=g(y1) & h(x2)=g(y1)"))
        assert dec.psis == (((("f",), 0),),)
        [plan] = dec.assembly
        rho = dec.rhos[plan.rho_index]
        assert len(rho) == 1
        [(pos, atom)] = rho
        assert pos and render(atom) == "f(x1)=h(x2)"

    def test_no_parameters_trivial_assembly(self):
        dec = qf_decompose(parse_formula("A(x1) & !B(x1) | x1=f(x1)"))
        assert dec.psis == ()
        assert all(plan.psi_index is None for plan in dec.assembly)
        assert all(not plan.guard for plan in dec.assembly)

    def test_thirteen_atom_disjunction_decomposes(self):
        dec = qf_decompose(parse_formula(" | ".join(f"A{i}(x1)" for i in range(13))))
        assert len(dec.rhos) == len(dec.assembly) == 13

    def test_repeated_clauses_keep_each_conjunct_once(self):
        # 2^200 conjuncts multiplied out; {x1=y1}, {f(x1)=y1} and both
        dec = qf_decompose(parse_formula(" & ".join(["(x1=y1 | f(x1)=y1)"] * 200)))
        assert len(dec.assembly) == 3

    def test_product_cap_before_the_product(self, monkeypatch):
        # a conjunction of k distinct pairs multiplies out 2, 4, ..., 2^k
        # conjuncts, so the cap is reached at `full` pairs and passed at one more
        full = pointer.DNF_PRODUCT_CAP.bit_length() - 1
        assert pointer.DNF_PRODUCT_CAP == 2**full

        def pairs(k):
            return parse_formula(" & ".join(f"(A{i}(x1) | B{i}(x1))" for i in range(k)))

        assert len(qf_decompose(pairs(full)).assembly) == pointer.DNF_PRODUCT_CAP
        built = []
        contradictory = pointer._contradictory
        monkeypatch.setattr(
            pointer, "_contradictory", lambda c: built.append(c) or contradictory(c)
        )
        with pytest.raises(ResourceLimitError, match=str(pointer.DNF_PRODUCT_CAP)):
            qf_decompose(pairs(full + 1))
        # every merged conjunct is checked once: only the products up to
        # the cap were built
        assert len(built) == 2 ** (full + 1) - 2

    def test_psi_systems_have_degree_one(self):
        rng = SplitMix64(19)
        for text in (WORKED, "!(x1=y1) & (f(x1)=y1 | f(y1)=x1 | g(x1)=y1)"):
            dec = qf_decompose(parse_formula(text))
            for _ in range(5):
                m = random_structure(rng, 6)
                for psi in dec.psis:
                    sets = psi_system_sets(m, psi)
                    assert sum(len(s) for s in sets) == m.domain_size
                    flat = [v for s in sets for v in s]
                    assert len(flat) == len(set(flat))


class TestAssemble:
    FORMULAS = [
        WORKED,
        "!(x1=y1) & (f(x1)=y1 | f(y1)=x1 | g(x1)=y1 | g(y1)=x1)",
        "A(x1) & !(g(x1)=f(y1)) | B(x1)",
        "f(x1)=g(y1) & g(x1)=g(y1) & !(x1=y1)",
        "A(y1) & B(y2) | f(x1)=y2",
        "!(A(x1) & f(x1)=y1)",
    ]

    def test_matches_direct_evaluation_exhaustively(self):
        rng = SplitMix64(20)
        for _ in range(8):
            n = 2 + rng.randrange(6)
            m = random_structure(rng, n)
            for text in self.FORMULAS:
                phi = parse_formula(text)
                dec = qf_decompose(phi)
                for b in product(range(n), repeat=phi.y_arity):
                    direct = {a for a in range(n) if eval_formula(m, phi, (a,), b)}
                    assert assemble(m, dec, b) == direct, (text, b)

    def test_guard_false_gives_empty(self):
        phi = parse_formula("B(y1) & f(x1)=y1")
        dec = qf_decompose(phi)
        m = PointerStructure(3, {"f": (0, 0, 0)}, {"B": frozenset()})
        assert assemble(m, dec, (1,)) == set()

    def test_rho_only_constant_in_parameter(self):
        phi = parse_formula("A(x1) & !(x1=f(x1))")
        dec = qf_decompose(phi)
        m = PointerStructure(4, {"f": (1, 1, 3, 3)}, {"A": frozenset({0, 1, 2})})
        expect = {0, 2}
        assert assemble(m, dec, ()) == expect

    def test_multi_x_assembly(self):
        phi = parse_formula("h(x1)=f(y1) & h(x2)=g(y1)")
        dec = qf_decompose(phi)
        rng = SplitMix64(27)
        for _ in range(5):
            n = 2 + rng.randrange(4)
            m = random_structure(rng, n, preds=(), funcs=("f", "g", "h"))
            for b in product(range(n), repeat=1):
                direct = {
                    a1 * n + a2
                    for a1 in range(n)
                    for a2 in range(n)
                    if eval_formula(m, phi, (a1, a2), b)
                }
                assert assemble(m, dec, b) == direct


# (n, degeneracy) of the seeded adjacency-formula inputs, the sizes of the
# benchmark's qf workload
QF_SHAPES = [(60, 2), (60, 3), (90, 2), (90, 3), (120, 2), (120, 3), (150, 2), (150, 3)]
# sha256 of the signs, bound and achieved discrepancy of qf_color over
# qf_corpus(), achieved evaluated on defined_system as `color qf` reports it
QF_DIGEST = "21f22cfa7ce12b7ba7ab1d95cc80b0cf4f42fac4dda31bd4df605da336104dcd"


def qf_corpus():
    """(label, structure, adjacency formula) of seeded graphs with
    degeneracy exactly p, two of each shape."""
    rng = SplitMix64(21)
    for n, p in QF_SHAPES * 2:
        g = random_degenerate_graph(n, p, seed=rng.next_u64())
        while degeneracy_order(g)[1] != p:
            g = random_degenerate_graph(n, p, seed=rng.next_u64())
        yield f"n={n} p={p}", *from_degenerate_graph(g)


class TestQfColor:
    def test_singletons(self):
        m = PointerStructure(6, {}, {})
        phi = parse_formula("x1=y1")
        chi, bound = qf_color(m, [phi])
        d, _ = eval_discrepancy(defined_system(m, phi), chi)
        assert d <= 1 <= bound

    def test_adjacency_formula_constant_across_sizes(self):
        results = []
        bound_seen = None
        for n in (10, 50, 200):
            g = random_degenerate_graph(n, 2, seed=100 + n)
            m, eta = from_degenerate_graph(g)
            chi, bound = qf_color(m, [eta])
            d, _ = eval_discrepancy(defined_system(m, eta), chi)
            assert d <= bound
            results.append(d)
            bound_seen = bound if bound_seen is None else bound_seen
        assert max(results) <= bound_seen

    def test_worked_example_under_constant(self):
        rng = SplitMix64(23)
        phi = parse_formula(WORKED)
        for _ in range(6):
            m = random_structure(rng, 12, funcs=("f",))
            chi, bound = qf_color(m, [phi])
            d, _ = eval_discrepancy(defined_system(m, phi), chi)
            assert d <= bound

    def test_multiple_formulas_one_coloring(self):
        rng = SplitMix64(24)
        phis = [parse_formula(WORKED), parse_formula("g(x1)=y1")]
        m = random_structure(rng, 10)
        chi, bound = qf_color(m, phis)
        for phi in phis:
            d, _ = eval_discrepancy(defined_system(m, phi), chi)
            assert d <= bound

    def test_trace_stability_recolored(self):
        # the hereditary claim: rerun the solver on the traced closure and
        # evaluate on the traced definable system
        rng = SplitMix64(25)
        g = random_degenerate_graph(24, 2, seed=31)
        m, eta = from_degenerate_graph(g)
        _, bound = qf_color(m, [eta])
        base = defined_system(m, eta)

        from sparsedisc.pointer import definable_closure

        closure, _, _ = definable_closure(m, [eta])
        for _ in range(15):
            subset = [v for v in range(m.domain_size) if rng.bernoulli(1, 2)]
            if not subset:
                continue
            traced_closure, _ = trace(closure, subset)
            traced_base, _ = trace(base, subset)
            chi = beck_fiala(traced_closure)
            d, _ = eval_discrepancy(traced_base, chi)
            assert d <= bound

    def test_closure_matches_the_element_oracle_on_the_qf_corpus(self, closure_inputs):
        for _, m, eta in qf_corpus():
            closure, _, _ = definable_closure(m, [eta])
            assert set(closure.sets) == closure_by_element(closure_inputs[-1])

    def test_qf_color_frozen(self):
        h = hashlib.sha256()
        for label, m, eta in qf_corpus():
            chi, bound = qf_color(m, [eta])
            achieved, _ = eval_discrepancy(defined_system(m, eta), chi)
            signs = "".join("+" if v == 1 else "-" for v in chi.values)
            h.update(f"{label}|{signs}|{bound}|{achieved}\n".encode())
        assert h.hexdigest() == QF_DIGEST

    @pytest.mark.parametrize("n, p, degeneracy", [(300, 8, 6), (200, 20, 13)])
    def test_high_degeneracy_encodings(self, n, p, degeneracy):
        # 2 * degeneracy + 1 atoms: 13 and 27
        g = random_degenerate_graph(n, p, 1)
        assert degeneracy_order(g)[1] == degeneracy
        m, eta = from_degenerate_graph(g)
        chi, bound = qf_color(m, [eta])
        achieved, _ = eval_discrepancy(defined_system(m, eta), chi)
        assert achieved <= bound
        assert achieved == eval_discrepancy(neighborhood_system(g), chi)[0]

    def test_rejects_multi_x(self):
        m = PointerStructure(4, {"f": (0, 1, 2, 3)}, {})
        with pytest.raises(ValueError):
            qf_color(m, [parse_formula("f(x1)=y1 & f(x2)=y1")])
