import pytest

from sparsedisc.errors import ParseError, ResourceLimitError
from sparsedisc.formulas import (
    NESTING_CAP,
    And,
    Eq,
    Not,
    Or,
    Pred,
    Term,
    parse_formula,
    render,
)
from sparsedisc.pointer import _conjunction
from test_pointer import random_formula_corpus


class TestParser:
    def test_worked_example(self):
        phi = parse_formula("A(x1) & (B(y1) & f(x1)=y1 | !B(y1) & f(x1)=f(y1))")
        assert (phi.x_arity, phi.y_arity) == (1, 1)
        assert isinstance(phi.root, And)

    def test_tautology_arities(self):
        phi = parse_formula("x1=x1")
        assert (phi.x_arity, phi.y_arity) == (1, 0)
        assert phi.root == Eq(Term("x", 0), Term("x", 0))

    def test_quantifiers_rejected(self):
        with pytest.raises(ParseError, match="quantifier"):
            parse_formula("exists x1 (A(x1))")

    def test_nested_terms_innermost_first(self):
        phi = parse_formula("f(g(x1))=y2")
        assert phi.root.left == Term("x", 0, ("g", "f"))
        assert phi.y_arity == 2

    def test_precedence_and_over_or(self):
        phi = parse_formula("A(x1) & B(x1) | C(x1)")
        assert isinstance(phi.root, Or)
        assert isinstance(phi.root.children[0], And)

    def test_negation_binds_tightly(self):
        phi = parse_formula("!A(x1) & B(x1)")
        assert isinstance(phi.root, And)
        assert isinstance(phi.root.children[0], Not)

    def test_syntax_error_positions(self):
        with pytest.raises(ParseError, match="position"):
            parse_formula("A(x1")
        with pytest.raises(ParseError, match="position"):
            parse_formula("A(x1) &")
        with pytest.raises(ParseError, match="position"):
            parse_formula("= x1")

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError, match="start at 1"):
            parse_formula("A(x0)")

    def test_z_variables_rejected(self):
        # only x* and y* are variables
        with pytest.raises(ParseError, match=r"unknown variable 'z1' at position 3 \(variables"):
            parse_formula("x1=z1")
        with pytest.raises(ParseError, match="unknown variable 'w2' at position 0"):
            parse_formula("w2=f(x1)")
        with pytest.raises(ParseError, match="unknown variable 'x' at position 6"):
            parse_formula("f(x1)=x")
        with pytest.raises(ParseError, match="unknown variable 'z' at position 2"):
            parse_formula("f(z)=x1")

    def test_predicate_as_function_rejected(self):
        with pytest.raises(ParseError, match="function"):
            parse_formula("f(A(x1))=x1")

    def test_composition_cap(self):
        deep = "x1"
        for _ in range(9):
            deep = f"f({deep})"
        with pytest.raises(ParseError, match="deeper"):
            parse_formula(f"{deep}=y1")

    @pytest.mark.parametrize(
        "opening, closing", [("(", ")"), ("!", ""), ("!(", ")"), ("(!", ")")]
    )
    def test_nesting_cap(self, opening, closing):
        # each "(" and "!" is one level; the cap is checked before any recursion limit
        levels = NESTING_CAP // len(opening)
        parse_formula(opening * levels + "x1=y1" + closing * levels)
        parse_formula(" & ".join([opening + "x1=y1" + closing] * (NESTING_CAP + 1)))
        with pytest.raises(ResourceLimitError, match=f"deeper than {NESTING_CAP}"):
            parse_formula(opening * (levels + 1) + "x1=y1" + closing * (levels + 1))

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected"):
            parse_formula("A(x1) + B(x1)")

    def test_render_round_trip(self):
        texts = [
            "A(x1) & (B(y1) & f(x1)=y1 | !B(y1) & f(x1)=f(y1))",
            "!(x1=y1) & (f1(x1)=y1 | f1(y1)=x1)",
            "P(f(g(x1))) | x2=h(y1)",
        ]
        for text in texts:
            phi = parse_formula(text)
            again = parse_formula(render(phi.root))
            assert again.root == phi.root
        for phi in random_formula_corpus():
            assert parse_formula(render(phi.root)).root == phi.root

    def test_render_text(self):
        # every child of a connective in parentheses, as pinned before
        # empty connectives were rejected
        texts = {
            "A(x1) & (B(y1) & f(x1)=y1 | !B(y1) & f(x1)=f(y1))":
                "(A(x1)) & (((B(y1)) & (f(x1)=y1)) | ((!(B(y1))) & (f(x1)=f(y1))))",
            "!(x1=y1) & (f1(x1)=y1 | f1(y1)=x1)": "(!(x1=y1)) & ((f1(x1)=y1) | (f1(y1)=x1))",
            "P(f(g(x1))) | x2=h(y1)": "(P(f(g(x1)))) | (x2=h(y1))",
        }
        for text, rendered in texts.items():
            assert render(parse_formula(text).root) == rendered

    def test_one_child_connective_parses_to_its_child(self):
        a = Pred("A", Term("x", 0))
        cases = [(And((a,)), "(A(x1))"), (Or((a,)), "(A(x1))"), (And((Or((a,)),)), "((A(x1)))")]
        for node, text in cases:
            assert render(node) == text
            assert parse_formula(text).root == a

    def test_empty_connective_rejected(self):
        a = Pred("A", Term("x", 0))
        for node in (And(()), Or(()), Not(And(())), And((a, Or(()))), _conjunction([])):
            with pytest.raises(ValueError):
                render(node)
