"""Quantifier-free partitioned formulas over unary-signature structures.

Grammar:
    formula := disj
    disj    := conj ("|" conj)*
    conj    := lit ("&" lit)*
    lit     := "!" lit | "(" formula ")" | atom
    atom    := NAME "(" term ")" | term "=" term
    term    := VAR | NAME "(" term ")"
    VAR     := ("x" | "y") digits

Predicate names start uppercase, function names lowercase.  Variables are
partitioned into object variables x* and parameter variables y*.
Function applications nest to depth at most WORD_CAP; compositions are
words over the base function names.
Parentheses and negations nest to depth at most NESTING_CAP, well inside
the recursion limit of the parser and of every recursive pass over the
formula tree.

Every check is made in the parser, where text enters: the variable sides,
the word cap and the nesting cap.  The nodes do not check themselves;
the package builds other terms only from parsed words.  A formula's atoms
are collected by one walk, `atoms`, and kept on the formula
(`QFFormula.atoms`); `parse_formula` reads the arities from them, and
every later reader of the atoms reads that one set.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

from .errors import ParseError, ResourceLimitError

WORD_CAP = 8
NESTING_CAP = 100
SIDES = ("x", "y")
_QUANTIFIER_WORDS = {"exists", "forall", "all", "ex", "some", "any"}


@dataclass(frozen=True)
class Term:
    """A variable with a word of function names applied innermost-first."""

    side: str  # "x" or "y"
    index: int  # 0-based
    word: tuple[str, ...] = ()


@dataclass(frozen=True)
class Pred:
    name: str
    term: Term

    @property
    def terms(self) -> tuple[Term, ...]:
        return (self.term,)


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term

    @property
    def terms(self) -> tuple[Term, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class Not:
    child: "Node"


@dataclass(frozen=True)
class And:
    children: tuple["Node", ...]


@dataclass(frozen=True)
class Or:
    children: tuple["Node", ...]


Node = Union[Pred, Eq, Not, And, Or]


@dataclass(frozen=True)
class QFFormula:
    x_arity: int
    y_arity: int
    root: Node

    @cached_property
    def atoms(self) -> frozenset[Union[Pred, Eq]]:
        return atoms(self.root)


def atoms(node: Node) -> frozenset[Union[Pred, Eq]]:
    """The distinct atoms of node."""
    if isinstance(node, (Pred, Eq)):
        return frozenset((node,))
    if isinstance(node, Not):
        return atoms(node.child)
    return frozenset().union(*map(atoms, node.children))


_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9]*)|([()&|!=])|(\S))")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    for m in _TOKEN_RE.finditer(text):
        name, punct, junk = m.groups()
        pos = m.start(m.lastindex)
        if junk is not None:
            raise ParseError(f"unexpected character {junk!r} at position {pos}")
        yield ("name", name, pos) if name else (punct, punct, pos)
    yield ("end", "", len(text))


_VAR_RE = re.compile(r"^([xy])([0-9]+)$")


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.i = 0
        self.depth = 0  # open "(" and "!" around the current position

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r} at position {tok[2]}")
        self.i += 1
        return tok

    def parse(self) -> Node:
        node = self.disj()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input at position {pos}")
        return node

    def disj(self) -> Node:
        parts = [self.conj()]
        while self.peek()[0] == "|":
            self.take("|")
            parts.append(self.conj())
        return parts[0] if len(parts) == 1 else Or(tuple(parts))

    def conj(self) -> Node:
        parts = [self.lit()]
        while self.peek()[0] == "&":
            self.take("&")
            parts.append(self.lit())
        return parts[0] if len(parts) == 1 else And(tuple(parts))

    def lit(self) -> Node:
        kind, val, pos = self.peek()
        if kind not in ("!", "("):
            return self.atom()
        self.take(kind)
        self.depth += 1
        if self.depth > NESTING_CAP:
            raise ResourceLimitError(f"formula nesting deeper than {NESTING_CAP} at position {pos}")
        if kind == "!":
            node = Not(self.lit())
        else:
            node = self.disj()
            self.take(")")
        self.depth -= 1
        return node

    def atom(self) -> Node:
        kind, val, pos = self.peek()
        if kind != "name":
            raise ParseError(f"expected an atom at position {pos}")
        if val[0].isupper():
            self.take("name")
            self.take("(")
            term = self.term()
            self.take(")")
            return Pred(val, term)
        left = self.term()
        self.take("=")
        right = self.term()
        return Eq(left, right)

    def term(self) -> Term:
        kind, val, pos = self.peek()
        if kind != "name":
            raise ParseError(f"expected a term at position {pos}")
        if val in _QUANTIFIER_WORDS:
            raise ParseError(f"quantifier {val!r} at position {pos}: formulas are quantifier-free")
        var = _VAR_RE.match(val)
        if var:
            self.take("name")
            side, digits = var.groups()
            index = int(digits)
            if index == 0:
                raise ParseError(f"variable indices start at 1 (position {pos})")
            return Term(side, index - 1)
        if val[0].isupper():
            raise ParseError(f"predicate {val!r} used as a function at position {pos}")
        self.take("name")
        if self.peek()[0] != "(":
            raise ParseError(
                f"unknown variable {val!r} at position {pos}"
                " (variables are x1, x2, ... and y1, y2, ...)"
            )
        self.take("(")
        inner = self.term()
        self.take(")")
        if len(inner.word) + 1 > WORD_CAP:
            raise ParseError(f"function composition deeper than {WORD_CAP} at position {pos}")
        return Term(inner.side, inner.index, inner.word + (val,))


def parse_formula(text: str) -> QFFormula:
    root = _Parser(text).parse()
    found = atoms(root)
    x_arity, y_arity = (
        1 + max((t.index for a in found for t in a.terms if t.side == side), default=-1)
        for side in SIDES
    )
    phi = QFFormula(x_arity, y_arity, root)
    phi.__dict__["atoms"] = found  # the cached_property's slot: walk the tree once
    return phi


def render(node: Union[Term, Node]) -> str:
    """The text of a term or formula, in the grammar `parse_formula` reads.

    Every child of a connective renders in parentheses, so a parsed tree
    renders back to text that parses to the same tree.  A one-child
    connective renders as its child in parentheses and parses back to
    that child.  A connective with no children raises ValueError: the
    grammar has no constant the parser could read back.
    """
    if isinstance(node, Term):
        out = f"{node.side}{node.index + 1}"
        for name in node.word:
            out = f"{name}({out})"
        return out
    if isinstance(node, Pred):
        return f"{node.name}({render(node.term)})"
    if isinstance(node, Eq):
        return f"{render(node.left)}={render(node.right)}"
    if isinstance(node, Not):
        return f"!({render(node.child)})"
    if isinstance(node, (And, Or)):
        if not node.children:
            raise ValueError(f"{type(node).__name__}(()) has no text: the grammar has no constants")
        joiner = " & " if isinstance(node, And) else " | "
        return joiner.join(f"({render(c)})" for c in node.children)
    raise TypeError(node)
