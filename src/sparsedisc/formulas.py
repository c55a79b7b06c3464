"""Quantifier-free partitioned formulas over unary-signature structures.

Grammar:
    formula := disj
    disj    := conj ("|" conj)*
    conj    := lit ("&" lit)*
    lit     := "!" lit | "(" formula ")" | atom
    atom    := NAME "(" term ")" | term "=" term
    term    := VAR | NAME "(" term ")"
    VAR     := ("x" | "y" | "z") digits

Predicate names start uppercase, function names lowercase.  Variables are
partitioned into object variables x*, parameter variables y*, and the z*
slots used by decompositions.  Function applications nest to depth at
most WORD_CAP; compositions are words over the base function names.
Parentheses and negations nest to depth at most NESTING_CAP, well inside
the recursion limit of the parser and of every recursive pass over the
formula tree.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from .errors import ParseError, ResourceLimitError

WORD_CAP = 8
NESTING_CAP = 100
SIDES = ("x", "y", "z")
_QUANTIFIER_WORDS = {"exists", "forall", "all", "ex", "some", "any"}


@dataclass(frozen=True)
class Term:
    """A variable with a word of function names applied innermost-first."""

    side: str  # "x", "y" or "z"
    index: int  # 0-based
    word: tuple[str, ...] = ()

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"unknown variable side {self.side!r}")
        if len(self.word) > WORD_CAP:
            raise ValueError(f"function composition deeper than {WORD_CAP}")

    def render(self) -> str:
        out = f"{self.side}{self.index + 1}"
        for name in self.word:
            out = f"{name}({out})"
        return out


@dataclass(frozen=True)
class Pred:
    name: str
    term: Term

    def render(self) -> str:
        return f"{self.name}({self.term.render()})"


@dataclass(frozen=True)
class Eq:
    left: Term
    right: Term

    def render(self) -> str:
        return f"{self.left.render()}={self.right.render()}"


Atom = Union[Pred, Eq]


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


def _max_index(node: Node, side: str) -> int:
    if isinstance(node, (Pred, Eq)):
        terms = [node.term] if isinstance(node, Pred) else [node.left, node.right]
        return max((t.index for t in terms if t.side == side), default=-1)
    if isinstance(node, Not):
        return _max_index(node.child, side)
    return max((_max_index(c, side) for c in node.children), default=-1)


_TOKEN_RE = re.compile(r"\s*(?:([A-Za-z][A-Za-z0-9]*)|([()&|!=])|(\S))")


def _tokenize(text: str) -> Iterator[tuple[str, str, int]]:
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            break
        name, punct, junk = m.groups()
        start = m.start(1) if name else m.start(2) if punct else m.start(3)
        if junk is not None:
            raise ParseError(f"unexpected character {junk!r} at position {start}")
        if name is not None:
            yield ("name", name, start)
        else:
            yield (punct, punct, start)
        pos = m.end()
    yield ("end", "", len(text))


_VAR_RE = re.compile(r"^([xyz])([0-9]+)$")


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
        if val in _QUANTIFIER_WORDS:
            raise ParseError(f"quantifier {val!r} at position {pos}: formulas are quantifier-free")
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
        self.take("(")
        inner = self.term()
        self.take(")")
        if len(inner.word) + 1 > WORD_CAP:
            raise ParseError(f"function composition deeper than {WORD_CAP} at position {pos}")
        return Term(inner.side, inner.index, inner.word + (val,))


def parse_formula(text: str) -> QFFormula:
    root = _Parser(text).parse()
    return QFFormula(_max_index(root, "x") + 1, _max_index(root, "y") + 1, root)


def render(node: Node) -> str:
    if isinstance(node, (Pred, Eq)):
        return node.render()
    if isinstance(node, Not):
        return f"!({render(node.child)})"
    if isinstance(node, And):
        return " & ".join(f"({render(c)})" for c in node.children)
    if isinstance(node, Or):
        return " | ".join(f"({render(c)})" for c in node.children)
    raise TypeError(node)
