"""Precondition language: AST, lexer, recursive-descent parser, printer.

The language is a small s-expression dialect over boolean object predicates:

    formula  := atom | (not formula) | (and formula+)
              | (when formula formula) | (exists (?var) formula)
    atom     := (predicate ?var) | (isHoldingObject)

Predicates come from the closed sixteen-name attribute vocabulary plus the
nullary agent predicate. ``?x`` denotes the action's target object; any
other variable must be bound by an enclosing ``exists``. ``;`` starts a
line comment. Input may be wrapped in a ```pddl fenced block.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FormulaSyntaxError, UnboundVariableError, UnknownPredicateError
from .world import AGENT_PREDICATE, ATTRIBUTE_NAMES

TARGET_VARIABLE = "?x"

_VALID_PREDICATES = frozenset(ATTRIBUTE_NAMES) | {AGENT_PREDICATE}


@dataclass(frozen=True)
class Atom:
    """A predicate applied to a variable, or the nullary agent predicate."""

    name: str
    variable: str | None = TARGET_VARIABLE


@dataclass(frozen=True)
class Not:
    child: "Formula"


@dataclass(frozen=True)
class And:
    children: tuple["Formula", ...]


@dataclass(frozen=True)
class When:
    antecedent: "Formula"
    consequent: "Formula"


@dataclass(frozen=True)
class Exists:
    variable: str
    body: "Formula"


Formula = Atom | Not | And | When | Exists


# ---------------------------------------------------------------------------
# Lexer


@dataclass(frozen=True)
class _Token:
    kind: str  # "(", ")", "symbol", "variable"
    text: str
    line: int
    column: int


_FENCE_RE = re.compile(r"```(?:pddl)?\s*\n(.*?)```", re.DOTALL)


def strip_fence(source: str) -> str:
    """Return the contents of the first fenced block, or the text unchanged."""
    match = _FENCE_RE.search(source)
    if match:
        return match.group(1)
    return source


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, column = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch == ";":
            while i < len(source) and source[i] != "\n":
                i += 1
            continue
        if ch in "()":
            tokens.append(_Token(ch, ch, line, column))
            column += 1
            i += 1
            continue
        match = re.match(r"\??[A-Za-z_][A-Za-z0-9_-]*", source[i:])
        if not match:
            raise FormulaSyntaxError(f"unexpected character {ch!r}", line, column)
        text = match.group(0)
        kind = "variable" if text.startswith("?") else "symbol"
        tokens.append(_Token(kind, text, line, column))
        column += len(text)
        i += len(text)
    return tokens


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[_Token], end_line: int):
        self.tokens = tokens
        self.pos = 0
        self.end_line = end_line

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self, kind: str | None = None, expected: tuple[str, ...] = ()) -> _Token:
        token = self._peek()
        if token is None:
            raise FormulaSyntaxError(
                "unexpected end of input", self.end_line, 1, expected or ((kind,) if kind else ())
            )
        if kind is not None and token.kind != kind:
            raise FormulaSyntaxError(
                f"unexpected token {token.text!r}",
                token.line,
                token.column,
                expected or (kind,),
            )
        self.pos += 1
        return token

    def parse(self) -> Formula:
        formula = self._formula(bound={TARGET_VARIABLE})
        trailing = self._peek()
        if trailing is not None:
            raise FormulaSyntaxError(
                f"unexpected trailing token {trailing.text!r}",
                trailing.line,
                trailing.column,
                ("end of input",),
            )
        return formula

    def _formula(self, bound: set[str]) -> Formula:
        self._take("(", expected=("(",))
        head = self._take("symbol", expected=("and", "not", "when", "exists", "predicate name"))

        if head.text == "not":
            child = self._formula(bound)
            self._take(")", expected=(")",))
            return Not(child)

        if head.text == "and":
            children = []
            while True:
                token = self._peek()
                if token is None:
                    raise FormulaSyntaxError(
                        "unexpected end of input", self.end_line, 1, (")", "(")
                    )
                if token.kind == ")":
                    break
                children.append(self._formula(bound))
            if not children:
                raise FormulaSyntaxError(
                    "and requires at least one child", head.line, head.column, ("(",)
                )
            self._take(")")
            return And(tuple(children))

        if head.text == "when":
            antecedent = self._formula(bound)
            consequent = self._formula(bound)
            self._take(")", expected=(")",))
            return When(antecedent, consequent)

        if head.text == "exists":
            self._take("(", expected=("(",))
            variable = self._take("variable", expected=("variable",))
            closing = self._peek()
            if closing is not None and closing.kind == "variable":
                raise FormulaSyntaxError(
                    "exists binds exactly one variable", closing.line, closing.column, (")",)
                )
            self._take(")", expected=(")",))
            body = self._formula(bound | {variable.text})
            self._take(")", expected=(")",))
            return Exists(variable.text, body)

        # Plain atom.
        name = head.text
        if name not in _VALID_PREDICATES:
            raise UnknownPredicateError(name, head.line, head.column)
        token = self._peek()
        if token is not None and token.kind == "variable":
            self._take("variable")
            if name == AGENT_PREDICATE:
                raise FormulaSyntaxError(
                    f"{AGENT_PREDICATE} takes no argument", token.line, token.column, (")",)
                )
            if token.text not in bound:
                raise UnboundVariableError(token.text, token.line, token.column)
            variable = token.text
        else:
            if name != AGENT_PREDICATE:
                where = token if token is not None else head
                raise FormulaSyntaxError(
                    f"predicate {name!r} requires a variable",
                    where.line,
                    where.column,
                    ("variable",),
                )
            variable = None
        self._take(")", expected=(")",))
        return Atom(name, variable)


def parse_precondition(source: str) -> Formula:
    """Parse precondition text (optionally ```pddl-fenced) into an AST."""
    text = strip_fence(source)
    tokens = _tokenize(text)
    end_line = text.count("\n") + 1
    if not tokens:
        raise FormulaSyntaxError("empty input", 1, 1, ("(",))
    return _Parser(tokens, end_line).parse()


# ---------------------------------------------------------------------------
# Printer


def print_precondition(formula: Formula) -> str:
    """Canonical single-line s-expression; parse(print(f)) == f."""
    if isinstance(formula, Atom):
        if formula.variable is None:
            return f"({formula.name})"
        return f"({formula.name} {formula.variable})"
    if isinstance(formula, Not):
        return f"(not {print_precondition(formula.child)})"
    if isinstance(formula, And):
        inner = " ".join(print_precondition(child) for child in formula.children)
        return f"(and {inner})"
    if isinstance(formula, When):
        return (
            f"(when {print_precondition(formula.antecedent)}"
            f" {print_precondition(formula.consequent)})"
        )
    if isinstance(formula, Exists):
        return f"(exists ({formula.variable}) {print_precondition(formula.body)})"
    raise TypeError(f"not a formula node: {formula!r}")
