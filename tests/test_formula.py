import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan.errors import (
    FormulaSyntaxError,
    UnboundVariableError,
    UnknownPredicateError,
)
from homeplan.formula import (
    And,
    Atom,
    Exists,
    Not,
    When,
    _Token,
    _tokenize,
    parse_precondition,
    print_precondition,
)
from homeplan.tools import load_precondition_pairs

from .conftest import examples

SEARCH_BLOCK = """
(and
    (receptacle ?x)
    (visible ?x)
    (when
        (and
            (openable ?x)
        )
        (and
            (isOpen ?x)
        )
    )
    (not (isHoldingObject))
)
"""


def test_parse_search_block_structure():
    ast = parse_precondition(SEARCH_BLOCK)
    assert ast == And(
        (
            Atom("receptacle", "?x"),
            Atom("visible", "?x"),
            When(And((Atom("openable", "?x"),)), And((Atom("isOpen", "?x"),))),
            Not(Atom("isHoldingObject", None)),
        )
    )


def test_parse_rejects_a_pddl_fence():
    # Precondition text is a plain s-expression; a markdown fence is not unwrapped.
    fenced = "```pddl\n" + SEARCH_BLOCK + "\n```"
    with pytest.raises(FormulaSyntaxError) as excinfo:
        parse_precondition(fenced)
    assert str(excinfo.value) == "unexpected character '`' at line 1, column 1"


def test_parse_accepts_comments():
    source = "(and ; conjunction\n (visible ?x) ; the target\n)"
    assert parse_precondition(source) == And((Atom("visible", "?x"),))


def test_parse_unbound_variable():
    with pytest.raises(UnboundVariableError) as excinfo:
        parse_precondition("(and (visible ?z))")
    assert excinfo.value.variable == "?z"


def test_parse_exists_binds_variable():
    ast = parse_precondition("(exists (?y) (and (isPickedUp ?y) (visible ?x)))")
    assert isinstance(ast, Exists)
    assert ast.variable == "?y"


def test_parse_nested_exists():
    ast = parse_precondition(
        "(exists (?y) (exists (?z) (and (isPickedUp ?y) (receptacle ?z))))"
    )
    assert isinstance(ast.body, Exists)


def test_parse_unknown_predicate():
    with pytest.raises(UnknownPredicateError) as excinfo:
        parse_precondition("(and (sparkly ?x))")
    assert excinfo.value.name == "sparkly"


def test_parse_derived_predicates_rejected():
    # The vocabulary is closed; inheritance-style new names are flagged.
    with pytest.raises(UnknownPredicateError):
        parse_precondition("(and (isContainer ?x))")


def test_parse_nullary_rejects_argument():
    with pytest.raises(FormulaSyntaxError):
        parse_precondition("(isHoldingObject ?x)")


def test_parse_unary_requires_argument():
    with pytest.raises(FormulaSyntaxError):
        parse_precondition("(visible)")


def test_parse_error_carries_position():
    with pytest.raises(FormulaSyntaxError) as excinfo:
        parse_precondition("(and (visible ?x)")
    assert excinfo.value.line >= 1
    assert excinfo.value.column >= 1


def test_parse_error_expected_tokens():
    with pytest.raises(FormulaSyntaxError) as excinfo:
        parse_precondition("visible")
    assert "(" in excinfo.value.expected


def test_parse_when_requires_two_children():
    with pytest.raises(FormulaSyntaxError):
        parse_precondition("(when (openable ?x))")


def test_parse_and_requires_children():
    with pytest.raises(FormulaSyntaxError):
        parse_precondition("(and)")


def test_parse_exists_single_variable_only():
    with pytest.raises(FormulaSyntaxError):
        parse_precondition("(exists (?y ?z) (visible ?y))")


def test_parse_rejects_trailing_tokens():
    with pytest.raises(FormulaSyntaxError):
        parse_precondition("(visible ?x) (receptacle ?x)")


def test_print_leaf_cases():
    assert print_precondition(Atom("visible", "?x")) == "(visible ?x)"
    assert print_precondition(Not(Atom("isHoldingObject", None))) == "(not (isHoldingObject))"


def test_all_fixture_listings_parse_and_round_trip():
    pairs = load_precondition_pairs()["tools"]
    assert len(pairs) == 9
    for name, entry in pairs.items():
        for side in ("generated", "ground_truth"):
            ast = parse_precondition(entry[side])
            printed = print_precondition(ast)
            assert parse_precondition(printed) == ast, f"{name}/{side}"
            # print∘parse is idempotent on text
            assert print_precondition(parse_precondition(printed)) == printed


def test_fill_listing_has_two_exists_clauses():
    pairs = load_precondition_pairs()["tools"]
    ast = parse_precondition(pairs["Fill Held Object With Water"]["ground_truth"])
    exists_clauses = [child for child in ast.children if isinstance(child, Exists)]
    assert len(exists_clauses) == 2
    assert all(clause.variable == "?y" for clause in exists_clauses)


# Random formula ASTs for the round-trip property.

_leaf = st.sampled_from(
    [Atom("visible", "?x"), Atom("openable", "?x"), Atom("isHoldingObject", None)]
)


def _formulas(variables=("?x",)):
    atoms = st.one_of(
        st.sampled_from(
            [Atom(name, var) for var in variables for name in ("visible", "isOpen", "receptacle")]
        ),
        st.just(Atom("isHoldingObject", None)),
    )

    def extend(children):
        fresh = f"?v{len(variables)}"
        return st.one_of(
            st.builds(Not, children),
            st.lists(children, min_size=1, max_size=3).map(lambda cs: And(tuple(cs))),
            st.builds(When, children, children),
            st.builds(
                lambda body: Exists(fresh, body),
                _formulas(variables + (fresh,)) if len(variables) < 3 else children,
            ),
        )

    return st.recursive(atoms, extend, max_leaves=8)


@given(_formulas())
def test_parse_print_identity_property(formula):
    assert parse_precondition(print_precondition(formula)) == formula


# The lexer against a reference: the character loop it replaced, kept here
# as written. Both must give the same tokens, or the same error at the same
# position.


def _reference_tokenize(source):
    tokens = []
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


def _lexed(lex, source):
    try:
        return lex(source)
    except FormulaSyntaxError as exc:
        return (type(exc), str(exc), exc.line, exc.column)


_FIXTURE_SOURCES = [entry[side] for entry in load_precondition_pairs()["tools"].values()
                    for side in ("generated", "ground_truth")]
# The formula alphabet, whitespace that is not a line break, and characters
# that no token may hold.
_ALPHABET = "()?;xaY_-9 \t\n\r\x0b\x85\xa0#`é"


@st.composite
def _lexer_inputs(draw):
    """Random text, or a shipped formula with up to three spans replaced."""
    if draw(st.booleans()):
        return draw(st.text(_ALPHABET, max_size=60))
    source = draw(st.sampled_from(_FIXTURE_SOURCES + [SEARCH_BLOCK]))
    for _ in range(draw(st.integers(1, 3))):
        start = draw(st.integers(0, len(source)))
        end = draw(st.integers(start, min(len(source), start + 8)))
        source = source[:start] + draw(st.text(_ALPHABET, max_size=12)) + source[end:]
    return source


@pytest.mark.five_times
@settings(derandomize=True, max_examples=examples(600), deadline=None)
@given(_lexer_inputs())
def test_lexer_matches_the_reference_character_loop(source):
    assert _lexed(_tokenize, source) == _lexed(_reference_tokenize, source)
