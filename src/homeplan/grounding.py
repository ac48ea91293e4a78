"""Formula evaluation against world states and unsatisfied-predicate feedback.

evaluate() decides whether a precondition holds in a state under a variable
binding; unsatisfied() collects the failing fragments and renders each one
as a natural-language message via a template table shipped with the package
(overridable by path, so deployments can reword feedback without code
changes). Both compile a formula into nested closures on first use: checks
once per formula, feedback collectors once per formula and message table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    DATA,
    InputFormatError,
    UnboundVariableError,
    UnknownObjectError,
    check_fields,
    read_input,
)
from .formula import And, Atom, Exists, Formula, Not, When, print_precondition
from .llm import render_prompt, split_template
from .world import AGENT_PREDICATE, ATTRIBUTE_NAMES, WorldState, attribute_reader

Binding = dict[str, str]


@dataclass(frozen=True)
class FeedbackItem:
    """One failing precondition fragment plus its rendered message."""

    fragment: Formula
    message: str


_MESSAGE_FIELDS = {"atoms": (dict, dict), "exists": str, "fallback": str, "special": dict}
# Texts for calls refused before any precondition is evaluated.
_SPECIAL_FIELDS = {"not_discovered": str, "inside_held": str}
# A predicate or polarity without a message fails only when it is needed.
_ATOM_MESSAGE_OPTIONAL = {"required_true": str, "required_false": str}


class MessageTable:
    """Per-predicate/polarity message texts for unsatisfied feedback, and the
    ``exists`` and ``fallback`` clauses, prompt templates split when the
    table is read, whose one slot is ``{formula}``."""

    def __init__(self, data: dict):
        check_fields(data, "messages", _MESSAGE_FIELDS)
        check_fields(data["special"], "messages: special", _SPECIAL_FIELDS)
        for name, entry in data["atoms"].items():
            check_fields(entry, f"messages: {name}", optional=_ATOM_MESSAGE_OPTIONAL)
        self._atoms = data["atoms"]
        self._exists = split_template(data["exists"], ("formula",), "messages: exists")
        self._fallback = split_template(data["fallback"], ("formula",), "messages: fallback")
        self.special = dict(data["special"])
        self._collectors: dict[int, tuple] = {}  # see _compiled

    @classmethod
    def load(cls, path=None) -> "MessageTable":
        """The table in a file, or the shipped one, read once per process."""
        return _default_table() if path is None else cls(read_input(path))

    def message(self, fragment: Formula) -> str:
        """Feedback text for one failing fragment of a precondition."""
        negated = isinstance(fragment, Not)
        atom = fragment.child if negated else fragment
        if isinstance(atom, Atom):
            polarity = "required_false" if negated else "required_true"
            try:
                return self._atoms[atom.name][polarity]
            except KeyError:
                raise InputFormatError(f"messages: {atom.name} has no {polarity} text") from None
        # No single witness to blame for an Exists; report the whole clause.
        template = self._exists if isinstance(fragment, Exists) else self._fallback
        return render_prompt(template, {"formula": print_precondition(fragment)})


@lru_cache(maxsize=1)
def _default_table() -> MessageTable:
    return MessageTable.load(DATA.joinpath("messages.json"))


def _check_binding(state: WorldState, binding: Binding) -> None:
    for object_id in binding.values():
        if object_id not in state.objects:
            raise UnknownObjectError(object_id)


_CHECKS: dict[int, tuple] = {}  # compiled checks, see _compiled
_CACHE_LIMIT = 4096  # entries per cache; a full cache is emptied


def _compiled(cache: dict, formula: Formula, build):
    """build(formula), once per formula object: keyed by id, as a formula's hash
    walks its whole tree; the entry keeps the formula alive, and so its id.
    Threads that race here at worst build the same closures twice."""
    entry = cache.get(id(formula))
    if entry is None:
        if len(cache) >= _CACHE_LIMIT:
            cache.clear()
        entry = cache[id(formula)] = (formula, build(formula))
    return entry[1]


def _compile_check(formula: Formula):
    if isinstance(formula, Atom):
        if formula.name == AGENT_PREDICATE:
            return lambda state, binding: state.agent.is_holding_object
        variable, read = formula.variable, attribute_reader(formula.name)

        def atom(state, binding):
            if variable not in binding:
                raise UnboundVariableError(variable or "?")
            return read(state, binding[variable])

        return atom
    if isinstance(formula, Not):
        child = _compile_check(formula.child)
        return lambda state, binding: not child(state, binding)
    if isinstance(formula, And):
        children = tuple(_compile_check(child) for child in formula.children)

        def conjunction(state, binding):
            for child in children:
                if not child(state, binding):
                    return False
            return True

        return conjunction
    if isinstance(formula, When):
        # Material implication: vacuously true when the antecedent fails.
        antecedent = _compile_check(formula.antecedent)
        consequent = _compile_check(formula.consequent)
        return lambda state, binding: not antecedent(state, binding) or consequent(state, binding)
    if isinstance(formula, Exists):
        variable, body = formula.variable, _compile_check(formula.body)
        # Objects that fail the body's leading positive atom on the bound
        # variable, read off the object or the visible set, are skipped.
        lead = formula.body
        if isinstance(lead, And) and lead.children:
            lead = lead.children[0]
        keep = None
        if isinstance(lead, Atom) and lead.variable == variable and lead.name in ATTRIBUTE_NAMES:
            keep = lead.name

        def exists(state, binding):
            scan = dict(binding)  # one binding for the whole scan, in any order
            for candidate, info in state.objects.items():
                if (keep is None or (candidate in state.visible if keep == "visible"
                                     else getattr(info, keep))):
                    scan[variable] = candidate
                    if body(state, scan):
                        return True
            return False

        return exists

    def not_a_formula(state, binding):
        raise TypeError(f"not a formula node: {formula!r}")

    return not_a_formula


def evaluate(formula: Formula, state: WorldState, binding: Binding) -> bool:
    """True iff the formula holds in the state under the binding."""
    _check_binding(state, binding)
    return _compiled(_CHECKS, formula, _compile_check)(state, binding)


def unsatisfied(
    formula: Formula,
    state: WorldState,
    binding: Binding,
    messages: MessageTable | None = None,
) -> list[FeedbackItem]:
    """Failing fragments in formula order; empty iff evaluate() is true."""
    _check_binding(state, binding)
    table = messages if messages is not None else _default_table()
    collect = _compiled(table._collectors, formula, lambda f: _compile_collect(f, table))
    items: list[FeedbackItem] = []
    collect(state, binding, items)
    return items


def _compile_collect(formula: Formula, table: MessageTable):
    """A collector: appends the formula's failing fragments to a list."""
    if isinstance(formula, And):
        parts = tuple(_compile_collect(child, table) for child in formula.children)

        def conjunction(state, binding, items):
            for part in parts:
                part(state, binding, items)

        return conjunction
    if isinstance(formula, When):
        antecedent = _compile_check(formula.antecedent)
        consequent = _compile_collect(formula.consequent, table)

        def implication(state, binding, items):
            if antecedent(state, binding):
                consequent(state, binding, items)

        return implication
    check, item = _compile_check(formula), None  # item: built when the fragment first fails

    def fragment(state, binding, items):
        nonlocal item
        if not check(state, binding):
            if item is None:
                item = FeedbackItem(formula, table.message(formula))
            items.append(item)

    return fragment
