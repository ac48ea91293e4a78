"""Formula evaluation against world states and unsatisfied-predicate feedback.

evaluate() decides whether a precondition holds in a state under a variable
binding; unsatisfied() collects the failing fragments and renders each one
as a natural-language message via a template table shipped with the package
(overridable by path, so deployments can reword feedback without code
changes).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import UnboundVariableError, UnknownObjectError
from .formula import And, Atom, Exists, Formula, Not, When, print_precondition
from .world import AGENT_PREDICATE, WorldState, attribute_lookup

Binding = dict[str, str]


@dataclass(frozen=True)
class FeedbackItem:
    """One failing precondition fragment plus its rendered message."""

    fragment: Formula
    message: str


class MessageTable:
    """Per-predicate/polarity message templates for unsatisfied feedback."""

    def __init__(self, data: dict):
        self._atoms = data["atoms"]
        self._exists = data["exists"]
        self._fallback = data["fallback"]
        self.special = dict(data.get("special", {}))

    @classmethod
    def load(cls, path: str | Path | None = None) -> "MessageTable":
        if path is None:
            return _default_table()
        with open(path, encoding="utf-8") as handle:
            return cls(json.load(handle))

    def atom_message(self, name: str, required: bool) -> str:
        entry = self._atoms[name]
        return entry["required_true"] if required else entry["required_false"]

    def exists_message(self, fragment: Formula) -> str:
        return self._exists.format(formula=print_precondition(fragment))

    def fallback_message(self, fragment: Formula) -> str:
        return self._fallback.format(formula=print_precondition(fragment))


@lru_cache(maxsize=1)
def _default_table() -> MessageTable:
    text = resources.files("homeplan.data").joinpath("messages.json").read_text("utf-8")
    return MessageTable(json.loads(text))


def _check_binding(state: WorldState, binding: Binding) -> None:
    for object_id in binding.values():
        if object_id not in state.objects:
            raise UnknownObjectError(object_id)


def _eval(formula: Formula, state: WorldState, binding: Binding) -> bool:
    if isinstance(formula, Atom):
        if formula.name == AGENT_PREDICATE:
            return state.agent.is_holding_object
        if formula.variable not in binding:
            raise UnboundVariableError(formula.variable or "?")
        return attribute_lookup(state, binding[formula.variable], formula.name)
    if isinstance(formula, Not):
        return not _eval(formula.child, state, binding)
    if isinstance(formula, And):
        return all(_eval(child, state, binding) for child in formula.children)
    if isinstance(formula, When):
        # Material implication: vacuously true when the antecedent fails.
        if not _eval(formula.antecedent, state, binding):
            return True
        return _eval(formula.consequent, state, binding)
    if isinstance(formula, Exists):
        # Unsorted: any() gives the same answer in every order.
        return any(
            _eval(formula.body, state, {**binding, formula.variable: candidate})
            for candidate in state.objects
        )
    raise TypeError(f"not a formula node: {formula!r}")


def evaluate(formula: Formula, state: WorldState, binding: Binding) -> bool:
    """True iff the formula holds in the state under the binding."""
    _check_binding(state, binding)
    return _eval(formula, state, binding)


def unsatisfied(
    formula: Formula,
    state: WorldState,
    binding: Binding,
    messages: MessageTable | None = None,
) -> list[FeedbackItem]:
    """Failing fragments in formula order; empty iff evaluate() is true."""
    _check_binding(state, binding)
    table = messages if messages is not None else _default_table()
    return _collect(formula, state, binding, table)


def _collect(
    formula: Formula, state: WorldState, binding: Binding, table: MessageTable
) -> list[FeedbackItem]:
    if isinstance(formula, Atom):
        if _eval(formula, state, binding):
            return []
        return [FeedbackItem(formula, table.atom_message(formula.name, required=True))]
    if isinstance(formula, Not):
        if _eval(formula, state, binding):
            return []
        child = formula.child
        if isinstance(child, Atom):
            return [FeedbackItem(formula, table.atom_message(child.name, required=False))]
        return [FeedbackItem(formula, table.fallback_message(formula))]
    if isinstance(formula, And):
        items: list[FeedbackItem] = []
        for child in formula.children:
            items.extend(_collect(child, state, binding, table))
        return items
    if isinstance(formula, When):
        if not _eval(formula.antecedent, state, binding):
            return []
        return _collect(formula.consequent, state, binding, table)
    if isinstance(formula, Exists):
        if _eval(formula, state, binding):
            return []
        # No single witness to blame; report the whole clause.
        return [FeedbackItem(formula, table.exists_message(formula))]
    raise TypeError(f"not a formula node: {formula!r}")
