"""Evaluator and unsatisfied-set tests, including the brute-force oracle.

The oracle evaluator below is written independently of the production
implementation: no short-circuiting, When expanded by explicit truth table,
Exists by full witness enumeration.
"""

import hashlib
import json
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homeplan.errors import (
    InputFormatError,
    UnboundVariableError,
    UnknownAttributeError,
    UnknownObjectError,
)
from homeplan.formula import (
    And,
    Atom,
    Exists,
    Not,
    When,
    parse_precondition,
    print_precondition,
)
from homeplan.grounding import FeedbackItem, MessageTable, evaluate, unsatisfied
from homeplan.tools import load_precondition_pairs
from homeplan.world import ATTRIBUTE_NAMES, ObjectInfo

from .conftest import make_object, make_world

SEARCH = parse_precondition(load_precondition_pairs()["tools"]["Search Object"]["ground_truth"])
PICK_UP = parse_precondition(load_precondition_pairs()["tools"]["Pick Up Object"]["ground_truth"])
PLACE = parse_precondition(load_precondition_pairs()["tools"]["Place Object"]["ground_truth"])


def closed_cabinet_world(**overrides):
    attrs = dict(receptacle=True, openable=True)
    attrs.update(overrides)
    return make_world({"Cabinet_1": make_object(**attrs)}, visible={"Cabinet_1"})


def test_search_on_closed_cabinet_is_false():
    world = closed_cabinet_world()
    assert evaluate(SEARCH, world, {"?x": "Cabinet_1"}) is False


def test_search_on_open_cabinet_is_true():
    world = closed_cabinet_world(isOpen=True)
    assert evaluate(SEARCH, world, {"?x": "Cabinet_1"}) is True


def test_when_with_false_antecedent_is_vacuously_true():
    world = make_world({"CounterTop_1": make_object(receptacle=True)}, visible={"CounterTop_1"})
    formula = When(And((Atom("openable", "?x"),)), And((Atom("isBroken", "?x"),)))
    assert evaluate(formula, world, {"?x": "CounterTop_1"}) is True


def test_exists_finds_witness():
    world = make_world(
        {
            "Mug_1": make_object(canFillWithLiquid=True),
            "Pot_1": make_object(canFillWithLiquid=True, isFilledWithLiquid=True),
        }
    )
    formula = Exists("?y", And((Atom("isFilledWithLiquid", "?y"),)))
    assert evaluate(formula, world, {}) is True


def test_exists_without_witness():
    world = make_world({"Mug_1": make_object()})
    formula = Exists("?y", And((Atom("isFilledWithLiquid", "?y"),)))
    assert evaluate(formula, world, {}) is False


def test_evaluate_rejects_unknown_bound_object():
    world = make_world({"Mug_1": make_object()})
    with pytest.raises(UnknownObjectError):
        evaluate(Atom("visible", "?x"), world, {"?x": "Ghost_1"})


def test_nullary_reads_agent_state():
    world = make_world(
        {"Mug_1": make_object(zone=None, pickupable=True, isPickedUp=True)}, holding="Mug_1"
    )
    assert evaluate(Atom("isHoldingObject", None), world, {}) is True


def test_unsatisfied_empty_iff_true():
    world = closed_cabinet_world(isOpen=True)
    assert unsatisfied(SEARCH, world, {"?x": "Cabinet_1"}) == []


def test_unsatisfied_place_not_visible_message():
    world = make_world({"CounterTop_1": make_object(receptacle=True)})
    items = unsatisfied(PLACE, world, {"?x": "CounterTop_1"})
    messages = [item.message for item in items]
    assert "the target object is not visible" in messages
    assert "the agent is not holding an object" in messages  # empty hand too


def test_unsatisfied_pick_up_while_holding():
    world = make_world(
        {
            "Mug_1": make_object(zone=None, pickupable=True, isPickedUp=True),
            "Knife_1": make_object(pickupable=True),
        },
        holding="Mug_1",
        visible={"Knife_1"},
    )
    items = unsatisfied(PICK_UP, world, {"?x": "Knife_1"})
    assert [item.message for item in items] == ["the agent is already holding an object"]


def test_unsatisfied_when_true_antecedent_descends():
    world = closed_cabinet_world()
    items = unsatisfied(SEARCH, world, {"?x": "Cabinet_1"})
    assert [item.message for item in items] == ["the target object is not open"]


def test_unsatisfied_exists_reported_as_single_item():
    world = make_world({"Mug_1": make_object(pickupable=True)}, visible={"Mug_1"})
    formula = parse_precondition(
        "(exists (?y) (and (isWaterSource ?y) (isToggled ?y) (visible ?y)))"
    )
    items = unsatisfied(formula, world, {})
    assert len(items) == 1
    assert items[0].message.startswith("no object in the environment satisfies (exists (?y)")


def test_unsatisfied_preserves_formula_order():
    world = make_world({"Box_1": make_object()})
    formula = And((Atom("receptacle", "?x"), Atom("visible", "?x")))
    items = unsatisfied(formula, world, {"?x": "Box_1"})
    assert [item.message for item in items] == [
        "the target object is not a receptacle",
        "the target object is not visible",
    ]


def test_message_table_override(tmp_path):
    table_file = tmp_path / "messages.json"
    table_file.write_text(
        """
        {"atoms": {"visible": {"required_true": "cannot see it",
                                "required_false": "should not see it"}},
         "exists": "nothing matches {formula}",
         "fallback": "failed: {formula}",
         "special": {"not_discovered": "never seen it", "inside_held": "it is held"}}
        """
    )
    table = MessageTable.load(table_file)
    world = make_world({"Box_1": make_object()})
    items = unsatisfied(Atom("visible", "?x"), world, {"?x": "Box_1"}, messages=table)
    assert items[0].message == "cannot see it"


# ---------------------------------------------------------------------------
# Independent oracle


def oracle_evaluate(formula, state, binding):
    if isinstance(formula, Atom):
        if formula.name == "isHoldingObject":
            return state.agent.is_holding_object
        if formula.name == "visible":
            return binding[formula.variable] in state.visible
        return getattr(state.objects[binding[formula.variable]], formula.name)
    if isinstance(formula, Not):
        return not oracle_evaluate(formula.child, state, binding)
    if isinstance(formula, And):
        results = [oracle_evaluate(child, state, binding) for child in formula.children]
        return all(results)
    if isinstance(formula, When):
        a = oracle_evaluate(formula.antecedent, state, binding)
        b = oracle_evaluate(formula.consequent, state, binding)
        truth_table = {(True, True): True, (True, False): False,
                       (False, True): True, (False, False): True}
        return truth_table[(a, b)]
    if isinstance(formula, Exists):
        witnesses = []
        for candidate in state.objects:
            extended = dict(binding)
            extended[formula.variable] = candidate
            witnesses.append(oracle_evaluate(formula.body, state, extended))
        return any(witnesses)
    raise TypeError(formula)


def _rand(seed, *labels):
    key = "|".join(str(label) for label in labels)
    return int.from_bytes(hashlib.sha256(f"{seed}:{key}".encode()).digest()[:8], "big")


def random_formula(seed, case, depth, variables=("?x",)):
    pick = _rand(seed, case, depth, len(variables), "node") % (5 if depth > 0 else 1)
    if pick == 0:
        choice = _rand(seed, case, depth, "atom") % (len(ATTRIBUTE_NAMES) + 1)
        if choice == len(ATTRIBUTE_NAMES):
            return Atom("isHoldingObject", None)
        var = variables[_rand(seed, case, depth, "var") % len(variables)]
        return Atom(ATTRIBUTE_NAMES[choice], var)
    if pick == 1:
        return Not(random_formula(seed, case, depth - 1, variables))
    if pick == 2:
        n = 1 + _rand(seed, case, depth, "width") % 3
        return And(
            tuple(
                random_formula(seed, (case, i), depth - 1, variables) for i in range(n)
            )
        )
    if pick == 3:
        return When(
            random_formula(seed, (case, "a"), depth - 1, variables),
            random_formula(seed, (case, "b"), depth - 1, variables),
        )
    fresh = f"?v{len(variables)}"
    return Exists(fresh, random_formula(seed, (case, "e"), depth - 1, variables + (fresh,)))


def random_world(seed, case):
    n = 1 + _rand(seed, case, "objects") % 6
    objects = {}
    visible = set()  # each object's visible bit, kept by the world
    for i in range(n):
        bits = _rand(seed, case, "attrs", i)
        values = {name: bool((bits >> k) & 1) for k, name in enumerate(ATTRIBUTE_NAMES)}
        if values.pop("visible"):
            visible.add(f"Item_{i + 1}")
        objects[f"Item_{i + 1}"] = ObjectInfo(zone="kitchen", **values)
    holding = _rand(seed, case, "holding") % 2 == 0
    world = make_world(objects, visible=visible)
    if holding:
        world = world.__class__(
            objects=objects,
            containment={},
            agent=world.agent.__class__(
                current_zone="kitchen",
                rng_seed=seed,
                held_object="Item_1",  # synthetic: only isHoldingObject matters here
            ),
            visible=world.visible,
        )
    return world


def run_oracle_comparison(cases=1000, seed=20240801):
    mismatches = 0
    for case in range(cases):
        world = random_world(seed, case)
        formula = random_formula(seed, case, depth=4)
        binding = {"?x": "Item_1"}
        fast = evaluate(formula, world, binding)
        slow = oracle_evaluate(formula, world, binding)
        if fast is not slow:
            mismatches += 1
        items = unsatisfied(formula, world, binding)
        if (len(items) == 0) is not fast:
            mismatches += 1
    return mismatches


def test_oracle_equivalence_thousand_cases():
    assert run_oracle_comparison(1000) == 0


# ---------------------------------------------------------------------------
# The compiled checks and collectors against the tree walk they replaced


def _reference_check_binding(state, binding):
    for object_id in binding.values():
        if object_id not in state.objects:
            raise UnknownObjectError(object_id)


def reference_evaluate(formula, state, binding):
    """grounding.evaluate as it was before formulas were compiled."""
    _reference_check_binding(state, binding)
    return _reference_eval(formula, state, binding)


def _reference_eval(formula, state, binding):
    if isinstance(formula, Atom):
        if formula.name == "isHoldingObject":
            return state.agent.is_holding_object
        if formula.variable not in binding:
            raise UnboundVariableError(formula.variable or "?")
        object_id = binding[formula.variable]
        info = state.info(object_id)
        if formula.name not in ATTRIBUTE_NAMES:
            raise UnknownAttributeError(formula.name)
        if formula.name == "visible":
            return object_id in state.visible
        return getattr(info, formula.name)
    if isinstance(formula, Not):
        return not _reference_eval(formula.child, state, binding)
    if isinstance(formula, And):
        return all(_reference_eval(child, state, binding) for child in formula.children)
    if isinstance(formula, When):
        if not _reference_eval(formula.antecedent, state, binding):
            return True
        return _reference_eval(formula.consequent, state, binding)
    if isinstance(formula, Exists):
        return any(
            _reference_eval(formula.body, state, {**binding, formula.variable: candidate})
            for candidate in state.objects
        )
    raise TypeError(f"not a formula node: {formula!r}")


def reference_unsatisfied(formula, state, binding, data):
    """grounding.unsatisfied as it was before formulas were compiled and
    message clauses were split: the texts are read from the table's data,
    and a clause is filled by str.format."""
    _reference_check_binding(state, binding)
    return _reference_collect(formula, state, binding, data)


def _reference_collect(formula, state, binding, data):
    if isinstance(formula, Atom):
        if _reference_eval(formula, state, binding):
            return []
        return [FeedbackItem(formula, data["atoms"][formula.name]["required_true"])]
    if isinstance(formula, Not):
        if _reference_eval(formula, state, binding):
            return []
        if isinstance(formula.child, Atom):
            return [FeedbackItem(formula, data["atoms"][formula.child.name]["required_false"])]
        return [FeedbackItem(formula, data["fallback"].format(formula=print_precondition(formula)))]
    if isinstance(formula, And):
        items = []
        for child in formula.children:
            items.extend(_reference_collect(child, state, binding, data))
        return items
    if isinstance(formula, When):
        if not _reference_eval(formula.antecedent, state, binding):
            return []
        return _reference_collect(formula.consequent, state, binding, data)
    if isinstance(formula, Exists):
        if _reference_eval(formula, state, binding):
            return []
        return [FeedbackItem(formula, data["exists"].format(formula=print_precondition(formula)))]
    raise TypeError(f"not a formula node: {formula!r}")


def outcome(call, *args):
    """What a call gives: its value and the value's type, or the type and
    args of what it raised."""
    try:
        value = call(*args)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raised", type(exc), exc.args)
    return ("value", type(value), value)


def shipped_messages() -> dict:
    """The data of the shipped message table, as its file holds it."""
    return json.loads(resources.files("homeplan.data").joinpath("messages.json").read_text())


# The data of a table whose every text differs from the shipped one.
CUSTOM_MESSAGES = {
    "atoms": {name: {"required_true": f"needs {name}", "required_false": f"no {name}"}
              for name in ATTRIBUTE_NAMES + ("isHoldingObject",)},
    "exists": "nothing is {formula}",
    "fallback": "fails {formula}",
    "special": {"not_discovered": "not found yet", "inside_held": "inside what it holds"},
}


def custom_table():
    return MessageTable(CUSTOM_MESSAGES)


# Each table the reference is compared on, with the data it was read from.
REFERENCE_TABLES = {"shipped": (MessageTable.load(), shipped_messages()),
                    "custom": (custom_table(), CUSTOM_MESSAGES)}


def assert_compiled_like_the_reference(formula, state, binding, table, data):
    """evaluate and unsatisfied on the table give what the references give on
    the data the table was read from."""
    given = dict(binding)
    assert outcome(evaluate, formula, state, binding) == outcome(
        reference_evaluate, formula, state, binding
    )
    expected = outcome(reference_unsatisfied, formula, state, binding, data)
    assert outcome(unsatisfied, formula, state, binding, table) == expected
    # Built once, the collector gives the same list again.
    assert outcome(unsatisfied, formula, state, binding, table) == expected
    assert binding == given


def decorated_case(seed, case):
    """A random formula, world and binding; some cases are set up to raise
    UnboundVariableError, UnknownObjectError, UnknownAttributeError or
    TypeError somewhere in the formula, or nowhere if evaluation stops first."""
    world = random_world(seed, case)
    kind = case % 6
    variables = ("?x", "?free") if kind == 1 else ("?x",)
    formula = random_formula(seed, case, depth=4, variables=variables)
    binding = {"?x": "Ghost_1" if kind == 2 else "Item_1"}
    if kind == 3:
        formula = And((formula, "not a formula"))
    elif kind == 4:
        formula = When(formula, Atom("isShiny", "?x"))
    elif kind == 5:
        formula = And((Not(formula), Atom("visible", None)))
    return formula, world, binding


@pytest.mark.five_times
@pytest.mark.parametrize("name", list(REFERENCE_TABLES))
def test_compiled_grounding_matches_the_tree_walk_reference(name):
    table, data = REFERENCE_TABLES[name]
    seed = 20240917
    raised = set()
    for case in range(1000):
        formula, world, binding = decorated_case(seed, case)
        assert_compiled_like_the_reference(formula, world, binding, table, data)
        result = outcome(reference_unsatisfied, formula, world, binding, data)
        if result[0] == "raised":
            raised.add(result[1])
    assert raised == {UnboundVariableError, UnknownObjectError, UnknownAttributeError, TypeError}


def test_exists_prefilter_reads_only_the_first_conjunct():
    """A later conjunct on the bound variable must not filter the scan: the
    first conjunct raises for every object it is checked on."""
    world = make_world({"Mug_1": make_object(), "Box_1": make_object(receptacle=True)})
    formula = Exists("?y", And((Atom("visible", "?free"), Atom("openable", "?y"))))
    with pytest.raises(UnboundVariableError):
        evaluate(formula, world, {})
    with pytest.raises(UnboundVariableError):
        unsatisfied(formula, world, {})


@pytest.mark.parametrize(
    "source",
    [
        "(exists (?y) (and (isPickedUp ?y) (canFillWithLiquid ?y) (not (isFilledWithLiquid ?y))))",
        "(exists (?y) (isWaterSource ?y))",
        "(exists (?y) (and (isWaterSource ?x) (isToggled ?y)))",
        "(exists (?y) (and (not (isBroken ?y)) (visible ?y)))",
        "(exists (?y) (and (isHoldingObject) (isToggled ?y)))",
        "(exists (?y) (and (isOpen ?y) (exists (?y) (and (isToggled ?y) (isOpen ?x)))))",
    ],
)
def test_exists_prefilter_keeps_the_verdict(source):
    formula = parse_precondition(source)
    for case in range(200):
        world = random_world(77, case)
        assert_compiled_like_the_reference(formula, world, {"?x": "Item_1"},
                                           *REFERENCE_TABLES["shipped"])


def test_exists_prefilter_skips_the_agent_predicate():
    """The agent predicate reads the agent, not the bound object, even when
    an atom built by hand gives it a variable."""
    formula = Exists("?y", And((Atom("isHoldingObject", "?y"), Atom("isToggled", "?y"))))
    for case in range(50):
        world = random_world(78, case)
        assert_compiled_like_the_reference(formula, world, {}, *REFERENCE_TABLES["shipped"])


def test_missing_message_raises_only_when_its_atom_fails():
    data = json.loads(resources.files("homeplan.data").joinpath("messages.json").read_text())
    del data["atoms"]["visible"]
    table = MessageTable(data)
    formula = And((Atom("receptacle", "?x"), Atom("visible", "?x")))
    seen = make_world({"Box_1": make_object()}, visible={"Box_1"})
    hidden = make_world({"Box_1": make_object()})
    assert [item.message for item in unsatisfied(formula, seen, {"?x": "Box_1"}, table)] == [
        "the target object is not a receptacle"
    ]
    for _ in range(2):
        with pytest.raises(InputFormatError, match="^messages: visible has no required_true text$"):
            unsatisfied(formula, hidden, {"?x": "Box_1"}, table)
    assert unsatisfied(formula, seen, {"?x": "Box_1"}, table)[0].message == (
        "the target object is not a receptacle"
    )


_TEMPLATE_PIECES = ["{", "}", "{{", "}}", "{formula}", "formula", "{0}", "{}", "{form}", "x "]


# The fragments each clause explains: an Exists, and a negated conjunction,
# which has no atom text of its own.
_CLAUSE_FRAGMENTS = {"exists": Exists("?y", And((Atom("isToggled", "?y"), Atom("visible", "?x")))),
                     "fallback": Not(And((Atom("visible", "?x"), Atom("isOpen", "?x"))))}


@pytest.mark.five_times
@given(st.lists(st.sampled_from(_TEMPLATE_PIECES), max_size=6).map("".join),
       st.sampled_from(["exists", "fallback"]))
def test_a_message_template_loads_exactly_when_the_format_reference_fills_it(template, key):
    """A clause loads exactly when str.format fills its one slot, and its
    message is the text str.format gives; any other clause is refused with
    the key named."""
    data = shipped_messages()
    data[key] = template
    fragment = _CLAUSE_FRAGMENTS[key]
    try:
        expected = template.format(formula=print_precondition(fragment))
    except (KeyError, IndexError, ValueError):
        with pytest.raises(InputFormatError, match=f"^messages: {key}: (a stray|an unknown slot) "):
            MessageTable(data)
    else:
        assert MessageTable(data).message(fragment) == expected


@pytest.mark.parametrize("key", ["not_discovered", "inside_held"])
def test_a_message_table_without_a_special_text_is_refused_when_it_loads(key):
    data = shipped_messages()
    del data["special"][key]
    with pytest.raises(InputFormatError, match=rf"^messages: special: missing keys \['{key}'\]$"):
        MessageTable(data)


def test_equal_formulas_compile_apart_and_tables_keep_their_own_text():
    world = make_world({"Box_1": make_object()})
    first, second = Atom("visible", "?x"), Atom("visible", "?x")
    assert first == second and first is not second
    for formula in (first, second, first):
        assert evaluate(formula, world, {"?x": "Box_1"}) is False
        shipped = unsatisfied(formula, world, {"?x": "Box_1"})
        custom = unsatisfied(formula, world, {"?x": "Box_1"}, custom_table())
        assert [item.message for item in shipped] == ["the target object is not visible"]
        assert [item.message for item in custom] == ["needs visible"]
