import functools
import hashlib
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan.errors import MalformedArgsError, SuiteFormatError, UnknownToolError
from homeplan.formula import Exists, parse_precondition, print_precondition
from homeplan.grounding import evaluate, unsatisfied
from homeplan.sim import (
    GENERIC_FAILURE,
    GoalAtom,
    Observation,
    TaskSpec,
    check_goal,
    execute,
    format_feedback,
    refresh_visibility,
    replay_trace,
    task_from_dict,
    zone_order,
)
from homeplan.suite import generate_easy_suite, resolve_world, stepwise_from_episodes
from homeplan.tools import builtin_tool_library
from homeplan.world import ATTRIBUTE_NAMES, category_of, validate_world

from .conftest import make_object, make_world

SEARCH_PART4 = """
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


def two_zone_world(**extra_objects):
    objects = {
        "CounterTop_1": make_object(zone="counter", receptacle=True),
        "Cabinet_1": make_object(zone="counter", receptacle=True, openable=True),
        "Knife_1": make_object(zone="dining", pickupable=True, moveable=True),
        "DiningTable_1": make_object(zone="dining", receptacle=True),
        "Faucet_1": make_object(zone="counter", toggleable=True, isWaterSource=True),
    }
    objects.update(extra_objects)
    world = make_world(
        objects,
        containment={"Knife_1": "DiningTable_1"},
        agent_zone="dining",
        seed=3,
        discovered=set(objects),
    )
    return refresh_visibility(world)


def test_library_has_thirteen_tools():
    assert len(builtin_tool_library()) == 13


def test_search_precondition_matches_reference_block():
    lib = builtin_tool_library()
    assert lib.get("Search Object").precondition == parse_precondition(SEARCH_PART4)


def test_pour_precondition_has_held_filled_exists():
    lib = builtin_tool_library()
    formula = lib.get("Pour Water Into").precondition
    clauses = [c for c in formula.children if isinstance(c, Exists)]
    assert len(clauses) == 1
    assert print_precondition(clauses[0]) == (
        "(exists (?y) (and (isPickedUp ?y) (isFilledWithLiquid ?y)))"
    )


def test_unknown_tool_raises():
    world = two_zone_world()
    with pytest.raises(UnknownToolError):
        execute(world, "Levitate Object", {}, True)


@pytest.mark.parametrize(
    "args", [None, {}, {"object": "Knife_1"}, {"object_id": 7}, {"object_id": "Knife"}]
)
def test_malformed_args(args):
    world = two_zone_world()
    with pytest.raises(MalformedArgsError):
        execute(world, "Pick Up Object", args, True)


def test_pick_up_success():
    world = two_zone_world()
    new, obs = execute(world, "Pick Up Object", {"object_id": "Knife_1"}, True)
    assert obs.message == "Tool Completed Successfully: Target object was picked up!"
    assert new.agent.held_object == "Knife_1"
    assert new.objects["Knife_1"].attributes.isPickedUp is True
    assert "Knife_1" not in new.containment
    assert validate_world(new) == []


def test_place_fails_when_not_visible():
    world = two_zone_world()
    world, _ = execute(world, "Pick Up Object", {"object_id": "Knife_1"}, True)
    new, obs = execute(world, "Place Object", {"object_id": "CounterTop_1"}, True)
    assert obs.message == "Tool Failed: the target object is not visible, "
    assert new.objects == world.objects
    assert new.containment == world.containment


def test_grounding_off_uses_generic_error():
    world = two_zone_world()
    world, _ = execute(world, "Pick Up Object", {"object_id": "Knife_1"}, True)
    _, obs = execute(world, "Place Object", {"object_id": "CounterTop_1"}, False)
    assert obs.message == GENERIC_FAILURE


def test_observation_success_prefix_invariant():
    world = two_zone_world()
    for action, args in [
        ("Pick Up Object", {"object_id": "Knife_1"}),
        ("Pick Up Object", {"object_id": "CounterTop_1"}),
    ]:
        _, obs = execute(world, action, args, True)
        assert obs.success == obs.message.startswith("Tool Completed Successfully")


def test_format_feedback_single_message():
    assert format_feedback(["the target object is not visible"]) == (
        "Tool Failed: the target object is not visible, "
    )


def test_format_feedback_joins_in_formula_order():
    messages = ["the target object is not visible", "the target object is not open"]
    assert format_feedback(messages) == (
        "Tool Failed: the target object is not visible, the target object is not open, "
    )


# Every tool once, in an order where each call succeeds on one_room_world():
# (tool, args, success text after the prefix, skill).
TOOL_REPORTS = [
    ("Randomly Explore", {"input": None}, "New objects discovered!", "locate"),
    (
        "Get Discovered Objects",
        {"input": None},
        "Here is a list of the object ID's of all of the discovered objects: "
        "['Cabinet_1', 'CounterTop_1', 'Faucet_1', 'Mug_1', 'SinkBasin_1', 'Vase_1']",
        "perceive",
    ),
    (
        "Adjust Positioning",
        {"object_id": "Cabinet_1"},
        "Readjusted position relative to target object!",
        "move",
    ),
    ("Open Object", {"object_id": "Cabinet_1"}, "Target object was opened!", "manipulate"),
    (
        "Search Object",
        {"object_id": "Cabinet_1"},
        "Here is a list of objects found inside or on the target receptacle: ['Fork_1']",
        "perceive",
    ),
    ("Close Object", {"object_id": "Cabinet_1"}, "Target object was closed!", "manipulate"),
    ("Toggle Object On", {"object_id": "Faucet_1"}, "Target object was toggled on!", "manipulate"),
    ("Pick Up Object", {"object_id": "Mug_1"}, "Target object was picked up!", "manipulate"),
    (
        "Fill Held Object With Water",
        {"input": None},
        "Held object was successfully filled with water!",
        "manipulate",
    ),
    (
        "Pour Water Into",
        {"object_id": "Vase_1"},
        "Water was successfully poured into the target object!",
        "manipulate",
    ),
    (
        "Place Object",
        {"object_id": "SinkBasin_1"},
        "Held object was successfully placed in target object!",
        "place",
    ),
    (
        "Toggle Object Off",
        {"object_id": "Faucet_1"},
        "Target object was toggled off!",
        "manipulate",
    ),
    (
        "Inspect Object",
        {"object_id": "Faucet_1"},
        "The queried object is currently inside or on top of the following objects: "
        "['CounterTop|1'].\n"
        "The quried objects currently controls the following objects: ['SinkBasin_1'].",
        "perceive",
    ),
]


def one_room_world():
    """Everything in one zone; the vase is still undiscovered, the fork is
    inside the closed cabinet."""
    objects = {
        "CounterTop_1": replace(
            make_object(zone="counter", receptacle=True), display_id="CounterTop|1"
        ),
        "Cabinet_1": make_object(zone="counter", receptacle=True, openable=True),
        "Fork_1": make_object(zone="counter", pickupable=True),
        "Faucet_1": replace(
            make_object(zone="counter", toggleable=True, isWaterSource=True),
            controls=("SinkBasin_1",),
        ),
        "SinkBasin_1": make_object(zone="counter", receptacle=True),
        "Mug_1": make_object(zone="counter", pickupable=True, canFillWithLiquid=True),
        "Vase_1": make_object(zone="counter", canFillWithLiquid=True, receptacle=True),
    }
    world = make_world(
        objects,
        containment={"Fork_1": "Cabinet_1", "Faucet_1": "CounterTop_1", "Mug_1": "CounterTop_1"},
        agent_zone="counter",
        discovered=set(objects) - {"Fork_1", "Vase_1"},
    )
    return refresh_visibility(world)


def test_every_tool_reports_its_success_text_and_skill():
    library = builtin_tool_library()
    assert sorted(row[0] for row in TOOL_REPORTS) == sorted(library.names())
    state = one_room_world()
    for tool, args, text, skill in TOOL_REPORTS:
        state, obs = execute(state, tool, args, True)
        assert obs == Observation(True, "Tool Completed Successfully: " + text), tool
        assert library.get(tool).skill == skill, tool


def test_stepwise_counts_each_tool_under_its_skill():
    actions = [{"action": tool, "ok": True} for tool, *_ in TOOL_REPORTS]
    # A tool name outside the library counts as a failed manipulation.
    actions.append({"action": "Teleport Object", "ok": False})
    table = stepwise_from_episodes([{"actions": actions}])
    assert [(row.skill, row.successes, row.failures) for row in table.rows] == [
        ("locate", 1, 0),
        ("move", 1, 0),
        ("perceive", 3, 0),
        ("manipulate", 7, 1),
        ("place", 1, 0),
    ]


def test_search_lists_children_in_containment_order():
    world = two_zone_world(
        Fork_1=make_object(zone="dining", pickupable=True),
        Spoon_1=make_object(zone="dining", pickupable=True),
    )
    containment = dict(world.containment)
    containment["Spoon_1"] = "DiningTable_1"
    containment["Fork_1"] = "DiningTable_1"
    world = world.__class__(
        objects=world.objects,
        containment=containment,
        agent=world.agent,
        discovered=world.discovered,
    )
    _, obs = execute(world, "Search Object", {"object_id": "DiningTable_1"}, True)
    assert obs.message == (
        "Tool Completed Successfully: Here is a list of objects found inside or on "
        "the target receptacle: ['Knife_1', 'Spoon_1', 'Fork_1']"
    )


def test_search_empty_receptacle():
    world = two_zone_world()
    world, _ = execute(world, "Adjust Positioning", {"object_id": "Cabinet_1"}, True)
    world, obs = execute(world, "Open Object", {"object_id": "Cabinet_1"}, True)
    assert obs.message == "Tool Completed Successfully: Target object was opened!"
    from homeplan.world import attribute_lookup

    assert attribute_lookup(world, "Cabinet_1", "isOpen") is True
    _, obs = execute(world, "Search Object", {"object_id": "Cabinet_1"}, True)
    assert obs.message.endswith("receptacle: []")


def test_search_closed_cabinet_fails_on_when_clause():
    world = two_zone_world()
    world, _ = execute(world, "Adjust Positioning", {"object_id": "Cabinet_1"}, True)
    _, obs = execute(world, "Search Object", {"object_id": "Cabinet_1"}, True)
    assert obs.message == "Tool Failed: the target object is not open, "


def test_explore_is_deterministic():
    world_a = two_zone_world()
    world_b = two_zone_world()
    a1, obs_a = execute(world_a, "Randomly Explore", {"input": None}, True)
    b1, obs_b = execute(world_b, "Randomly Explore", {"input": None}, True)
    assert obs_a == obs_b
    assert a1.agent.current_zone == b1.agent.current_zone
    assert zone_order(world_a) == zone_order(world_b)


def test_explore_lands_in_seeded_zone_and_discovers_surface_objects():
    objects = {
        "CounterTop_1": make_object(zone="counter", receptacle=True),
        "Knife_1": make_object(zone="dining", pickupable=True),
    }
    world = make_world(objects, agent_zone="counter", seed=42)
    order = zone_order(world)
    new, obs = execute(world, "Randomly Explore", {"input": None}, True)
    assert new.agent.current_zone == order[0]
    assert obs.message == "Tool Completed Successfully: New objects discovered!"
    assert new.discovered == {"CounterTop_1", "Knife_1"}


def test_explore_reports_no_new_objects():
    world = two_zone_world()  # everything pre-discovered
    _, obs = execute(world, "Randomly Explore", {"input": None}, True)
    assert obs.message == "Tool Completed Successfully: No new objects discovered."


def test_explore_skips_concealed_objects():
    objects = {
        "Cabinet_1": make_object(zone="counter", receptacle=True, openable=True),
        "Mug_1": make_object(zone="counter", pickupable=True),
    }
    world = make_world(objects, containment={"Mug_1": "Cabinet_1"}, agent_zone="counter")
    new, _ = execute(world, "Randomly Explore", {"input": None}, True)
    assert "Mug_1" not in new.discovered
    assert "Cabinet_1" in new.discovered


def test_adjust_requires_discovered():
    objects = {"CounterTop_1": make_object(zone="counter", receptacle=True)}
    world = make_world(objects, agent_zone="dining")
    _, obs = execute(world, "Adjust Positioning", {"object_id": "CounterTop_1"}, True)
    assert obs.message == "Tool Failed: the target object has not been discovered, "
    _, obs = execute(world, "Adjust Positioning", {"object_id": "CounterTop_1"}, False)
    assert obs.message == GENERIC_FAILURE


def test_nav_fault_suppresses_reposition():
    objects = {"CounterTop_1": make_object(zone="counter", receptacle=True)}
    world = make_world(
        objects, agent_zone="dining", discovered={"CounterTop_1"}, nav_faults={1}
    )
    new, obs = execute(world, "Adjust Positioning", {"object_id": "CounterTop_1"}, True)
    assert obs.success
    assert new.agent.current_zone == "dining"
    # Second attempt (action index 2) is not faulted.
    new2, _ = execute(new, "Adjust Positioning", {"object_id": "CounterTop_1"}, True)
    assert new2.agent.current_zone == "counter"


def test_fill_and_pour_cycle():
    world = two_zone_world(
        Mug_1=make_object(zone="counter", pickupable=True, canFillWithLiquid=True),
        Vase_1=make_object(zone="counter", canFillWithLiquid=True, receptacle=True),
    )
    world, obs = execute(world, "Toggle Object On", {"object_id": "Faucet_1"}, True)
    assert not obs.success  # faucet not visible from the dining zone
    world, _ = execute(world, "Adjust Positioning", {"object_id": "Faucet_1"}, True)
    world, obs = execute(world, "Toggle Object On", {"object_id": "Faucet_1"}, True)
    assert obs.message == "Tool Completed Successfully: Target object was toggled on!"
    world, obs = execute(world, "Pick Up Object", {"object_id": "Mug_1"}, True)
    assert obs.success
    world, obs = execute(world, "Fill Held Object With Water", {"input": None}, True)
    assert obs.message == "Tool Completed Successfully: Held object was successfully filled with water!"
    assert world.objects["Mug_1"].attributes.isFilledWithLiquid is True
    world, obs = execute(world, "Pour Water Into", {"object_id": "Vase_1"}, True)
    assert obs.message == "Tool Completed Successfully: Water was successfully poured into the target object!"
    assert world.objects["Vase_1"].attributes.isFilledWithLiquid is True
    assert world.objects["Mug_1"].attributes.isFilledWithLiquid is False
    assert validate_world(world) == []


def test_fill_requires_toggled_water_source():
    world = two_zone_world(
        Mug_1=make_object(zone="dining", pickupable=True, canFillWithLiquid=True),
    )
    world, _ = execute(world, "Pick Up Object", {"object_id": "Mug_1"}, True)
    _, obs = execute(world, "Fill Held Object With Water", {"input": None}, True)
    assert obs.message.startswith("Tool Failed: no object in the environment satisfies")


def test_toggle_heat_source_cooks_contents():
    world = two_zone_world(
        Microwave_1=make_object(zone="dining", receptacle=True, openable=True, toggleable=True),
        Egg_1=make_object(zone="dining", pickupable=True, cookable=True),
    )
    objects = dict(world.objects)
    objects["Microwave_1"] = objects["Microwave_1"].__class__(
        attributes=objects["Microwave_1"].attributes,
        zone="dining",
        heat_source=True,
    )
    containment = dict(world.containment)
    containment["Egg_1"] = "Microwave_1"
    world = refresh_visibility(
        world.__class__(
            objects=objects,
            containment=containment,
            agent=world.agent,
            discovered=world.discovered | {"Egg_1", "Microwave_1"},
        )
    )
    world, obs = execute(world, "Toggle Object On", {"object_id": "Microwave_1"}, True)
    assert obs.success
    assert world.objects["Egg_1"].attributes.isCooked is True
    assert validate_world(world) == []


def test_toggle_water_source_does_not_cook():
    world = two_zone_world(
        Pot_1=make_object(zone="counter", receptacle=True, canFillWithLiquid=True),
        Egg_1=make_object(zone="counter", cookable=True, pickupable=True),
    )
    world, _ = execute(world, "Adjust Positioning", {"object_id": "Faucet_1"}, True)
    world, obs = execute(world, "Toggle Object On", {"object_id": "Faucet_1"}, True)
    assert obs.success
    assert world.objects["Egg_1"].attributes.isCooked is False


# ---------------------------------------------------------------------------
# Goals


def test_goal_tomato_in_cabinet():
    task = TaskSpec(
        id="t",
        difficulty="moderate",
        instruction="Put a Tomato in a Cabinet.",
        goal=(GoalAtom("containment", "Tomato", receptacle_pattern="Cabinet"),),
        max_steps=50,
    )
    world = make_world(
        {
            "Tomato_1": make_object(pickupable=True),
            "Cabinet_3": make_object(receptacle=True, openable=True),
        },
        containment={"Tomato_1": "Cabinet_3"},
    )
    assert check_goal(world, task) is True


def test_goal_unfilled_vase():
    task = TaskSpec(
        id="t",
        difficulty="moderate",
        instruction="Fill a vase with water.",
        goal=(GoalAtom("attribute", "Vase", attribute="isFilledWithLiquid", value=True),),
        max_steps=50,
    )
    world = make_world({"Vase_1": make_object(canFillWithLiquid=True)})
    assert check_goal(world, task) is False


def test_goal_chilled_requires_closed_fridge():
    task = TaskSpec(
        id="t",
        difficulty="hard",
        instruction="Chill the tomato.",
        goal=(GoalAtom("chilled", "Tomato"),),
        max_steps=50,
    )
    closed = make_world(
        {
            "Tomato_1": make_object(pickupable=True),
            "Fridge_1": make_object(receptacle=True, openable=True),
        },
        containment={"Tomato_1": "Fridge_1"},
    )
    assert check_goal(closed, task) is True
    opened = make_world(
        {
            "Tomato_1": make_object(pickupable=True),
            "Fridge_1": make_object(receptacle=True, openable=True, isOpen=True),
        },
        containment={"Tomato_1": "Fridge_1"},
    )
    assert check_goal(opened, task) is False


def test_goal_containment_matches_nested_ancestor():
    task = TaskSpec(
        id="t",
        difficulty="moderate",
        instruction="Put a tomato in a cabinet.",
        goal=(GoalAtom("containment", "Tomato", receptacle_pattern="Cabinet"),),
        max_steps=50,
    )
    world = make_world(
        {
            "Tomato_1": make_object(pickupable=True),
            "Bowl_1": make_object(receptacle=True, pickupable=True),
            "Cabinet_1": make_object(receptacle=True, openable=True),
        },
        containment={"Tomato_1": "Bowl_1", "Bowl_1": "Cabinet_1"},
    )
    assert check_goal(world, task) is True


def test_task_from_dict_rejects_empty_goal():
    with pytest.raises(SuiteFormatError):
        task_from_dict(
            {
                "id": "x",
                "difficulty": "easy",
                "instruction": "do nothing",
                "goal": [],
                "maxSteps": 10,
            }
        )


def test_task_from_dict_rejects_unknown_difficulty():
    with pytest.raises(SuiteFormatError):
        task_from_dict(
            {
                "id": "x",
                "difficulty": "impossible",
                "instruction": "?",
                "goal": [{"type": "empty", "object": "Box_1"}],
                "maxSteps": 10,
            }
        )


# ---------------------------------------------------------------------------
# Whole-trace replay and simulator-wide properties


def test_trace_replays_byte_exactly(kitchen_world, clear_table_trace):
    _, results = replay_trace(clear_table_trace, kitchen_world)
    assert len(results) == 35
    mismatches = [r for r in results if not r.ok]
    assert mismatches == []


def test_trace_final_state_fails_proper_storage_goal(
    kitchen_world, clear_table_trace, clear_table_task
):
    final, _ = replay_trace(clear_table_trace, kitchen_world)
    # Table is cleared, but two items were dumped on the floor.
    assert final.children_of("DiningTable_1") == []
    assert check_goal(final, clear_table_task) is False


def test_grounding_neutrality_on_dynamics(kitchen_world, clear_table_trace):
    on_state, _ = replay_trace(clear_table_trace, kitchen_world, grounding_enabled=True)
    off_state, _ = replay_trace(clear_table_trace, kitchen_world, grounding_enabled=False)
    assert on_state == off_state


def test_reachable_states_stay_valid(kitchen_world, clear_table_trace):
    from homeplan.sim import execute as run

    state = refresh_visibility(kitchen_world)
    assert validate_world(state) == []
    for step in clear_table_trace.steps:
        state, _ = run(state, step.action, step.args, True)
        assert validate_world(state) == []


def _rand(seed, *labels):
    key = "|".join(str(x) for x in labels)
    return int.from_bytes(hashlib.sha256(f"{seed}:{key}".encode()).digest()[:8], "big")


def test_effect_precondition_coherence(kitchen_world):
    """Whenever the ground-truth precondition holds, execution succeeds."""
    lib = builtin_tool_library()
    state = refresh_visibility(kitchen_world)
    checked = 0
    for case in range(300):
        spec = lib.specs[_rand(11, case, "tool") % len(lib.specs)]
        ids = sorted(state.objects)
        target = ids[_rand(11, case, "target") % len(ids)] if spec.takes_target else None
        if spec.requires_discovered and target not in state.discovered:
            continue
        binding = {} if target is None else {"?x": target}
        args = {"input": None} if target is None else {"object_id": target}
        if spec.precondition is not None and not evaluate(spec.precondition, state, binding):
            continue
        new_state, obs = execute(state, spec.name, args, True)
        assert obs.success, f"{spec.name} on {target}: {obs.message}"
        assert validate_world(new_state) == []
        checked += 1
        state = new_state
    assert checked > 50


# ---------------------------------------------------------------------------
# Random tool-call walks over the shipped worlds

SHIPPED_WORLDS = ("worlds/kitchen.json", "worlds/kitchen_b.json", "worlds/kitchen_c.json")


@functools.cache
def shipped_world(ref):
    return refresh_visibility(resolve_world(ref))


def walk(ref, calls, grounding_enabled=True):
    """Execute (tool index, target index) calls from a shipped world; yield
    each call's spec and binding with the state it ran on, then the state
    it left."""
    lib = builtin_tool_library()
    state = shipped_world(ref)
    for tool, target in calls:
        spec = lib.specs[tool % len(lib.specs)]
        ids = sorted(state.objects)
        object_id = ids[target % len(ids)] if spec.takes_target else None
        binding = {} if object_id is None else {"?x": object_id}
        yield state, spec, binding
        args = {"input": None} if object_id is None else {"object_id": object_id}
        state, _ = execute(state, spec.name, args, grounding_enabled, library=lib)
    yield state, None, None


_walks = st.tuples(
    st.sampled_from(SHIPPED_WORLDS),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 99)), max_size=30),
)


@settings(max_examples=60, deadline=None)
@given(_walks, st.booleans())
def test_random_tool_calls_keep_the_world_valid(world_walk, grounding_enabled):
    for state, _, _ in walk(*world_walk, grounding_enabled=grounding_enabled):
        assert validate_world(state) == []


@settings(max_examples=60, deadline=None)
@given(_walks)
def test_unsatisfied_is_empty_exactly_when_evaluate_holds(world_walk):
    for state, spec, binding in walk(*world_walk):
        if spec is not None and spec.precondition is not None:
            holds = evaluate(spec.precondition, state, binding)
            assert (unsatisfied(spec.precondition, state, binding) == []) is holds


def reference_check_goal(state, task):
    """The goal check before ids were matched by prefix: every id parsed, in
    sorted order."""

    def matches(pattern, object_id):
        return pattern == object_id or pattern == category_of(object_id)

    def satisfied(atom):
        candidates = [oid for oid in sorted(state.objects) if matches(atom.object_pattern, oid)]
        if atom.kind == "attribute":
            return any(
                state.objects[oid].attributes.get(atom.attribute) == atom.value
                for oid in candidates
            )
        if atom.kind == "containment":
            return any(
                matches(atom.receptacle_pattern, ancestor)
                for oid in candidates
                for ancestor in state.ancestors_of(oid)
            )
        if atom.kind == "chilled":
            return any(
                category_of(ancestor) == "Fridge"
                and state.objects[ancestor].attributes.openable
                and not state.objects[ancestor].attributes.isOpen
                for oid in candidates
                for ancestor in state.ancestors_of(oid)
            )
        return bool(candidates) and all(not state.children_of(oid) for oid in candidates)

    return all(satisfied(atom) for atom in task.goal)


# "Pot" and "Sink" are prefixes of the categories "Potato" and "SinkBasin";
# "Stove" and "Counter" are prefixes of categories but not categories.
_PATTERNS = ("Pot", "Potato", "Sink", "SinkBasin", "Stove", "Counter", "CounterTop",
             "Fridge", "Tomato", "Apple", "Pot_1", "Potato_1", "Sink_1", "Cabinet_2")
_patterns = st.sampled_from(_PATTERNS)
_goal_atoms = st.one_of(
    st.builds(GoalAtom, st.just("attribute"), _patterns,
              attribute=st.sampled_from(ATTRIBUTE_NAMES), value=st.booleans()),
    st.builds(GoalAtom, st.just("containment"), _patterns, receptacle_pattern=_patterns),
    st.builds(GoalAtom, st.sampled_from(["chilled", "empty"]), _patterns),
)


@functools.cache
def easy_goals():
    suite = generate_easy_suite(seed=5, count=30, world_refs=list(SHIPPED_WORLDS))
    return [task.goal for task in suite.tasks]


@settings(max_examples=60, deadline=None)
@given(_walks, st.lists(_goal_atoms, min_size=1, max_size=12))
def test_check_goal_matches_the_parse_every_id_reference(world_walk, atoms):
    goals = [(atom,) for atom in atoms] + easy_goals()
    for state, _, _ in walk(*world_walk):
        for goal in goals:
            task = TaskSpec(id="t", difficulty="easy", instruction="", goal=goal, max_steps=1)
            assert check_goal(state, task) is reference_check_goal(state, task)
