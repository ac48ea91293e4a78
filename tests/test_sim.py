import contextlib
import functools
import hashlib
import json
import signal
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import homeplan
from homeplan import tools
from homeplan.errors import InputFormatError, MalformedArgsError, UnknownToolError
from homeplan.formula import Exists, parse_precondition, print_precondition
from homeplan.grounding import MessageTable, evaluate, unsatisfied
from homeplan.sim import (
    GENERIC_FAILURE,
    REFUSED,
    GoalAtom,
    Observation,
    TaskSpec,
    check_goal,
    execute,
    format_feedback,
    replay_trace,
    simulate,
    task_from_dict,
    task_to_dict,
)
from homeplan.suite import generate_easy_suite, resolve_world, stepwise_from_episodes
from homeplan.tools import builtin_tool_library, load_precondition_pairs, seeded_draw, zone_order
from homeplan.world import (
    ATTRIBUTE_NAMES,
    ZONE_ANY,
    ObjectInfo,
    category_of,
    refresh_visibility,
    validate_world,
)

from .conftest import data_path, examples, make_object, make_world
from .test_grounding import assert_compiled_like_the_reference, custom_table

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
    # Each spec is keyed by its name, so two specs under one name would count once.
    assert len(builtin_tool_library()) == 13


def test_search_precondition_matches_reference_block():
    assert builtin_tool_library()["Search Object"].precondition == parse_precondition(SEARCH_PART4)


def test_pour_precondition_has_held_filled_exists():
    formula = builtin_tool_library()["Pour Water Into"].precondition
    clauses = [c for c in formula.children if isinstance(c, Exists)]
    assert len(clauses) == 1
    assert print_precondition(clauses[0]) == (
        "(exists (?y) (and (isPickedUp ?y) (isFilledWithLiquid ?y)))"
    )


# name: (takes_target, requires_discovered), in prompt order
TOOL_ARGUMENTS = {
    "Pick Up Object": (True, False),
    "Place Object": (True, False),
    "Open Object": (True, False),
    "Close Object": (True, False),
    "Toggle Object On": (True, False),
    "Toggle Object Off": (True, False),
    "Search Object": (True, False),
    "Fill Held Object With Water": (False, False),
    "Pour Water Into": (True, False),
    "Randomly Explore": (False, False),
    "Get Discovered Objects": (False, False),
    "Inspect Object": (True, False),
    "Adjust Positioning": (True, True),
}


def test_each_tool_takes_an_object_and_needs_it_discovered_as_pinned():
    assert {name: (spec.takes_target, spec.requires_discovered)
            for name, spec in builtin_tool_library().items()} == TOOL_ARGUMENTS
    assert list(builtin_tool_library()) == list(TOOL_ARGUMENTS)
    for spec in builtin_tool_library().values():
        schema = "{'object_id': '" if spec.takes_target else "{'input': None}"
        assert f" Input format in JSON: {schema}" in spec.description


def test_each_library_tool_is_its_written_row_with_only_its_precondition_added():
    pairs = load_precondition_pairs()["tools"]
    library = builtin_tool_library()
    assert list(library) == [row.name for row in tools._TOOLS]
    for row, spec in zip(tools._TOOLS, library.values()):
        assert row.precondition is None
        entry = pairs.get(row.name)
        precondition = None if entry is None else parse_precondition(entry["ground_truth"])
        assert spec == replace(row, precondition=precondition)
        # Worked out once, when the row was made, and stored.
        assert vars(spec)["takes_target"] is (row.example is not None)


def test_a_pairs_entry_that_names_no_tool_is_an_input_error(monkeypatch):
    pairs = load_precondition_pairs()
    pairs["tools"]["Juggle Object"] = pairs["tools"]["Open Object"]
    monkeypatch.setattr(tools, "load_precondition_pairs", lambda: pairs)
    builtin_tool_library.cache_clear()
    try:
        with pytest.raises(InputFormatError, match="'Juggle Object' is not a built-in tool"):
            builtin_tool_library()
    finally:
        builtin_tool_library.cache_clear()


def test_unknown_tool_raises():
    world = two_zone_world()
    with pytest.raises(UnknownToolError):
        execute(world, "Levitate Object", {}, True)


@pytest.mark.parametrize(
    "action, args",
    [
        ("Pick Up Object", None),
        ("Pick Up Object", {}),
        ("Pick Up Object", {"object": "Knife_1"}),
        ("Pick Up Object", {"object_id": 7}),
        ("Pick Up Object", {"object_id": "Knife"}),
        ("Pick Up Object", {"object_id": "Knife_01"}),
        ("Pick Up Object", {"object_id": "Knife_0"}),
        ("Pick Up Object", {"object_id": "_1"}),
        ("Pick Up Object", "Knife_1"),  # not a mapping
        ("Pick Up Object", ["object_id"]),  # not a mapping, yet it holds the key
        ("Randomly Explore", {"object_id": "Knife_1"}),  # an argument the tool does not take
    ],
)
def test_malformed_args(action, args):
    world = two_zone_world()
    with pytest.raises(MalformedArgsError):
        execute(world, action, args, True)


def test_pick_up_success():
    world = two_zone_world()
    new, obs = execute(world, "Pick Up Object", {"object_id": "Knife_1"}, True)
    assert obs.message == "Tool Completed Successfully: Target object was picked up!"
    assert new.agent.held_object == "Knife_1"
    assert new.objects["Knife_1"].isPickedUp is True
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
    assert sorted(row[0] for row in TOOL_REPORTS) == sorted(library)
    state = one_room_world()
    for tool, args, text, skill in TOOL_REPORTS:
        state, obs = execute(state, tool, args, True)
        assert obs == Observation(True, "Tool Completed Successfully: " + text), tool
        assert library[tool].skill == skill, tool


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
    world = replace(world, containment=containment)
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
    assert world.objects["Cabinet_1"].isOpen is True
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


def plain_zone_order(seed, zones):
    """The seeded Fisher-Yates shuffle, worked out on every call."""
    order = list(zones)
    for i in range(len(order) - 1, 0, -1):
        j = seeded_draw(seed, "zone-order", i) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


@settings(max_examples=examples(60), deadline=None)
@given(st.integers(0, 2**32), st.lists(st.sampled_from(["counter", "dining", "hall", "pantry",
                                                        "sink", "stove", "yard"]),
                                       min_size=1, max_size=7, unique=True))
def test_zone_order_matches_the_plain_shuffle_reference(seed, zones):
    world = make_world({f"Box_{index}": make_object(zone=zone)
                        for index, zone in enumerate(zones, start=1)},
                       agent_zone=zones[0], seed=seed)
    assert world.zones() == sorted(zones)
    order = zone_order(world)
    assert order == plain_zone_order(seed, world.zones())
    order.reverse()  # a caller's list is its own
    assert zone_order(world) == plain_zone_order(seed, world.zones())


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
    assert world.objects["Mug_1"].isFilledWithLiquid is True
    world, obs = execute(world, "Pour Water Into", {"object_id": "Vase_1"}, True)
    assert obs.message == "Tool Completed Successfully: Water was successfully poured into the target object!"
    assert world.objects["Vase_1"].isFilledWithLiquid is True
    assert world.objects["Mug_1"].isFilledWithLiquid is False
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
        Bowl_1=make_object(zone="dining", pickupable=True, receptacle=True),
        Potato_1=make_object(zone="dining", pickupable=True, cookable=True),
    )
    objects = dict(world.objects)
    objects["Microwave_1"] = replace(objects["Microwave_1"], heat_source=True)
    containment = dict(world.containment)
    containment.update({"Egg_1": "Microwave_1", "Bowl_1": "Microwave_1", "Potato_1": "Bowl_1"})
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
    assert world.objects["Egg_1"].isCooked is True
    assert world.objects["Potato_1"].isCooked is True  # nested one level deeper
    assert validate_world(world) == []


def test_toggle_water_source_does_not_cook():
    world = two_zone_world(
        Pot_1=make_object(zone="counter", receptacle=True, canFillWithLiquid=True),
        Egg_1=make_object(zone="counter", cookable=True, pickupable=True),
    )
    world, _ = execute(world, "Adjust Positioning", {"object_id": "Faucet_1"}, True)
    world, obs = execute(world, "Toggle Object On", {"object_id": "Faucet_1"}, True)
    assert obs.success
    assert world.objects["Egg_1"].isCooked is False


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
    with pytest.raises(InputFormatError):
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
    with pytest.raises(InputFormatError):
        task_from_dict(
            {
                "id": "x",
                "difficulty": "impossible",
                "instruction": "?",
                "goal": [{"type": "empty", "object": "Box_1"}],
                "maxSteps": 10,
            }
        )


def test_task_from_dict_rejects_unknown_goal_attribute():
    # Attribute names are case-sensitive: "isopen" is not "isOpen". The
    # message names the task, so a bad atom in a long suite can be found.
    with pytest.raises(InputFormatError,
                       match="^task t-7: goal atom attribute: unknown attribute 'isopen'$"):
        task_from_dict(
            {
                "id": "t-7",
                "difficulty": "easy",
                "instruction": "?",
                "goal": [{"type": "attribute", "object": "Fridge", "attribute": "isopen",
                          "value": True}],
                "maxSteps": 10,
            }
        )


def test_task_json_round_trips():
    """task_to_dict writes what task_from_dict reads: the shipped task file
    comes back as it was read, and every generated or scenario task comes
    back equal."""
    data_dir = resources.files("homeplan.data")
    shipped = json.loads(data_dir.joinpath("tasks/clear_table.json").read_text("utf-8"))
    assert task_to_dict(task_from_dict(shipped)) == shipped
    tasks = list(generate_easy_suite(seed=3, count=6, world_refs=list(SHIPPED_WORLDS)).tasks)
    for kind in ("adversarial", "planning"):
        for path in data_dir.joinpath(f"scenarios/{kind}").iterdir():
            tasks.append(task_from_dict(json.loads(path.read_text("utf-8"))["task"]))
    assert {atom.kind for task in tasks for atom in task.goal} >= {"attribute", "containment"}
    for task in tasks:
        assert task_from_dict(task_to_dict(task)) == task


# ---------------------------------------------------------------------------
# Whole-trace replay and simulator-wide properties


def test_trace_replays_byte_exactly(kitchen_world, clear_table_trace):
    _, results = replay_trace(clear_table_trace, kitchen_world)
    assert len(results) == 35
    mismatches = [r for r in results if not r.ok]
    assert mismatches == []


def test_a_transcript_with_refused_calls_replays_as_the_agent_recorded_it(
        kitchen_world, clear_table_task):
    from homeplan.agent import AgentConfig, run_episode
    from homeplan.llm import ScriptedBackend
    from homeplan.sim import trace_from_dict

    completions = [
        "Thought: fly\nAction: Fly Away\nAction Input: None",
        "Thought: grab\nAction: Pick Up Object\nAction Input: {'object': 'Mug_1'}",
        "Thought: look\nAction: Randomly Explore\nAction Input: the kitchen",
    ]
    record = run_episode(clear_table_task, AgentConfig(step_cap=3),
                         ScriptedBackend.ordered(completions), kitchen_world)
    assert [step.observation for step in record.steps] == [
        "Tool Failed: unknown tool 'Fly Away'",
        "Tool Failed: malformed action input",
        "Tool Completed Successfully: New objects discovered!",
    ]
    trace = trace_from_dict({"world": "worlds/kitchen.json",
                             "steps": [step.to_dict() for step in record.steps]})
    _, results = replay_trace(trace, kitchen_world)
    assert [result.ok for result in results] == [True] * 3


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

    state = kitchen_world
    assert validate_world(state) == []
    for step in clear_table_trace.steps:
        state, _ = run(state, step.action, step.args, True)
        assert validate_world(state) == []


def _rand(seed, *labels):
    key = "|".join(str(x) for x in labels)
    return int.from_bytes(hashlib.sha256(f"{seed}:{key}".encode()).digest()[:8], "big")


def test_effect_precondition_coherence(kitchen_world):
    """Whenever the ground-truth precondition holds, execution succeeds."""
    specs = list(builtin_tool_library().values())
    state = kitchen_world
    checked = 0
    for case in range(300):
        spec = specs[_rand(11, case, "tool") % len(specs)]
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


def test_the_public_api_acts_on_a_world_as_loaded():
    world = homeplan.load_world(data_path("worlds/kitchen.json"))
    _, observation = homeplan.execute(world, "Pick Up Object", {"object_id": "Apple_1"}, True)
    assert observation == Observation(True, "Tool Completed Successfully: "
                                            "Target object was picked up!")


@functools.cache
def shipped_world(ref):
    return resolve_world(ref)


def walk(ref, calls, grounding_enabled=True):
    """Execute (tool index, target index) calls from a shipped world; yield
    each call's spec and binding with the state it ran on, then the state
    it left."""
    specs = list(builtin_tool_library().values())
    state = shipped_world(ref)
    for tool, target in calls:
        spec = specs[tool % len(specs)]
        ids = sorted(state.objects)
        object_id = ids[target % len(ids)] if spec.takes_target else None
        binding = {} if object_id is None else {"?x": object_id}
        yield state, spec, binding
        args = {"input": None} if object_id is None else {"object_id": object_id}
        state, _ = execute(state, spec.name, args, grounding_enabled)
    yield state, None, None


_walks = st.tuples(
    st.sampled_from(SHIPPED_WORLDS),
    st.lists(st.tuples(st.integers(0, 12), st.integers(0, 99)), max_size=30),
)


@settings(max_examples=60, deadline=None)
@given(_walks, st.booleans())
def test_random_tool_calls_keep_the_world_valid(world_walk, grounding_enabled):
    # From the world as loaded: every state also has its visibility settled.
    for state, _, _ in walk(*world_walk, grounding_enabled=grounding_enabled):
        assert validate_world(state) == []
        assert refresh_visibility(state) is state


@settings(max_examples=60, deadline=None)
@given(_walks)
def test_unsatisfied_is_empty_exactly_when_evaluate_holds(world_walk):
    for state, spec, binding in walk(*world_walk):
        if spec is not None and spec.precondition is not None:
            holds = evaluate(spec.precondition, state, binding)
            assert (unsatisfied(spec.precondition, state, binding) == []) is holds


@settings(max_examples=60, deadline=None)
@given(_walks)
def test_compiled_grounding_matches_the_tree_walk_on_shipped_worlds(world_walk):
    tables = (MessageTable.load(), custom_table())
    for state, spec, binding in walk(*world_walk):
        if spec is not None and spec.precondition is not None:
            for table in tables:
                assert_compiled_like_the_reference(spec.precondition, state, binding, table)


@settings(max_examples=examples(60), deadline=None)
@given(_walks)
def test_simulate_matches_the_execute_reference(world_walk):
    """simulate is execute with grounding off, except that a refused call
    returns the very state it was given, uncounted, with REFUSED; a call
    that is not well-formed raises the same error from both. The walk goes
    on from execute's successor, as an agent's does."""
    ref, calls = world_walk
    specs = list(builtin_tool_library().values())
    state = shipped_world(ref)
    for tool, target in calls:
        spec = specs[tool % len(specs)]
        malformed = {"object_id": "no id"} if spec.takes_target else {"object": None}
        for action, args, error in ((spec.name, malformed, MalformedArgsError),
                                    ("Levitate Object", {"input": None}, UnknownToolError)):
            with pytest.raises(error):
                execute(state, action, args, False)
            with pytest.raises(error):
                simulate(state, action, args)
        ids = sorted(state.objects)
        args = {"object_id": ids[target % len(ids)]} if spec.takes_target else {"input": None}
        expected_state, expected = execute(state, spec.name, args, False)
        successor, observation = simulate(state, spec.name, args)
        assert observation == expected
        if observation.success:
            assert successor == expected_state
        else:
            assert successor is state
            assert observation is REFUSED
        state = expected_state


def reference_check_goal(state, task):
    """The goal check before ids were matched by prefix: every id parsed, in
    sorted order."""

    def matches(pattern, object_id):
        return pattern == object_id or pattern == category_of(object_id)

    def satisfied(atom):
        candidates = [oid for oid in sorted(state.objects) if matches(atom.object_pattern, oid)]
        if atom.kind == "attribute":
            return any(
                (oid in state.visible if atom.attribute == "visible"
                 else getattr(state.objects[oid], atom.attribute)) == atom.value
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
                and state.objects[ancestor].openable
                and not state.objects[ancestor].isOpen
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


@settings(max_examples=examples(60), deadline=None)
@given(_walks, st.lists(_goal_atoms, min_size=1, max_size=12))
def test_check_goal_matches_the_parse_every_id_reference(world_walk, atoms):
    # "Apple_1" names Apple_1 and, as a category, Apple_1_2; one pattern is
    # checked on two worlds in turn, whose ids it matches differently.
    cooked = GoalAtom("attribute", "Apple_1", attribute="isCooked", value=True)
    in_apple_1 = GoalAtom("containment", "Apple", receptacle_pattern="Apple_1")
    both = make_world({"Apple_1": make_object(receptacle=True),
                       "Apple_1_2": make_object(cookable=True, isCooked=True),
                       "Apple_2": make_object()}, containment={"Apple_2": "Apple_1_2"})
    alone = make_world({"Apple_1": make_object(receptacle=True), "Apple_2": make_object()},
                       containment={"Apple_2": "Apple_1"})
    for state in (alone, both, alone):
        for goal in ((cooked,), (in_apple_1,)):
            task = TaskSpec(id="t", difficulty="easy", instruction="", goal=goal, max_steps=1)
            assert check_goal(state, task) is reference_check_goal(state, task)
    goals = [(atom,) for atom in atoms] + easy_goals()
    for state, _, _ in walk(*world_walk):
        for goal in goals:
            task = TaskSpec(id="t", difficulty="easy", instruction="", goal=goal, max_steps=1)
            assert check_goal(state, task) is reference_check_goal(state, task)


def reference_visible(state):
    """The visibility rule, written out: the objects held, or in the agent's
    zone or the wildcard zone, with no closed openable ancestor."""

    def concealed(object_id):
        for ancestor in state.ancestors_of(object_id):
            info = state.objects[ancestor]
            if info.openable and not info.isOpen:
                return True
        return False

    def zone_visible(object_id):
        if state.agent.held_object == object_id:
            return True
        zone = state.objects[object_id].zone
        return zone == ZONE_ANY or zone == state.agent.current_zone

    return {oid for oid in state.objects if zone_visible(oid) and not concealed(oid)}


def visibility_inputs(state):
    """What visibility depends on; the maps are compared by identity."""
    return (id(state.objects), id(state.containment), state.agent.current_zone,
            state.agent.held_object)


@settings(max_examples=60, deadline=None)
@given(_walks, st.booleans())
def test_the_visible_set_follows_the_rule_and_is_kept_while_its_inputs_are(
        world_walk, grounding_enabled):
    """Every call of a walk, and a malformed call before each: afterwards the
    visible set is the rule's, and the very same set when the call changed
    none of what it depends on."""
    ref, calls = world_walk
    specs = list(builtin_tool_library().values())
    state = shipped_world(ref)
    assert state.visible == reference_visible(state)
    for tool, target in calls:
        spec = specs[tool % len(specs)]
        with pytest.raises(MalformedArgsError):
            execute(state, spec.name, {"object_id": "no id"} if spec.takes_target
                    else {"object": None}, grounding_enabled)
        ids = sorted(state.objects)
        args = {"object_id": ids[target % len(ids)]} if spec.takes_target else {"input": None}
        after, _ = execute(state, spec.name, args, grounding_enabled)
        assert after.visible == reference_visible(after)
        if visibility_inputs(after) == visibility_inputs(state):
            assert after.visible is state.visible
        state = after


@pytest.mark.parametrize("outer_open, inner_open", [(True, False), (False, True), (False, False)])
def test_refresh_visibility_of_held_and_nested_objects(outer_open, inner_open):
    world = make_world(
        {
            "Mug_1": make_object(zone=None, pickupable=True, isPickedUp=True),
            "Cabinet_1": make_object(receptacle=True, openable=True, isOpen=outer_open),
            "Box_1": make_object(receptacle=True, openable=True, isOpen=inner_open,
                                 pickupable=True),
            "Key_1": make_object(pickupable=True),
            "Shelf_1": make_object(zone="pantry", receptacle=True),
        },
        containment={"Box_1": "Cabinet_1", "Key_1": "Box_1"},
        holding="Mug_1",
        visible={"Shelf_1"},
    )
    state = refresh_visibility(world)
    seen = {
        "Mug_1": True,
        "Cabinet_1": True,
        "Box_1": outer_open,
        "Key_1": outer_open and inner_open,
        "Shelf_1": False,
    }
    assert state.visible == {oid for oid, flag in seen.items() if flag} == reference_visible(world)
    assert state.objects is world.objects
    assert refresh_visibility(state) is state


def held_bowl_walk():
    """The walk on a shipped world: pick up the bowl, place it into itself."""
    return shipped_world("worlds/kitchen_c.json"), [
        ("Randomly Explore", {"input": None}),
        ("Randomly Explore", {"input": None}),
        ("Pick Up Object", {"object_id": "Bowl_1"}),
        ("Place Object", {"object_id": "Bowl_1"}),
    ]


def held_pot_walk():
    """Pick up a pot holding a bowl, place it into that bowl."""
    world = make_world(
        {
            "Pot_1": make_object(pickupable=True, moveable=True, receptacle=True),
            "Bowl_1": make_object(pickupable=True, moveable=True, receptacle=True),
            "CounterTop_1": make_object(receptacle=True),
        },
        containment={"Bowl_1": "Pot_1", "Pot_1": "CounterTop_1"},
        discovered={"Pot_1", "Bowl_1", "CounterTop_1"},
    )
    return refresh_visibility(world), [
        ("Pick Up Object", {"object_id": "Pot_1"}),
        ("Place Object", {"object_id": "Bowl_1"}),
    ]


# Place Object into the held object (or a receptacle nested inside it) is
# accepted and closes a containment cycle. The stand-in model of the
# benchmark proposes this move, so a fix changes its recorded canary.
@pytest.mark.xfail(strict=True, reason="Place Object can create a containment cycle")
@pytest.mark.parametrize("start", [held_bowl_walk, held_pot_walk])
def test_placing_the_held_object_into_itself_is_rejected(start):
    state, calls = start()
    for action, args in calls:
        state, observation = execute(state, action, args, False)
    assert validate_world(state) == []
    assert not observation.success


@contextlib.contextmanager
def time_limit(seconds):
    """Fail, instead of hanging, a block that runs past the given seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_descendants_of_ends_on_a_containment_cycle():
    world = make_world(
        {
            "Box_1": make_object(receptacle=True),
            "Box_2": make_object(receptacle=True),
            "Key_1": make_object(),
        },
        containment={"Box_1": "Box_2", "Box_2": "Box_1", "Key_1": "Box_2"},
    )
    with time_limit(5):
        assert world.descendants_of("Box_1") == ["Box_2", "Box_1", "Key_1"]


def test_a_heat_source_placed_into_itself_can_be_toggled_on():
    # Place Object still closes the cycle; Toggle Object On then walks the
    # kettle's contents, which hold the kettle itself.
    kettle = ObjectInfo("kitchen", pickupable=True, moveable=True, receptacle=True,
                        toggleable=True, heat_source=True)
    state = refresh_visibility(make_world(
        {"Kettle_1": kettle, "CounterTop_1": make_object(receptacle=True)},
        containment={"Kettle_1": "CounterTop_1"},
        discovered={"Kettle_1", "CounterTop_1"},
    ))
    with time_limit(5):
        for action in ("Pick Up Object", "Place Object", "Toggle Object On"):
            state, observation = execute(state, action, {"object_id": "Kettle_1"}, True)
    assert observation == Observation(
        True, "Tool Completed Successfully: Target object was toggled on!")


def carried_bowl_walk():
    """On kitchen_c: find the spoon in the bowl on the dining table, then
    carry the bowl to the kitchen counter."""
    calls = [("Randomly Explore", {"input": None})]
    for target in ("DiningTable_1", "Bowl_1"):
        calls += [("Adjust Positioning", {"object_id": target}),
                  ("Search Object", {"object_id": target})]
    calls += [("Pick Up Object", {"object_id": "Bowl_1"}),
              ("Adjust Positioning", {"object_id": "CounterTop_1"}),
              ("Place Object", {"object_id": "CounterTop_1"})]
    return shipped_world("worlds/kitchen_c.json"), calls


# The contents of a moved receptacle keep their old zone: the spoon still
# reads "dining" beside the agent in the kitchen, so it is not visible there,
# and Adjust Positioning on it walks the agent back. A fix changes what the
# benchmark's stand-in model sees, so it moves the recorded canary.
@pytest.mark.xfail(strict=True, reason="contents of a moved receptacle keep their old zone")
def test_the_contents_of_a_carried_receptacle_move_with_it():
    state, calls = carried_bowl_walk()
    for action, args in calls:
        state, observation = execute(state, action, args, True)
        assert observation.success, (action, observation.message)
    assert state.objects["Spoon_1"].zone == state.agent.current_zone == "kitchen"
    _, observation = execute(state, "Pick Up Object", {"object_id": "Spoon_1"}, True)
    assert observation.success, observation.message


# ---------------------------------------------------------------------------
# Golden state walk: every transition pinned byte for byte

GOLDEN_WALK_CALLS = 2000
GOLDEN_WALK_DIGEST = "e57c6332a6749d4c0b82c1065361ff9cec6274b1118e8b2af124540c08af17b8"


def canonical_state(state):
    """The whole state as text: objects in dict order with their zone and
    attributes (visible read from the state's set), containment in insertion
    order, the agent's zone, held object and counters, and the sorted
    discovered ids. Not repr, so that a change to a dataclass's fields that
    keeps the values does not move the digest."""

    def bits(oid, info):
        values = {**vars(info), "visible": oid in state.visible}
        return "".join("1" if values[name] else "0" for name in ATTRIBUTE_NAMES)

    lines = [f"{oid} {info.zone} " + bits(oid, info) for oid, info in state.objects.items()]
    lines.append(" ".join(f"{child}>{parent}" for child, parent in state.containment.items()))
    agent = state.agent
    lines.append(
        f"{agent.current_zone} {agent.held_object} {agent.explore_count} {agent.action_count}"
    )
    lines.append(" ".join(sorted(state.discovered)))
    return "\n".join(lines)


def golden_walks():
    """(start state, calls) pairs: a seeded walk of GOLDEN_WALK_CALLS tool
    calls on each shipped world, then the two containment-cycle walks."""
    specs = list(builtin_tool_library().values())
    for ref in SHIPPED_WORLDS:
        state = shipped_world(ref)
        ids = sorted(state.objects)
        calls = []
        for i in range(GOLDEN_WALK_CALLS):
            spec = specs[_rand(23, ref, i, "tool") % len(specs)]
            target = ids[_rand(23, ref, i, "target") % len(ids)]
            args = {"object_id": target} if spec.takes_target else {"input": None}
            calls.append((spec.name, args))
        yield state, calls
    yield held_bowl_walk()
    yield held_pot_walk()


def test_golden_state_walk():
    hasher = hashlib.sha256()
    for grounding_enabled in (True, False):
        for state, calls in golden_walks():
            hasher.update(canonical_state(state).encode())
            for action, args in calls:
                state, observation = execute(state, action, args, grounding_enabled)
                hasher.update(f"\n{observation.success} {observation.message}\n".encode())
                hasher.update(canonical_state(state).encode())
    assert hasher.hexdigest() == GOLDEN_WALK_DIGEST


def test_a_refused_call_changes_only_the_action_count():
    # Why an episode checks its goal only at the start and after a
    # successful action: a refused call leaves everything a goal reads.
    refused = 0
    for grounding_enabled in (True, False):
        for state, calls in golden_walks():
            for action, args in calls:
                after, observation = execute(state, action, args, grounding_enabled)
                if not observation.success:
                    refused += 1
                    assert after.objects == state.objects
                    assert after.containment == state.containment
                    assert after.discovered == state.discovered
                    assert after.nav_faults == state.nav_faults
                    assert replace(after.agent, action_count=state.agent.action_count) \
                        == state.agent
                state = after
    assert refused > 1000
