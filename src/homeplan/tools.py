"""The built-in tool library: one ActionSpec per tool, by name.

Each tool is written once, as one ActionSpec row of _TOOLS: what it does, an
example object id (none for a tool that takes no object), the transition
that applies its effect and writes its success text, and the skill category
step-wise reports count it under. Its prompt text and input format are
worked out from that row when it is made. The library adds only its expert
ground-truth precondition: the one the shipped labeled-pairs fixture lists
under its name, so the verification layer and the comparison harness can
never drift apart. A transition runs only after the simulator has checked
the precondition.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path

from .errors import DATA, InputFormatError, check_fields, read_input
from .formula import Formula, parse_precondition
from .world import ZONE_ANY, WorldState, _replace, concealed, with_object

# (state, target object id or None) -> (successor state, success text)
Transition = Callable[[WorldState, str | None], tuple[WorldState, str]]


@dataclass(frozen=True)
class ActionSpec:
    """One tool as written once: what it does, an example object id for its
    input format (None: it takes no object), its transition, skill category
    and precondition. Its prompt text and whether it takes an object_id are
    worked out from these once, when it is made."""

    name: str
    purpose: str
    example: str | None
    apply: Transition
    skill: str  # locate | move | perceive | manipulate | place
    requires_discovered: bool = False  # world-level check outside the formula
    precondition: Formula | None = None  # None means trivially true
    description: str = field(init=False)
    takes_target: bool = field(init=False)

    def __post_init__(self):
        schema = {"input": None} if self.example is None else {"object_id": self.example}
        object.__setattr__(self, "description", f"{self.purpose} Input format in JSON: {schema}.")
        object.__setattr__(self, "takes_target", self.example is not None)


_PAIRS_FIELDS = {"tools": (dict, dict)}
_PAIRS_OPTIONAL = {"note": str, "reported_counts": (dict, int)}
_PAIR_FIELDS = {"generated": str, "ground_truth": str}


def load_precondition_pairs(path: str | Path | None = None) -> dict:
    """Labeled-pairs fixture (generated/ground-truth text per tool), its
    fields checked."""
    source = DATA.joinpath("preconditions/labeled_pairs.json") if path is None else path
    data = check_fields(read_input(source), "precondition pairs", _PAIRS_FIELDS, _PAIRS_OPTIONAL)
    for tool, entry in data["tools"].items():
        check_fields(entry, f"precondition pairs: {tool}", _PAIR_FIELDS)
    return data


# ---------------------------------------------------------------------------
# Transitions, one per tool. The precondition has already held, so a tool
# that needs a held object has one.


def _pick_up(state: WorldState, target: str) -> tuple[WorldState, str]:
    containment = dict(state.containment)
    containment.pop(target, None)
    agent = _replace(state.agent, held_object=target)
    state = _replace(state, containment=containment, agent=agent)
    state = with_object(state, target, isPickedUp=True, zone=None)
    return state, "Target object was picked up!"


def _place(state: WorldState, target: str) -> tuple[WorldState, str]:
    held = state.agent.held_object
    # Read before the release: a target that is the held object itself is
    # at the agent's zone.
    zone = state.effective_zone(target)
    if zone == ZONE_ANY:
        zone = state.agent.current_zone
    agent = _replace(state.agent, held_object=None)
    state = _replace(state, agent=agent, containment={**state.containment, held: target})
    state = with_object(state, held, isPickedUp=False, zone=zone)
    return state, "Held object was successfully placed in target object!"


def _setter(attribute: str, value: bool, report: str) -> Transition:
    def apply(state: WorldState, target: str) -> tuple[WorldState, str]:
        return with_object(state, target, **{attribute: value}), report

    return apply


def _toggle_on(state: WorldState, target: str) -> tuple[WorldState, str]:
    state = with_object(state, target, isToggled=True)
    info = state.objects[target]
    if info.heat_source and not info.isWaterSource:
        for descendant in state.descendants_of(target):
            if state.objects[descendant].cookable:
                state = with_object(state, descendant, isCooked=True)
    return state, "Target object was toggled on!"


def _search(state: WorldState, target: str) -> tuple[WorldState, str]:
    children = state.children_of(target)
    return _replace(state, discovered=state.discovered | set(children)), (
        f"Here is a list of objects found inside or on the target receptacle: {children!r}"
    )


def _fill(state: WorldState, target: None) -> tuple[WorldState, str]:
    state = with_object(state, state.agent.held_object, isFilledWithLiquid=True)
    return state, "Held object was successfully filled with water!"


def _pour(state: WorldState, target: str) -> tuple[WorldState, str]:
    state = with_object(state, state.agent.held_object, isFilledWithLiquid=False)
    state = with_object(state, target, isFilledWithLiquid=True)
    return state, "Water was successfully poured into the target object!"


def seeded_draw(seed: int, *labels) -> int:
    """A 64-bit number fixed by the seed and the labels alone."""
    key = "|".join(map(str, (seed, *labels)))
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


@lru_cache(maxsize=256)
def _shuffled(rng_seed: int, zones: tuple[str, ...]) -> tuple[str, ...]:
    """Seeded Fisher-Yates shuffle, worked out once per seed and zone list."""
    order = list(zones)
    for i in range(len(order) - 1, 0, -1):
        j = seeded_draw(rng_seed, "zone-order", i) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return tuple(order)


def zone_order(state: WorldState) -> list[str]:
    """Seeded shuffle of the world's zones; the exploration itinerary. The
    zones are listed anew, as a zone goes when its only object is picked up."""
    return list(_shuffled(state.agent.rng_seed, tuple(state.zones())))


def _explore(state: WorldState, target: None) -> tuple[WorldState, str]:
    """Walk to the next zone in the seeded order, surveying the room: every
    unconcealed object that is free-standing or conspicuous is discovered."""
    order = zone_order(state)
    landing = order[state.agent.explore_count % len(order)]
    eligible = {
        oid
        for oid, info in state.objects.items()
        if (oid not in state.containment or info.conspicuous) and not concealed(state, oid)
    }
    found = eligible - state.discovered
    agent = _replace(
        state.agent, current_zone=landing, explore_count=state.agent.explore_count + 1
    )
    return _replace(state, agent=agent, discovered=state.discovered | eligible), (
        "New objects discovered!" if found else "No new objects discovered."
    )


def _list_discovered(state: WorldState, target: None) -> tuple[WorldState, str]:
    return state, (
        "Here is a list of the object ID's of all of the discovered objects: "
        f"{sorted(state.discovered)!r}"
    )


def _inspect(state: WorldState, target: str) -> tuple[WorldState, str]:
    """Report the target's parent and the objects it controls."""
    parent = state.parent_of(target)
    parents = "None" if parent is None else repr([state.objects[parent].display_id or parent])
    controls = state.objects[target].controls
    return state, (
        f"The queried object is currently inside or on top of the following objects: {parents}.\n"
        # "quried"/"controls" phrasing matches the transcript fixtures. [sic]
        "The quried objects currently controls the following objects: "
        f"{repr(list(controls)) if controls else 'None'}."
    )


def _adjust(state: WorldState, target: str) -> tuple[WorldState, str]:
    # An authored navigation fault makes the reposition silently fail.
    if state.agent.action_count not in state.nav_faults:
        agent = _replace(state.agent, current_zone=state.effective_zone(target))
        state = _replace(state, agent=agent)
    return state, "Readjusted position relative to target object!"


# The thirteen built-in tools, in prompt order.
_TOOLS = (
    ActionSpec("Pick Up Object", "Pick up a target object specified by object id and hold it.",
               "Apple_1", _pick_up, "manipulate"),
    ActionSpec("Place Object", "Place the currently held object inside or on a target "
               "receptacle specified by object id.", "CounterTop_1", _place, "place"),
    ActionSpec("Open Object", "Open a target object specified by object id.",
               "Cabinet_4", _setter("isOpen", True, "Target object was opened!"), "manipulate"),
    ActionSpec("Close Object", "Close a target object specified by object id.",
               "Cabinet_4", _setter("isOpen", False, "Target object was closed!"), "manipulate"),
    ActionSpec("Toggle Object On", "Toggle a target object on, specified by object id.",
               "Faucet_1", _toggle_on, "manipulate"),
    ActionSpec("Toggle Object Off", "Toggle a target object off, specified by object id.",
               "Faucet_1", _setter("isToggled", False, "Target object was toggled off!"),
               "manipulate"),
    ActionSpec("Search Object", "Return a list of all items inside or on a target object "
               "specified by object id.", "Cabinet_4", _search, "perceive"),
    ActionSpec("Fill Held Object With Water", "Fill the currently held object with water from "
               "a toggled-on water source.", None, _fill, "manipulate"),
    ActionSpec("Pour Water Into", "Pour water from the held object into a target object "
               "specified by object id.", "Vase_1", _pour, "manipulate"),
    ActionSpec("Randomly Explore", "Move around the environment to discover new objects.",
               None, _explore, "locate"),
    ActionSpec("Get Discovered Objects", "Return a list of the object IDs of all discovered "
               "objects.", None, _list_discovered, "perceive"),
    ActionSpec("Inspect Object", "Report what a target object is inside or on top of and what "
               "it controls.", "Cabinet_4", _inspect, "perceive"),
    ActionSpec("Adjust Positioning", "Readjust position relative to a target object so that it "
               "can be interacted with.", "Cabinet_4", _adjust, "move", requires_discovered=True),
)


@lru_cache(maxsize=1)
def builtin_tool_library() -> dict[str, ActionSpec]:
    """The built-in tools by name in prompt order, each with the ground-truth
    precondition the pairs file lists under its name, or none."""
    pairs = load_precondition_pairs()["tools"]
    unknown = sorted(pairs.keys() - {tool.name for tool in _TOOLS})
    if unknown:
        raise InputFormatError(f"precondition pairs: {unknown[0]!r} is not a built-in tool")
    return {tool.name: tool if tool.name not in pairs
            else replace(tool, precondition=parse_precondition(pairs[tool.name]["ground_truth"]))
            for tool in _TOOLS}
