"""Deterministic household simulator: action execution, goals, trace replay.

Transitions are pure functions of (state, action, args). The simulator always
enforces physical legality with the ground-truth preconditions; the
``grounding_enabled`` flag only controls whether a rejected action is
explained (unsatisfied-predicate feedback) or reported as a bare execution
error. Visibility is zone-based: an object is visible when it shares the
agent's zone (or sits in the wildcard zone) and no closed openable ancestor
conceals it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import InvalidObjectIdError, MalformedArgsError, SuiteFormatError
from .grounding import Binding, MessageTable, evaluate, unsatisfied
from .tools import (
    ActionSpec,
    CookContents,
    DescribeRelations,
    DiscoverSweep,
    InsertContainment,
    ListDiscovered,
    MoveAgentTo,
    RemoveContainment,
    RevealContents,
    SetAttribute,
    SetHolding,
    ToolLibrary,
    builtin_tool_library,
)
from .world import ZONE_ANY, ObjectId, WorldState, category_of

SUCCESS_PREFIX = "Tool Completed Successfully: "
FAIL_PREFIX = "Tool Failed: "
GENERIC_FAILURE = FAIL_PREFIX + "execution error"


@dataclass(frozen=True)
class Observation:
    success: bool
    message: str


def format_feedback(messages: list[str]) -> str:
    """Render unsatisfied-predicate messages the way transcripts print them."""
    return FAIL_PREFIX + "".join(message + ", " for message in messages)


# ---------------------------------------------------------------------------
# Visibility and discovery


def _concealed(state: WorldState, object_id: str) -> bool:
    for ancestor in state.ancestors_of(object_id):
        attrs = state.objects[ancestor].attributes
        if attrs.openable and not attrs.isOpen:
            return True
    return False


def _zone_visible(state: WorldState, object_id: str) -> bool:
    if state.agent.held_object == object_id:
        return True
    zone = state.objects[object_id].zone
    return zone == ZONE_ANY or zone == state.agent.current_zone


def refresh_visibility(state: WorldState) -> WorldState:
    """Recompute every object's stored visible attribute from the model."""
    objects = dict(state.objects)
    changed = False
    for object_id, info in objects.items():
        visible = _zone_visible(state, object_id) and not _concealed(state, object_id)
        if info.attributes.visible != visible:
            objects[object_id] = replace(
                info, attributes=info.attributes.with_value("visible", visible)
            )
            changed = True
    return replace(state, objects=objects) if changed else state


def _counter_rand(seed: int, label: str, counter: int) -> int:
    digest = hashlib.sha256(f"{seed}|{label}|{counter}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def zone_order(state: WorldState) -> list[str]:
    """Seeded shuffle of the world's zones; the exploration itinerary."""
    zones = state.zones()
    order = list(zones)
    for i in range(len(order) - 1, 0, -1):
        j = _counter_rand(state.agent.rng_seed, "zone-order", i) % (i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def _sweep_eligible(state: WorldState, object_id: str) -> bool:
    info = state.objects[object_id]
    if _concealed(state, object_id):
        return False
    return state.parent_of(object_id) is None or info.conspicuous


# ---------------------------------------------------------------------------
# Effect application


def _set_attribute(state: WorldState, object_id: str, attribute: str, value: bool) -> WorldState:
    objects = dict(state.objects)
    info = objects[object_id]
    objects[object_id] = replace(info, attributes=info.attributes.with_value(attribute, value))
    return replace(state, objects=objects)


def _set_zone(state: WorldState, object_id: str, zone: str | None) -> WorldState:
    objects = dict(state.objects)
    objects[object_id] = replace(objects[object_id], zone=zone)
    return replace(state, objects=objects)


def _descendants(state: WorldState, object_id: str) -> list[str]:
    result = []
    frontier = state.children_of(object_id)
    while frontier:
        child = frontier.pop(0)
        result.append(child)
        frontier.extend(state.children_of(child))
    return result


def _apply_effects(
    state: WorldState, spec: ActionSpec, refs: dict[str, str | None]
) -> tuple[WorldState, str]:
    """Apply the spec's effect list in order; returns the state and the
    success text (the spec's own, or the one a reporting effect wrote)."""
    report = spec.success
    for effect in spec.effects:
        if isinstance(effect, SetAttribute):
            target = refs[effect.ref]
            state = _set_attribute(state, target, effect.attribute, effect.value)
        elif isinstance(effect, RemoveContainment):
            target = refs[effect.ref]
            containment = dict(state.containment)
            containment.pop(target, None)
            state = replace(state, containment=containment)
        elif isinstance(effect, InsertContainment):
            child = refs[effect.child_ref]
            parent = refs[effect.parent_ref]
            containment = dict(state.containment)
            containment[child] = parent
            state = replace(state, containment=containment)
            parent_zone = state.objects[parent].zone
            child_zone = state.agent.current_zone if parent_zone == ZONE_ANY else parent_zone
            state = _set_zone(state, child, child_zone)
        elif isinstance(effect, SetHolding):
            if effect.ref is None:
                released = state.agent.held_object
                agent = replace(state.agent, is_holding_object=False, held_object=None)
                state = replace(state, agent=agent)
                if released is not None:
                    state = _set_zone(state, released, state.agent.current_zone)
            else:
                target = refs[effect.ref]
                agent = replace(state.agent, is_holding_object=True, held_object=target)
                state = replace(state, agent=agent)
                state = _set_zone(state, target, None)
        elif isinstance(effect, RevealContents):
            target = refs[effect.ref]
            children = state.children_of(target)
            report = effect.report.format(children)
            state = replace(state, discovered=state.discovered | set(children))
        elif isinstance(effect, DiscoverSweep):
            order = zone_order(state)
            landing = order[state.agent.explore_count % len(order)]
            eligible = {oid for oid in state.objects if _sweep_eligible(state, oid)}
            report = effect.found if eligible - state.discovered else effect.nothing_new
            agent = replace(
                state.agent,
                current_zone=landing,
                explore_count=state.agent.explore_count + 1,
            )
            state = replace(state, agent=agent, discovered=state.discovered | eligible)
        elif isinstance(effect, ListDiscovered):
            report = effect.report.format(sorted(state.discovered))
        elif isinstance(effect, DescribeRelations):
            target = refs[effect.ref]
            parent = state.parent_of(target)
            parents = (
                "None" if parent is None else repr([state.objects[parent].display_id or parent])
            )
            controls = state.objects[target].controls
            report = effect.report.format(
                parents=parents, controls=repr(list(controls)) if controls else "None"
            )
        elif isinstance(effect, MoveAgentTo):
            if state.agent.action_count in state.nav_faults:
                continue  # authored navigation fault: reposition silently fails
            target = refs[effect.ref]
            agent = replace(state.agent, current_zone=state.effective_zone(target))
            state = replace(state, agent=agent)
        elif isinstance(effect, CookContents):
            target = refs[effect.ref]
            info = state.objects[target]
            if info.heat_source and not info.attributes.isWaterSource:
                for descendant in _descendants(state, target):
                    if state.objects[descendant].attributes.cookable:
                        state = _set_attribute(state, descendant, "isCooked", True)
        else:
            raise TypeError(f"unknown effect primitive: {effect!r}")
    return state, report


# ---------------------------------------------------------------------------
# execute


def _parse_args(spec: ActionSpec, args: dict | None) -> str | None:
    """Validate tool-call arguments; returns the target object id, if any."""
    args = args or {}
    if not isinstance(args, dict):
        raise MalformedArgsError(f"{spec.name}: arguments must be a mapping")
    if spec.takes_target:
        if "object_id" not in args:
            raise MalformedArgsError(f"{spec.name}: missing required argument 'object_id'")
        value = args["object_id"]
        if not isinstance(value, str):
            raise MalformedArgsError(f"{spec.name}: 'object_id' must be a string")
        try:
            ObjectId.parse(value)
        except InvalidObjectIdError as exc:
            raise MalformedArgsError(f"{spec.name}: {exc}") from exc
        return value
    unexpected = set(args) - {"input"}
    if unexpected:
        raise MalformedArgsError(f"{spec.name}: unexpected arguments {sorted(unexpected)}")
    return None


def execute(
    state: WorldState,
    action: str,
    args: dict | None,
    grounding_enabled: bool,
    library: ToolLibrary | None = None,
    messages: MessageTable | None = None,
) -> tuple[WorldState, Observation]:
    """Run one tool call; returns the successor state and its observation.

    Raises UnknownToolError / MalformedArgsError for calls that are not even
    well-formed; every in-vocabulary call returns an Observation instead.
    """
    lib = library if library is not None else builtin_tool_library()
    spec = lib.get(action)
    target = _parse_args(spec, args)

    agent = replace(state.agent, action_count=state.agent.action_count + 1)
    state = replace(state, agent=agent)
    table = messages if messages is not None else MessageTable.load()

    def fail(message: str) -> tuple[WorldState, Observation]:
        if grounding_enabled:
            return state, Observation(False, format_feedback([message]))
        return state, Observation(False, GENERIC_FAILURE)

    if target is not None and target not in state.objects:
        return fail(table.special["not_discovered"])
    if spec.requires_discovered and target not in state.discovered:
        return fail(table.special["not_discovered"])

    binding: Binding = {} if target is None else {"?x": target}
    if spec.precondition is not None and not evaluate(spec.precondition, state, binding):
        if grounding_enabled:
            items = unsatisfied(spec.precondition, state, binding, table)
            return state, Observation(
                False, format_feedback([item.message for item in items])
            )
        return state, Observation(False, GENERIC_FAILURE)

    refs: dict[str, str | None] = {"target": target, "held": state.agent.held_object}
    new_state, report = _apply_effects(state, spec, refs)
    return refresh_visibility(new_state), Observation(True, SUCCESS_PREFIX + report)


# ---------------------------------------------------------------------------
# Tasks and goals


@dataclass(frozen=True)
class GoalAtom:
    """One conjunct of a task goal; kind selects which fields apply."""

    kind: str  # "attribute" | "containment" | "chilled" | "empty"
    object_pattern: str
    attribute: str | None = None
    value: bool | None = None
    receptacle_pattern: str | None = None


@dataclass(frozen=True)
class TaskSpec:
    id: str
    difficulty: str  # easy | moderate | hard
    instruction: str
    goal: tuple[GoalAtom, ...]
    max_steps: int
    world: str | None = None  # fixture path, resolved by the harness


def _matches(pattern: str, object_id: str) -> bool:
    # A category match implies the "<pattern>_" prefix; only ids with it are parsed.
    return pattern == object_id or (
        object_id.startswith(pattern + "_") and pattern == category_of(object_id)
    )


def _matching_ids(state: WorldState, pattern: str) -> list[str]:
    # Unsorted: goal atoms only ask any/all of the matches.
    return [oid for oid in state.objects if _matches(pattern, oid)]


def _atom_satisfied(state: WorldState, atom: GoalAtom) -> bool:
    candidates = _matching_ids(state, atom.object_pattern)
    if atom.kind == "attribute":
        return any(
            state.objects[oid].attributes.get(atom.attribute) == atom.value
            for oid in candidates
        )
    if atom.kind == "containment":
        for oid in candidates:
            for ancestor in state.ancestors_of(oid):
                if _matches(atom.receptacle_pattern, ancestor):
                    return True
        return False
    if atom.kind == "chilled":
        # Inside a closed fridge-category receptacle at check time.
        for oid in candidates:
            for ancestor in state.ancestors_of(oid):
                attrs = state.objects[ancestor].attributes
                if category_of(ancestor) == "Fridge" and attrs.openable and not attrs.isOpen:
                    return True
        return False
    if atom.kind == "empty":
        return bool(candidates) and all(not state.children_of(oid) for oid in candidates)
    raise SuiteFormatError(f"unknown goal atom kind: {atom.kind!r}")


def check_goal(state: WorldState, task: TaskSpec) -> bool:
    return all(_atom_satisfied(state, atom) for atom in task.goal)


_GOAL_KEYS = {
    "attribute": {"type", "object", "attribute", "value"},
    "containment": {"type", "object", "receptacle"},
    "chilled": {"type", "object"},
    "empty": {"type", "object"},
}


def goal_atom_from_dict(data: dict) -> GoalAtom:
    kind = data.get("type")
    if kind not in _GOAL_KEYS:
        raise SuiteFormatError(f"unknown goal atom type: {kind!r}")
    unknown = set(data) - _GOAL_KEYS[kind]
    if unknown:
        raise SuiteFormatError(f"goal atom {kind}: unknown keys {sorted(unknown)}")
    missing = _GOAL_KEYS[kind] - set(data)
    if missing:
        raise SuiteFormatError(f"goal atom {kind}: missing keys {sorted(missing)}")
    return GoalAtom(
        kind=kind,
        object_pattern=data["object"],
        attribute=data.get("attribute"),
        value=data.get("value"),
        receptacle_pattern=data.get("receptacle"),
    )


def task_from_dict(data: dict) -> TaskSpec:
    required = {"id", "difficulty", "instruction", "goal", "maxSteps"}
    unknown = set(data) - required - {"world"}
    if unknown:
        raise SuiteFormatError(f"task: unknown keys {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise SuiteFormatError(f"task: missing keys {sorted(missing)}")
    if data["difficulty"] not in ("easy", "moderate", "hard"):
        raise SuiteFormatError(f"task {data['id']}: bad difficulty {data['difficulty']!r}")
    goal = tuple(goal_atom_from_dict(atom) for atom in data["goal"])
    if not goal:
        raise SuiteFormatError(f"task {data['id']}: goal must have at least one atom")
    max_steps = int(data["maxSteps"])
    if max_steps <= 0:
        raise SuiteFormatError(f"task {data['id']}: maxSteps must be positive")
    return TaskSpec(
        id=data["id"],
        difficulty=data["difficulty"],
        instruction=data["instruction"],
        goal=goal,
        max_steps=max_steps,
        world=data.get("world"),
    )


def load_task(path: str | Path) -> TaskSpec:
    with open(path, encoding="utf-8") as handle:
        return task_from_dict(json.load(handle))


# ---------------------------------------------------------------------------
# Transcript replay


@dataclass(frozen=True)
class TraceStep:
    thought: str
    action: str
    args: dict | None
    observation: str


@dataclass(frozen=True)
class TraceFixture:
    world: str
    task: str | None
    steps: tuple[TraceStep, ...]
    final_thought: str | None
    final_answer: str | None


def trace_from_dict(data: dict) -> TraceFixture:
    steps = tuple(
        TraceStep(
            thought=step.get("thought", ""),
            action=step["action"],
            args=step.get("args"),
            observation=step["observation"],
        )
        for step in data["steps"]
    )
    return TraceFixture(
        world=data["world"],
        task=data.get("task"),
        steps=steps,
        final_thought=data.get("final_thought"),
        final_answer=data.get("final_answer"),
    )


def load_trace(path: str | Path) -> TraceFixture:
    with open(path, encoding="utf-8") as handle:
        return trace_from_dict(json.load(handle))


@dataclass(frozen=True)
class ReplayResult:
    index: int
    action: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


def replay_trace(
    trace: TraceFixture,
    world: WorldState,
    grounding_enabled: bool = True,
    library: ToolLibrary | None = None,
    messages: MessageTable | None = None,
) -> tuple[WorldState, list[ReplayResult]]:
    """Execute a recorded action sequence, comparing observations byte-wise."""
    state = refresh_visibility(world)
    results = []
    for index, step in enumerate(trace.steps, start=1):
        state, observation = execute(
            state, step.action, step.args, grounding_enabled, library=library,
            messages=messages,
        )
        results.append(
            ReplayResult(
                index=index,
                action=step.action,
                expected=step.observation,
                actual=observation.message,
            )
        )
    return state, results
