"""Deterministic household simulator: action execution, goals, trace replay.

A tool call gets a verdict, then a transition. ``_parse_call`` finds the
named tool, the one place an unknown name is refused, and checks its
arguments; ``_refusal`` checks the target, the tool's ground-truth
precondition and that Place Object closes no containment cycle; ``_apply``
counts the call, applies the tool's own transition (``ActionSpec.apply`` in
tools.py) and refreshes visibility; every step is a pure function of
(state, action, args). ``execute`` counts a refused call too; ``simulate``,
for a planner that wants only the verdict, is ``execute`` with grounding
off, except that a refused call returns the very state it was given, with
``REFUSED``. The simulator always enforces physical legality; ``execute``
makes its grounding flag and message table one argument, ``explain``: the
table a refusal is worded with (unsatisfied-predicate feedback or a special
text), or None for a bare execution error. An ``Observation`` holds only
its text, which says whether the call succeeded. Visibility
(``WorldState.visible``, computed by ``world.refresh_visibility``) is set
when a world is loaded, and again after a successful call that changed
what it depends on: the objects, the containment, or the agent's zone or
held object. So a state that load_world, execute or simulate returned is
ready to act on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import (
    InputFormatError,
    InvalidObjectIdError,
    MalformedArgsError,
    UnknownToolError,
    check_fields,
    read_input,
)
from .grounding import Binding, MessageTable, evaluate, unsatisfied
from .llm import StepRecord
from .tools import ActionSpec, builtin_tool_library
from .world import (
    ATTRIBUTE_NAMES,
    WorldState,
    _replace,
    attribute_reader,
    category_of,
    refresh_visibility,
)

SUCCESS_PREFIX = "Tool Completed Successfully: "
FAIL_PREFIX = "Tool Failed: "
GENERIC_FAILURE = FAIL_PREFIX + "execution error"
# What an agent records for a completion that holds no action.
UNPARSED_ACTION = FAIL_PREFIX + "could not parse a valid action"


class Observation(NamedTuple):
    message: str

    @property
    def success(self) -> bool:
        """Whether the simulator accepted the call, as its text says."""
        return self.message.startswith(SUCCESS_PREFIX)


# What simulate returns for every call it refuses; an Observation is frozen.
REFUSED = Observation(GENERIC_FAILURE)


def rejected_call(exc: MalformedArgsError | UnknownToolError) -> Observation:
    """What an agent or planner records for a call that execute or simulate refuses."""
    if isinstance(exc, UnknownToolError):
        return Observation(f"{FAIL_PREFIX}unknown tool {exc.name!r}")
    return Observation(FAIL_PREFIX + "malformed action input")


def call_args(action_input: dict | str | None) -> dict | None:
    """The arguments execute is given for a recorded Action Input."""
    return action_input if isinstance(action_input, dict) else None


def format_feedback(messages: list[str]) -> str:
    """Render unsatisfied-predicate messages the way transcripts print them."""
    return (FAIL_PREFIX + ", ".join(messages) + ", ") if messages else FAIL_PREFIX


# ---------------------------------------------------------------------------
# execute


def _parse_call(action: str, args: dict | None, objects: dict) -> tuple[ActionSpec, str | None]:
    """The tool a call names and its target object id, if any; raises
    UnknownToolError for a name outside the library and MalformedArgsError
    for arguments outside the tool's schema. An id that names an object of
    the world was parsed when the world was loaded, so only other ids are
    parsed here."""
    spec = builtin_tool_library().get(action)
    if spec is None:
        raise UnknownToolError(action)
    args = args or {}
    if not isinstance(args, dict):
        raise MalformedArgsError(f"{spec.name}: arguments must be a mapping")
    if spec.takes_target:
        if "object_id" not in args:
            raise MalformedArgsError(f"{spec.name}: missing required argument 'object_id'")
        value = args["object_id"]
        if not isinstance(value, str):
            raise MalformedArgsError(f"{spec.name}: 'object_id' must be a string")
        if value not in objects:
            try:
                category_of(value)
            except InvalidObjectIdError as exc:
                raise MalformedArgsError(f"{spec.name}: {exc}") from exc
        return spec, value
    unexpected = set(args) - {"input"}
    if unexpected:
        raise MalformedArgsError(f"{spec.name}: unexpected arguments {sorted(unexpected)}")
    return spec, None


def _refusal(state: WorldState, spec: ActionSpec, target: str | None,
             explain: MessageTable | None) -> Observation | None:
    """The verdict on a parsed call: None when the simulator accepts it, else
    the refusal's observation, bare when ``explain`` is None and otherwise
    worded with that message table. It reads the uncounted state, as no
    precondition reads action_count."""
    binding: Binding = {} if target is None else {"?x": target}
    held = state.agent.held_object
    if (target is not None and target not in state.objects
            or spec.requires_discovered and target not in state.discovered):
        special = "not_discovered"
    elif spec.precondition is not None and not evaluate(spec.precondition, state, binding):
        special = None
    # Placing the held object into itself or its contents would close a containment cycle.
    elif spec.places_held and (target == held or held in state.ancestors_of(target)):
        special = "inside_held"
    else:
        return None
    if explain is None:
        return REFUSED
    texts = ([explain.special[special]] if special is not None else
             [item.message for item in unsatisfied(spec.precondition, state, binding, explain)])
    return Observation(format_feedback(texts))


def _counted(state: WorldState) -> WorldState:
    return _replace(state, agent=_replace(state.agent, action_count=state.agent.action_count + 1))


def _apply(state: WorldState, spec: ActionSpec,
           target: str | None) -> tuple[WorldState, Observation]:
    """The transition of an accepted call: counted, applied, and with its
    visibility refreshed when the call changed what visibility reads."""
    state = _counted(state)
    new_state, report = spec.apply(state, target)
    # A transition copies the objects or containment map it changes, so an
    # unchanged map is the same object and leaves visibility as it was.
    if (new_state.objects is not state.objects
            or new_state.containment is not state.containment
            or new_state.agent.current_zone != state.agent.current_zone
            or new_state.agent.held_object != state.agent.held_object):
        new_state = refresh_visibility(new_state)
    return new_state, Observation(SUCCESS_PREFIX + report)


def execute(
    state: WorldState,
    action: str,
    args: dict | None,
    grounding_enabled: bool,
    messages: MessageTable | None = None,
) -> tuple[WorldState, Observation]:
    """Run one tool call; returns the successor state and its observation.

    Raises UnknownToolError / MalformedArgsError for calls that are not even
    well-formed; every in-vocabulary call returns an Observation instead.
    """
    explain = (messages or MessageTable.load()) if grounding_enabled else None
    spec, target = _parse_call(action, args, state.objects)
    refusal = _refusal(state, spec, target, explain)
    if refusal is not None:
        return _counted(state), refusal
    return _apply(state, spec, target)


def simulate(state: WorldState, action: str, args: dict | None) -> tuple[WorldState, Observation]:
    """``execute`` with grounding off, except that a refused call returns
    the state it was given, uncounted, with ``REFUSED``. It raises what
    execute raises."""
    spec, target = _parse_call(action, args, state.objects)
    if _refusal(state, spec, target, None) is not None:
        return state, REFUSED
    return _apply(state, spec, target)


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


def _matching_ids(pattern: str, object_ids: tuple[str, ...]) -> frozenset[str]:
    """The ids a goal pattern names, itself or its category's."""
    # A category match implies the "<pattern>_" prefix; only ids with it are parsed.
    prefix = pattern + "_"
    return frozenset(oid for oid in object_ids if oid == pattern
                     or (oid.startswith(prefix) and category_of(oid) == pattern))


@lru_cache(maxsize=1024)
def _goal_ids(goal: tuple[GoalAtom, ...], object_ids: tuple[str, ...]) -> tuple[tuple, ...]:
    """Per atom, the ids its object pattern names and the receptacles it
    reads (a chilled atom's are the fridges); keyed by a world's ids, which
    no call adds or removes, so matched once per goal and world."""

    def receptacles(atom):
        pattern = "Fridge" if atom.kind == "chilled" else atom.receptacle_pattern
        return frozenset() if pattern is None else _matching_ids(pattern, object_ids)

    return tuple((_matching_ids(atom.object_pattern, object_ids), receptacles(atom))
                 for atom in goal)


def _atom_satisfied(state: WorldState, atom: GoalAtom, candidates: frozenset[str],
                    receptacles: frozenset[str]) -> bool:
    if atom.kind == "attribute":
        read = attribute_reader(atom.attribute)
        return any(read(state, oid) == atom.value for oid in candidates)
    if atom.kind == "empty":
        return bool(candidates) and all(not state.children_of(oid) for oid in candidates)
    if atom.kind == "chilled":  # inside a closed fridge-category receptacle at check time
        receptacles = {oid for oid in receptacles
                       if state.objects[oid].openable and not state.objects[oid].isOpen}
    elif atom.kind != "containment":
        raise InputFormatError(f"unknown goal atom kind: {atom.kind!r}")
    containment = state.containment
    for oid in candidates:
        parent = containment.get(oid)
        for _ in containment:  # a chain has at most one link per edge, so a cycle ends too
            if parent is None:
                break
            if parent in receptacles:
                return True
            parent = containment.get(parent)
    return False


def check_goal(state: WorldState, task: TaskSpec) -> bool:
    matched = _goal_ids(task.goal, tuple(state.objects))
    return all(_atom_satisfied(state, atom, *ids) for atom, ids in zip(task.goal, matched))


_GOAL_FIELDS = {  # per goal atom type, in the order a file writes them
    "attribute": {"type": str, "object": str, "attribute": str, "value": bool},
    "containment": {"type": str, "object": str, "receptacle": str},
    "chilled": {"type": str, "object": str},
    "empty": {"type": str, "object": str},
}
# A goal atom's and a task's JSON keys, each with the field it fills; read and written by them.
_GOAL_KEYS = {"type": "kind", "object": "object_pattern", "attribute": "attribute",
              "value": "value", "receptacle": "receptacle_pattern"}
_TASK_KEYS = {"id": "id", "difficulty": "difficulty", "instruction": "instruction",
              "goal": "goal", "maxSteps": "max_steps", "world": "world"}


def goal_atom_from_dict(data: dict) -> GoalAtom:
    kind = data.get("type")
    if not isinstance(kind, str) or kind not in _GOAL_FIELDS:
        raise InputFormatError(f"unknown goal atom type: {kind!r}")
    check_fields(data, f"goal atom {kind}", _GOAL_FIELDS[kind])
    if kind == "attribute" and data["attribute"] not in ATTRIBUTE_NAMES:
        raise InputFormatError(f"goal atom attribute: unknown attribute {data['attribute']!r}")
    return GoalAtom(**{_GOAL_KEYS[key]: value for key, value in data.items()})


def _goal_atom_to_dict(atom: GoalAtom) -> dict:
    return {key: getattr(atom, _GOAL_KEYS[key]) for key in _GOAL_FIELDS[atom.kind]}


def task_to_dict(task: TaskSpec) -> dict:
    """The JSON form task_from_dict reads."""
    data = {key: getattr(task, field) for key, field in _TASK_KEYS.items()}
    data["goal"] = [_goal_atom_to_dict(atom) for atom in task.goal]
    return data


_TASK_FIELDS = {"id": str, "difficulty": str, "instruction": str, "goal": (list, dict),
               "maxSteps": int}
_TASK_OPTIONAL = {"world": str | None}


def task_from_dict(data: dict) -> TaskSpec:
    check_fields(data, "task", _TASK_FIELDS, _TASK_OPTIONAL)
    if data["difficulty"] not in ("easy", "moderate", "hard"):
        raise InputFormatError(f"task {data['id']}: bad difficulty {data['difficulty']!r}")
    try:
        goal = tuple(goal_atom_from_dict(atom) for atom in data["goal"])
    except InputFormatError as exc:
        raise InputFormatError(f"task {data['id']}: {exc}") from None
    if not goal:
        raise InputFormatError(f"task {data['id']}: goal must have at least one atom")
    if data["maxSteps"] <= 0:
        raise InputFormatError(f"task {data['id']}: maxSteps must be positive")
    return TaskSpec(**{_TASK_KEYS[key]: value for key, value in data.items()} | {"goal": goal})


def load_task(path) -> TaskSpec:
    return task_from_dict(read_input(path))


# ---------------------------------------------------------------------------
# Transcript replay


@dataclass(frozen=True)
class TraceFixture:
    """A recorded transcript: its world file and its steps. A trace file's
    task, final thought and final answer are checked on load, not read."""

    world: str
    steps: tuple[StepRecord, ...]


_TRACE_FIELDS = {"world": str, "steps": (list, dict)}
_TRACE_OPTIONAL = {"task": str | None, "final_thought": str | None, "final_answer": str | None}
_STEP_FIELDS = {"action": str, "observation": str}
_STEP_OPTIONAL = {"thought": str, "args": dict | str | None}
_STEP_DEFAULTS = {"thought": "", "args": None}  # a step's keys are StepRecord's fields


def trace_from_dict(data: dict) -> TraceFixture:
    check_fields(data, "trace", _TRACE_FIELDS, _TRACE_OPTIONAL)
    steps = tuple(
        StepRecord(**{**_STEP_DEFAULTS,
                      **check_fields(step, f"trace step {index}", _STEP_FIELDS, _STEP_OPTIONAL)})
        for index, step in enumerate(data["steps"], start=1)
    )
    return TraceFixture(world=data["world"], steps=steps)


def load_trace(path) -> TraceFixture:
    """A trace from a fixture file, given by path or as a file of DATA."""
    return trace_from_dict(read_input(path))


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
    messages: MessageTable | None = None,
) -> tuple[WorldState, list[ReplayResult]]:
    """Execute a recorded action sequence from a loaded world, comparing
    observations byte-wise; each call is made, or refused, as an agent makes it."""
    state = world
    results = []
    for index, step in enumerate(trace.steps, start=1):
        try:
            state, observation = execute(state, step.action, call_args(step.args),
                                         grounding_enabled, messages=messages)
        except (MalformedArgsError, UnknownToolError) as exc:
            observation = rejected_call(exc)
        results.append(ReplayResult(index, step.action, expected=step.observation,
                                    actual=observation.message))
    return state, results
