"""Object, agent, and world-state vocabulary shared by every other module.

A world is a set of objects with fifteen stored boolean attributes, a
containment forest over those objects, and a single agent with a zone
position and an optional held object. The sixteenth attribute, visible, is
a fact of the whole state: ``WorldState.visible`` holds the ids of the
visible objects, and ``refresh_visibility`` computes it. States are values:
simulator operations never mutate a state, they return new ones.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from .errors import (
    InputFormatError,
    InvalidObjectIdError,
    UnknownAttributeError,
    UnknownObjectError,
    check_fields,
    read_input,
)

# Nullary agent predicate usable in formulas alongside the sixteen attributes.
AGENT_PREDICATE = "isHoldingObject"

# Wildcard zone: objects placed here (floors) are visible from every zone.
ZONE_ANY = "*"


def _replace(instance, **changes):
    """``dataclasses.replace`` for the frozen value types of this module,
    without the ``__init__`` call: the copy starts from the instance dict.
    That is the same thing here, because these types keep only their fields
    in that dict and have no ``__post_init__``. An unknown field name raises
    TypeError, as ``replace`` does: it is found as a key the copy adds."""
    fields = instance.__dict__
    copy = object.__new__(type(instance))
    copied = copy.__dict__
    copied.update(fields, **changes)
    if len(copied) != len(fields):
        unknown = sorted(changes.keys() - fields.keys())
        raise TypeError(f"{type(instance).__name__} has no fields {unknown}")
    return copy


# attribute -> attribute it implies (isOpen=true requires openable=true, ...)
_ATTRIBUTE_DEPENDENCIES = {
    "isOpen": "openable",
    "isToggled": "toggleable",
    "isPickedUp": "pickupable",
    "isCooked": "cookable",
    "isFilledWithLiquid": "canFillWithLiquid",
}


# Closed attribute vocabulary, in canonical listing order: ObjectInfo's
# stored attributes with visible at its place. Unknown names are errors
# everywhere, never silently-false.
ATTRIBUTE_NAMES: tuple[str, ...] = (
    "moveable", "breakable", "canFillWithLiquid", "isToggled", "pickupable", "isOpen",
    "isBroken", "visible", "receptacle", "openable", "isPickedUp", "toggleable",
    "isFilledWithLiquid", "cookable", "isCooked", "isWaterSource",
)
_STORED_ATTRIBUTES = frozenset(ATTRIBUTE_NAMES) - {"visible"}


def category_of(object_id: str) -> str:
    """The category of an id like ``Cabinet_4`` (``Cabinet``): the text before
    the last underscore, followed by a positive index written without leading
    zeros. Any other id raises InvalidObjectIdError, which says what is wrong."""
    head, sep, tail = object_id.rpartition("_")
    if not sep or not head:
        raise InvalidObjectIdError(object_id, "expected Category_N")
    if not tail.isdecimal():  # what int() reads; isdigit also takes "²"
        raise InvalidObjectIdError(object_id, "instance index must be digits")
    try:
        index = int(tail)
    except ValueError:  # more digits than int() reads
        raise InvalidObjectIdError(object_id, "instance index is too long") from None
    if index <= 0:
        raise InvalidObjectIdError(object_id, "instance index must be positive")
    if tail != str(index):
        raise InvalidObjectIdError(object_id, "instance index has leading zeros")
    return head


@dataclass(frozen=True)
class ObjectInfo:
    """One object: its zone, its fifteen stored boolean attributes (visibility
    is kept in ``WorldState.visible``) and its fixture-level roles.

    zone is None exactly when the object is held by the agent. conspicuous
    objects are found by exploration even while sitting inside or on an open
    receptacle. heat_source receptacles cook their cookable contents when
    toggled on. display_id, when set, replaces the id in inspection output.
    """

    zone: str | None
    moveable: bool = False
    breakable: bool = False
    canFillWithLiquid: bool = False
    isToggled: bool = False
    pickupable: bool = False
    isOpen: bool = False
    isBroken: bool = False
    receptacle: bool = False
    openable: bool = False
    isPickedUp: bool = False
    toggleable: bool = False
    isFilledWithLiquid: bool = False
    cookable: bool = False
    isCooked: bool = False
    isWaterSource: bool = False
    conspicuous: bool = False
    heat_source: bool = False
    display_id: str | None = None
    controls: tuple[str, ...] = ()


@dataclass(frozen=True)
class AgentState:
    """Agent pose, manipulator state, and deterministic-replay counters."""

    current_zone: str
    rng_seed: int
    held_object: str | None = None
    explore_count: int = 0
    action_count: int = 0

    @property
    def is_holding_object(self) -> bool:
        return self.held_object is not None


@dataclass(frozen=True)
class WorldState:
    """Full simulator snapshot. Treat as immutable; operations return copies.

    containment maps child id -> parent id and must form a forest.
    visible holds the ids of the objects the agent can see; refresh_visibility
    computes it from the objects, the containment and the agent.
    nav_faults lists action indices at which a repositioning silently fails
    to relocate the agent (fixture-authored fault injection).
    """

    objects: dict[str, ObjectInfo]
    containment: dict[str, str]
    agent: AgentState
    discovered: frozenset[str] = frozenset()
    visible: frozenset[str] = frozenset()
    nav_faults: frozenset[int] = frozenset()

    def object_ids(self) -> list[str]:
        return sorted(self.objects)

    def info(self, object_id: str) -> ObjectInfo:
        try:
            return self.objects[object_id]
        except KeyError:
            raise UnknownObjectError(object_id) from None

    def parent_of(self, object_id: str) -> str | None:
        return self.containment.get(object_id)

    def children_of(self, object_id: str) -> list[str]:
        # Insertion order of the containment map; deterministic and stable.
        return [child for child, parent in self.containment.items() if parent == object_id]

    def ancestors_of(self, object_id: str) -> list[str]:
        chain = []
        seen = set()
        current = self.containment.get(object_id)
        while current is not None and current not in seen:
            chain.append(current)
            seen.add(current)
            current = self.containment.get(current)
        return chain

    def descendants_of(self, object_id: str) -> list[str]:
        """Objects inside or on the object at any depth, breadth first, each
        once: on a containment cycle the walk ends at the first repeat."""
        result = self.children_of(object_id)
        seen = set(result)
        for child in result:  # the loop also visits the children it appends
            for grandchild in self.children_of(child):
                if grandchild not in seen:
                    seen.add(grandchild)
                    result.append(grandchild)
        return result

    def effective_zone(self, object_id: str) -> str:
        """Zone the object occupies; a held object travels with the agent."""
        info = self.info(object_id)
        if self.agent.held_object == object_id:
            return self.agent.current_zone
        if info.zone is None:
            raise InputFormatError(f"{object_id} has no zone and is not held")
        return info.zone

    def zones(self) -> list[str]:
        """The objects' zones other than None and the wildcard, and the agent's, sorted."""
        names = {info.zone for info in self.objects.values()} - {None, ZONE_ANY}
        names.add(self.agent.current_zone)
        return sorted(names)


def with_object(state: WorldState, object_id: str, **changes) -> WorldState:
    """The state with the given fields of one object changed; a name that is
    not a field of ObjectInfo raises TypeError."""
    objects = dict(state.objects)
    objects[object_id] = _replace(objects[object_id], **changes)
    return _replace(state, objects=objects)


def concealed_ids(state: WorldState) -> set[str]:
    """The objects a closed openable ancestor hides; visibility and Randomly
    Explore leave them out. Only contained objects have ancestors, and every
    ancestor holds something, so with no closed openable holder none is hidden."""
    objects, containment = state.objects, state.containment
    closed = {parent for parent in containment.values()
              if objects[parent].openable and not objects[parent].isOpen}
    if not closed:
        return set()
    return {oid for oid in containment if not closed.isdisjoint(state.ancestors_of(oid))}


def refresh_visibility(state: WorldState) -> WorldState:
    """The state with its visible set computed: the objects held, or in the
    agent's zone or the wildcard zone, and not concealed (``concealed_ids``).
    The state itself when the set is unchanged."""
    here = (state.agent.current_zone, ZONE_ANY)
    held = state.agent.held_object
    visible = frozenset([
        object_id for object_id, info in state.objects.items()
        if info.zone in here or object_id == held
    ]) - concealed_ids(state)
    return state if visible == state.visible else _replace(state, visible=visible)


def attribute_reader(attribute: str) -> Callable[[WorldState, str], bool]:
    """The atom-evaluation primitive: a reader of one attribute of an object in
    the state. An unknown name raises UnknownAttributeError when read."""
    if attribute == "visible":
        return lambda state, object_id: object_id in state.visible
    if attribute in _STORED_ATTRIBUTES:
        return lambda state, object_id: getattr(state.objects[object_id], attribute)

    def unknown(state, object_id):
        raise UnknownAttributeError(attribute)

    return unknown


def validate_world(state: WorldState) -> list[str]:
    """Return a description of every violated invariant (empty when valid)."""
    violations: list[str] = []

    for object_id, info in state.objects.items():
        for attr, dependency in _ATTRIBUTE_DEPENDENCIES.items():
            if getattr(info, attr) and not getattr(info, dependency):
                violations.append(f"{object_id}: {attr} without {dependency}")
        for other in info.controls:
            if other not in state.objects:
                violations.append(f"{object_id}: controls unknown object {other}")

    for child, parent in state.containment.items():
        if child not in state.objects:
            violations.append(f"containment child {child} does not exist")
        if parent not in state.objects:
            violations.append(f"containment parent {parent} does not exist")
        elif not state.objects[parent].receptacle:
            violations.append(f"{parent}: containment parent without receptacle")

    # Each containment cycle once, from its first member in map order: an
    # object is on a cycle when its ancestor chain comes back to it.
    in_reported_cycle: set[str] = set()
    for start in state.containment:
        chain = state.ancestors_of(start)
        if chain[-1] == start and start not in in_reported_cycle:
            in_reported_cycle.update(chain)
            violations.append("containment cycle: " + " -> ".join([start] + chain))

    agent = state.agent
    if agent.held_object is not None:
        if agent.held_object not in state.objects:
            violations.append(f"agent: held object {agent.held_object} does not exist")
        else:
            if not state.objects[agent.held_object].isPickedUp:
                violations.append(f"{agent.held_object}: held but isPickedUp is false")
            if agent.held_object in state.containment:
                violations.append(f"{agent.held_object}: held object has a containment parent")

    for field, ids in (("discovered", state.discovered), ("visible", state.visible)):
        for object_id in sorted(ids - state.objects.keys()):
            violations.append(f"{field} id {object_id} does not exist")

    for object_id, info in state.objects.items():
        if info.zone is None and agent.held_object != object_id:
            violations.append(f"{object_id}: no zone but not held by the agent")
        if info.isPickedUp and agent.held_object != object_id:
            violations.append(f"{object_id}: isPickedUp but not held by the agent")

    return violations


# ---------------------------------------------------------------------------
# World fixture files


_WORLD_FIELDS = {"objects": (dict, dict), "containment": (list, list), "agent": dict}
_WORLD_OPTIONAL = {"discovered": (list, str), "nav_faults": (list, int)}
_OBJECT_OPTIONAL = {"zone": str | None, "attributes": dict, "conspicuous": bool,
                    "heat_source": bool, "display_id": str | None, "controls": (list, str)}
_ATTRIBUTE_OPTIONAL = dict.fromkeys(ATTRIBUTE_NAMES, bool)  # a "visible" key is ignored
_AGENT_FIELDS = {"zone": str, "seed": int}
_AGENT_OPTIONAL = {"holding": str | None}


def world_from_dict(data: dict) -> WorldState:
    """Build a world from fixture data, rejecting unknown keys and computing visibility."""
    check_fields(data, "", _WORLD_FIELDS, _WORLD_OPTIONAL)

    objects: dict[str, ObjectInfo] = {}
    for object_id, entry in data["objects"].items():
        category_of(object_id)
        check_fields(entry, object_id, optional=_OBJECT_OPTIONAL)
        attributes = check_fields(entry.get("attributes", {}), f"{object_id}: attributes",
                                  optional=_ATTRIBUTE_OPTIONAL)
        objects[object_id] = ObjectInfo(
            zone=entry.get("zone"),
            **{name: value for name, value in attributes.items() if name != "visible"},
            conspicuous=entry.get("conspicuous", False),
            heat_source=entry.get("heat_source", False),
            display_id=entry.get("display_id"),
            controls=tuple(entry.get("controls", ())),
        )

    containment: dict[str, str] = {}
    for edge in data["containment"]:
        if not (len(edge) == 2 and all(isinstance(end, str) for end in edge)):
            raise InputFormatError(f"containment edge must be [child, parent]: {edge!r}")
        child, parent = edge
        if child in containment:
            raise InputFormatError(f"{child}: more than one containment parent")
        containment[child] = parent

    agent = check_fields(data["agent"], "agent", _AGENT_FIELDS, _AGENT_OPTIONAL)
    state = WorldState(
        objects=objects,
        containment=containment,
        agent=AgentState(agent["zone"], agent["seed"], held_object=agent.get("holding")),
        discovered=frozenset(data.get("discovered", ())),
        nav_faults=frozenset(data.get("nav_faults", ())),
    )
    problems = validate_world(state)
    if problems:
        raise InputFormatError("invalid world fixture: " + "; ".join(problems))
    return refresh_visibility(state)


def load_world(path) -> WorldState:
    """A world from a fixture file, given by path or as a file of DATA."""
    return world_from_dict(read_input(path))
