"""The built-in tool library: specs, preconditions, and effect primitives.

Each tool is described once, by its ActionSpec: the expert ground-truth
precondition (loaded from the shipped labeled-pairs fixture so the
verification layer and the comparison harness can never drift apart), an
ordered list of effect primitives the simulator interprets, the text it
reports on success and the skill category step-wise reports count it under.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .errors import UnknownToolError
from .formula import Formula, parse_precondition

# Effect primitives. target refs are resolved when an action is applied:
# "target" is the bound ?x object, "held" the object in the agent's hand.
# A reporting primitive carries the success text of its tool; the simulator
# fills in what the effect found.


@dataclass(frozen=True)
class SetAttribute:
    ref: str
    attribute: str
    value: bool


@dataclass(frozen=True)
class InsertContainment:
    child_ref: str = "held"
    parent_ref: str = "target"


@dataclass(frozen=True)
class RemoveContainment:
    ref: str = "target"


@dataclass(frozen=True)
class SetHolding:
    ref: str | None = None  # "target" to grab, None to release


@dataclass(frozen=True)
class RevealContents:
    report: str  # "{}" receives the repr of the revealed children
    ref: str = "target"


@dataclass(frozen=True)
class DiscoverSweep:
    """Walk to the next zone in the seeded order, surveying the room."""

    found: str  # reported when the sweep discovered a new object
    nothing_new: str


@dataclass(frozen=True)
class ListDiscovered:
    report: str  # "{}" receives the repr of the sorted discovered ids


@dataclass(frozen=True)
class DescribeRelations:
    """Report the target's parent and the objects it controls."""

    report: str  # "{parents}" and "{controls}": a repr'd list or "None"
    ref: str = "target"


@dataclass(frozen=True)
class MoveAgentTo:
    ref: str = "target"


@dataclass(frozen=True)
class CookContents:
    ref: str = "target"


EffectPrimitive = (
    SetAttribute
    | InsertContainment
    | RemoveContainment
    | SetHolding
    | RevealContents
    | DiscoverSweep
    | ListDiscovered
    | DescribeRelations
    | MoveAgentTo
    | CookContents
)


@dataclass(frozen=True)
class ActionSpec:
    """One tool: prompt-facing description, schema, precondition, effects,
    success text and skill category."""

    name: str
    description: str
    param_schema: tuple[tuple[str, str], ...]
    precondition: Formula | None  # None means trivially true
    effects: tuple[EffectPrimitive, ...]
    skill: str  # locate | move | perceive | manipulate | place
    success: str | None = None  # None: a reporting effect writes the text
    requires_discovered: bool = False  # world-level check outside the formula

    @property
    def takes_target(self) -> bool:
        return any(name == "object_id" for name, _ in self.param_schema)


class ToolLibrary:
    """Ordered collection of uniquely named ActionSpecs."""

    def __init__(self, specs: list[ActionSpec]):
        self.specs = list(specs)
        self._by_name = {}
        for spec in specs:
            if spec.name in self._by_name:
                raise ValueError(f"duplicate tool name: {spec.name!r}")
            self._by_name[spec.name] = spec

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> ActionSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownToolError(name) from None

    def names(self) -> list[str]:
        return [spec.name for spec in self.specs]

    def describe(self) -> str:
        """The {tools} prompt slot: one "name: description" line per tool."""
        return "\n".join(f"{spec.name}: {spec.description}" for spec in self.specs)


def load_precondition_pairs(path: str | Path | None = None) -> dict:
    """Raw labeled-pairs fixture (generated/ground-truth text per tool)."""
    if path is None:
        text = (
            resources.files("homeplan.data")
            .joinpath("preconditions/labeled_pairs.json")
            .read_text("utf-8")
        )
    else:
        text = Path(path).read_text("utf-8")
    return json.loads(text)


_OBJECT_PARAM: tuple[tuple[str, str], ...] = (("object_id", "object"),)


@lru_cache(maxsize=1)
def builtin_tool_library() -> ToolLibrary:
    """The thirteen built-in tools with ground-truth preconditions."""
    pairs = load_precondition_pairs()["tools"]
    gt = {name: parse_precondition(entry["ground_truth"]) for name, entry in pairs.items()}

    specs = [
        ActionSpec(
            name="Pick Up Object",
            description=(
                "Pick up a target object specified by object id and hold it. "
                "Input format in JSON: {'object_id': 'Apple_1'}."
            ),
            param_schema=_OBJECT_PARAM,
            precondition=gt["Pick Up Object"],
            effects=(
                RemoveContainment("target"),
                SetAttribute("target", "isPickedUp", True),
                SetHolding("target"),
            ),
            skill="manipulate",
            success="Target object was picked up!",
        ),
        ActionSpec(
            name="Place Object",
            description=(
                "Place the currently held object inside or on a target receptacle "
                "specified by object id. Input format in JSON: {'object_id': 'CounterTop_1'}."
            ),
            param_schema=_OBJECT_PARAM,
            precondition=gt["Place Object"],
            effects=(
                SetHolding(None),
                SetAttribute("held", "isPickedUp", False),
                InsertContainment("held", "target"),
            ),
            skill="place",
            success="Held object was successfully placed in target object!",
        ),
        ActionSpec(
            name="Open Object",
            description=(
                "Open a target object specified by object id. "
                "Input format in JSON: {'object_id': 'Cabinet_4'}."
            ),
            param_schema=_OBJECT_PARAM,
            precondition=gt["Open Object"],
            effects=(SetAttribute("target", "isOpen", True),),
            skill="manipulate",
            success="Target object was opened!",
        ),
        ActionSpec(
            name="Close Object",
            description=(
                "Close a target object specified by object id. "
                "Input format in JSON: {'object_id': 'Cabinet_4'}."
            ),
            param_schema=_OBJECT_PARAM,
            precondition=gt["Close Object"],
            effects=(SetAttribute("target", "isOpen", False),),
            skill="manipulate",
            success="Target object was closed!",
        ),
        ActionSpec(
            name="Toggle Object On",
            description=(
                "Toggle a target object on, specified by object id. "
                "Input format in JSON: {'object_id': 'Faucet_1'}."
            ),
            param_schema=_OBJECT_PARAM,
            precondition=gt["Toggle Object On"],
            effects=(
                SetAttribute("target", "isToggled", True),
                CookContents("target"),
            ),
            skill="manipulate",
            success="Target object was toggled on!",
        ),
        ActionSpec(
            name="Toggle Object Off",
            description=(
                "Toggle a target object off, specified by object id. "
                "Input format in JSON: {'object_id': 'Faucet_1'}."
            ),
            param_schema=_OBJECT_PARAM,
            precondition=gt["Toggle Object Off"],
            effects=(SetAttribute("target", "isToggled", False),),
            skill="manipulate",
            success="Target object was toggled off!",
        ),
        ActionSpec(
            name="Search Object",
            description=(
                "Return a list of all items inside or on a target object specified by "
                "object id. Input format in JSON: {'object_id': 'Cabinet_4'}."
            ),
            param_schema=_OBJECT_PARAM,
            precondition=gt["Search Object"],
            effects=(
                RevealContents(
                    "Here is a list of objects found inside or on the target receptacle: {!r}"
                ),
            ),
            skill="perceive",
        ),
        ActionSpec(
            name="Fill Held Object With Water",
            description=(
                "Fill the currently held object with water from a toggled-on water "
                "source. Input format in JSON: {'input': None}."
            ),
            param_schema=(),
            precondition=gt["Fill Held Object With Water"],
            effects=(SetAttribute("held", "isFilledWithLiquid", True),),
            skill="manipulate",
            success="Held object was successfully filled with water!",
        ),
        ActionSpec(
            name="Pour Water Into",
            description=(
                "Pour water from the held object into a target object specified by "
                "object id. Input format in JSON: {'object_id': 'Vase_1'}."
            ),
            param_schema=_OBJECT_PARAM,
            precondition=gt["Pour Water Into"],
            effects=(
                SetAttribute("held", "isFilledWithLiquid", False),
                SetAttribute("target", "isFilledWithLiquid", True),
            ),
            skill="manipulate",
            success="Water was successfully poured into the target object!",
        ),
        ActionSpec(
            name="Randomly Explore",
            description=(
                "Move around the environment to discover new objects. "
                "Input format in JSON: {'input': None}."
            ),
            param_schema=(),
            precondition=None,
            effects=(
                DiscoverSweep(
                    found="New objects discovered!", nothing_new="No new objects discovered."
                ),
            ),
            skill="locate",
        ),
        ActionSpec(
            name="Get Discovered Objects",
            description=(
                "Return a list of the object IDs of all discovered objects. "
                "Input format in JSON: {'input': None}."
            ),
            param_schema=(),
            precondition=None,
            effects=(
                ListDiscovered(
                    "Here is a list of the object ID's of all of the discovered objects: {!r}"
                ),
            ),
            skill="perceive",
        ),
        ActionSpec(
            name="Inspect Object",
            description=(
                "Report what a target object is inside or on top of and what it "
                "controls. Input format in JSON: {'object_id': 'Cabinet_4'}."
            ),
            param_schema=_OBJECT_PARAM,
            precondition=None,
            effects=(
                DescribeRelations(
                    "The queried object is currently inside or on top of the following "
                    "objects: {parents}.\n"
                    # "quried"/"controls" phrasing matches the transcript fixtures. [sic]
                    "The quried objects currently controls the following objects: {controls}."
                ),
            ),
            skill="perceive",
        ),
        ActionSpec(
            name="Adjust Positioning",
            description=(
                "Readjust position relative to a target object so that it can be "
                "interacted with. Input format in JSON: {'object_id': 'Cabinet_4'}."
            ),
            param_schema=_OBJECT_PARAM,
            precondition=None,
            effects=(MoveAgentTo("target"),),
            skill="move",
            success="Readjusted position relative to target object!",
            requires_discovered=True,
        ),
    ]
    return ToolLibrary(specs)
