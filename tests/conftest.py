from importlib import resources
from pathlib import Path

import pytest
from hypothesis import settings

from homeplan.llm import ScriptedBackend
from homeplan.world import (
    AgentState,
    ObjectInfo,
    WorldState,
)


# CI runs the tests marked five_times once more under this profile
# (pytest --hypothesis-profile=five-times -m five_times): five times the
# examples of the default profile, and of each count that examples() scales.
_DEFAULT_EXAMPLES = settings.get_profile("default").max_examples
settings.register_profile("five-times", max_examples=5 * _DEFAULT_EXAMPLES)


def examples(count: int) -> int:
    """A test's own example count, scaled as the loaded profile scales the default's."""
    return count * settings.default.max_examples // _DEFAULT_EXAMPLES


def data_path(relative: str) -> Path:
    return Path(resources.files("homeplan.data").joinpath(relative))


class RecordingBackend(ScriptedBackend):
    """A scripted backend that keeps every prompt it is asked to complete,
    the one that exhausts its script included."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prompts: list[str] = []

    @property
    def call_count(self) -> int:
        return len(self.prompts)

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        self.prompts.append(prompt)
        return super().complete(prompt, temperature)


def make_object(zone="kitchen", **attrs) -> ObjectInfo:
    return ObjectInfo(zone=zone, **attrs)


def make_world(objects, containment=None, agent_zone="kitchen", seed=7, holding=None,
               discovered=(), visible=(), nav_faults=()):
    """A world built as given: visible is taken as it stands, not computed."""
    agent = AgentState(current_zone=agent_zone, rng_seed=seed, held_object=holding)
    return WorldState(
        objects=objects,
        containment=dict(containment or {}),
        agent=agent,
        discovered=frozenset(discovered),
        visible=frozenset(visible),
        nav_faults=frozenset(nav_faults),
    )


@pytest.fixture
def kitchen_world():
    from homeplan.world import load_world

    return load_world(data_path("worlds/kitchen.json"))


@pytest.fixture
def clear_table_trace():
    from homeplan.sim import load_trace

    return load_trace(data_path("traces/clear_table.json"))


@pytest.fixture
def clear_table_task():
    from homeplan.sim import load_task

    return load_task(data_path("tasks/clear_table.json"))
