"""The benchmark's tracer wraps homeplan layers by module and name; these
tests keep those names resolving, and keep the traced layers on the call
path, so that a refactor which hides one fails here and not only in a
traced benchmark run. The same holds for the step clock of planning
episodes, which wraps the agent's execute binding. bench/tracer.py and
bench/run.py are loaded by path and only read."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import homeplan.agent
import homeplan.sim
from homeplan.agent import AgentConfig, run_episode
from homeplan.mcts import PlannerConfig
from homeplan.sim import GoalAtom, refresh_visibility

from .conftest import make_object, make_world
from .test_agent import pickup_world, simple_task, tomato_planner_script

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
TRACER_PATH = BENCH_DIR / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("homeplan_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_homeplan_layer_resolves(tracer_module):
    entries = tracer_module.FUNCTIONS + tracer_module.METHODS + tracer_module.SETUP_FUNCTIONS
    homeplan_entries = [entry for entry in entries if entry[0].startswith("homeplan")]
    assert homeplan_entries
    for path, attribute, name in homeplan_entries:
        module_name, _, class_name = path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(owner.__dict__.get(attribute)), f"{name}: {path}.{attribute} is gone"


def test_a_rejected_execute_calls_the_traced_grounding_layers(tracer_module):
    layers = [entry for entry in tracer_module.FUNCTIONS if entry[0] == "homeplan.grounding"]
    assert {name for _, _, name in layers} == {"grounding.evaluate", "grounding.unsatisfied"}
    world = refresh_visibility(
        make_world({"Box_1": make_object(receptacle=True)}, discovered={"Box_1"})
    )
    tracer = tracer_module.Tracer(record_spans=False)
    tracer.install(functions=layers, methods=())
    try:
        _, observation = homeplan.sim.execute(
            world, "Pick Up Object", {"object_id": "Box_1"}, True
        )
    finally:
        tracer.restore()
    assert not observation.success
    counts = tracer.layers()
    assert counts["grounding.evaluate"]["calls"] == 1
    assert counts["grounding.unsatisfied"]["calls"] == 1


def test_the_planning_step_clock_stamps_each_committed_action_once(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("homeplan_bench_run", BENCH_DIR / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench_run)  # its dataclasses look it up
    spec.loader.exec_module(bench_run)
    stamps = []
    factory = SimpleNamespace(current=lambda: SimpleNamespace(stamps=stamps))
    clock = SimpleNamespace(now=lambda: len(stamps))
    original = homeplan.agent.execute
    # The tomato is never cooked, so the episode runs its whole budget, and
    # the planner simulates more actions than the agent commits.
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isCooked", value=True)], max_steps=4
    )
    config = AgentConfig(mode="react+mcts", planner=PlannerConfig(expansion_budget=3))
    unstamp = bench_run.stamp_commits(factory, clock)
    try:
        record = run_episode(task, config, tomato_planner_script(), pickup_world())
    finally:
        unstamp()
    assert homeplan.agent.execute is original
    assert [step.action for step in record.steps] == [
        "Pick Up Object", "Place Object", "Place Object", "Place Object"
    ]
    assert stamps == [0, 1, 2, 3]
