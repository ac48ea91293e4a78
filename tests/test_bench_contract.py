"""The benchmark's tracer wraps homeplan layers by module and name; these
tests keep those names resolving, and keep the traced layers on the call
path, so that a refactor which hides one fails here and not only in a
traced benchmark run. The same holds for the step clock of planning
episodes, which wraps the agent's execute binding, for every homeplan
name that a bench script imports, and for the config fields and suite
generator arguments that the workloads pass. bench/tracer.py, bench/run.py
and bench/workloads.py are loaded by path, and the other bench scripts are
only parsed."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import homeplan.agent
import homeplan.sim
from homeplan.agent import AgentConfig, run_episode
from homeplan.llm import ScriptedBackend
from homeplan.mcts import MctsPlanner, PlannerConfig
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


def test_every_traced_homeplan_layer_resolves(tracer_module, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # the stand-in model's entry
    entries = tracer_module.FUNCTIONS + tracer_module.METHODS + tracer_module.SETUP_FUNCTIONS
    assert any(entry[0].startswith("homeplan") for entry in entries)
    for path, attribute, name in entries:
        module_name, _, class_name = path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(owner.__dict__.get(attribute)), f"{name}: {path}.{attribute} is gone"


def _bench_homeplan_names():
    """(script, module, name) for each ``from homeplan... import name`` in a
    bench script, and for each ``alias.name`` read through an
    ``import homeplan.module as alias``."""
    for path in sorted(BENCH_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("homeplan"):
                for alias in node.names:
                    yield path.name, node.module, alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("homeplan"):
                        yield path.name, alias.name, None
                        if alias.asname:
                            aliases[alias.asname] = alias.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                yield path.name, aliases[node.value.id], node.attr


def test_every_homeplan_name_the_bench_imports_resolves():
    found = sorted(set(_bench_homeplan_names()), key=str)
    assert ("run.py", "homeplan.agent", "execute") in found
    assert ("run.py", "homeplan.sim", "refresh_visibility") in found
    for script, module_name, name in found:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name) or importlib.util.find_spec(f"{module_name}.{name}"), (
                f"bench/{script}: {module_name}.{name} is gone"
            )


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


def test_a_plan_with_refused_children_calls_no_unsatisfied(tracer_module):
    # The planner asks the simulator for its verdict alone: refusing a
    # proposal evaluates its precondition, explains nothing and, as
    # sim.simulate, counts no sim.execute call.
    layers = [entry for entry in tracer_module.FUNCTIONS
              if entry[0] == "homeplan.grounding" or entry[2] == "sim.execute"]
    world = refresh_visibility(
        make_world({"Box_1": make_object(receptacle=True)}, discovered={"Box_1"})
    )
    backend = ScriptedBackend.ordered([
        "Thought: t\nAction: Pick Up Object\nAction Input: {'object_id': 'Box_1'}",
        "Thought: t\nAction: Place Object\nAction Input: {'object_id': 'Box_1'}",
    ])
    planner = MctsPlanner(backend, PlannerConfig(expansion_budget=2, children_per_expansion=1))
    tracer = tracer_module.Tracer(record_spans=False)
    tracer.install(functions=layers, methods=())
    try:
        planner.plan(world, "tidy up")
    finally:
        tracer.restore()
    assert [child.failed for child in planner.tree.children] == [True, True]
    counts = tracer.layers()
    assert counts["grounding.evaluate"]["calls"] == 2
    assert counts["grounding.unsatisfied"]["calls"] == 0
    assert counts["sim.execute"]["calls"] == 0


def test_execute_refreshes_visibility_only_after_a_call_that_can_change_it(tracer_module):
    layers = [entry for entry in tracer_module.FUNCTIONS
              if entry[2] == "sim.refresh_visibility"]
    assert layers == [("homeplan.sim", "refresh_visibility", "sim.refresh_visibility")]
    state = refresh_visibility(make_world(
        {"Box_1": make_object(zone="a", receptacle=True), "Mug_1": make_object(zone="b")},
        agent_zone="b", discovered={"Box_1"},
    ))
    calls = [
        ("Get Discovered Objects", {"input": None}, True, 0),
        ("Pick Up Object", {"object_id": "Box_1"}, False, 0),
        ("Randomly Explore", {"input": None}, True, 1),
    ]
    for action, args, accepted, refreshes in calls:
        tracer = tracer_module.Tracer(record_spans=False)
        tracer.install(functions=layers, methods=())
        try:
            after, observation = homeplan.sim.execute(state, action, args, True)
        finally:
            tracer.restore()
        assert observation.success is accepted, action
        assert tracer.layers()["sim.refresh_visibility"]["calls"] == refreshes, action
        state = after
    assert state.agent.current_zone == "a"  # the exploration moved the agent
    assert state.visible == {"Box_1"}


def _load_bench_run(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))  # run.py imports its sibling modules
    spec = importlib.util.spec_from_file_location("homeplan_bench_run", BENCH_DIR / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, bench_run)  # its dataclasses look it up
    spec.loader.exec_module(bench_run)
    return bench_run


def test_the_planning_step_clock_stamps_each_committed_action_once(monkeypatch):
    bench_run = _load_bench_run(monkeypatch)
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


def test_every_workload_builds_its_config_and_suite(monkeypatch):
    spec = importlib.util.spec_from_file_location("homeplan_bench_workloads",
                                                  BENCH_DIR / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        config = workloads.build_config(workload)
        assert config.mode == workload.mode
        suite, _ = workloads.build_suite(workload, 1)
        assert len(suite.tasks) == workload.tasks
        assert {task.max_steps for task in suite.tasks} == {workload.max_steps}


# Seed-1 output digest of each workload's reference pass. The bench checks
# its timed passes only against the same run's reference pass, so a drift
# in these shows here first; each value moves only by a change that
# CHANGES.md explains.
WORKLOAD_DIGESTS = {
    "react-suite": "a0cce647d89e038d3331089c2f72fbbe0df9e9d392743bd00b3b9736b6651c70",
    "react-long": "3160c7c1032cf87e7717cf476b1e4c91208f6e2df61e32b28a10ec8be083993a",
    "mcts-suite": "2e0990aaf0a81149b641b59e2b94b33488bc9d5c76f24ee25f8f28d1d5073041",
    "mcts-remote": "adf9b38f3bc689d68ec19a8ee095f8260f7acd120194f55d68219b816c7cfa1f",
}


@pytest.mark.hash_seeds
@pytest.mark.five_times
def test_each_workload_reference_pass_matches_its_pinned_digest(monkeypatch):
    from homeplan.suite import resolve_world

    bench_run = _load_bench_run(monkeypatch)
    assert set(bench_run.WORKLOADS) == set(WORKLOAD_DIGESTS)
    digests = {}
    for name, workload in bench_run.WORKLOADS.items():
        suite, _ = bench_run.build_suite(workload, 1)
        config = bench_run.build_config(workload)
        object_ids = {ref: resolve_world(ref).object_ids() for ref in workload.worlds}
        reference = bench_run.run_pass(workload, suite, config, 1, object_ids,
                                       workers=1, delay_s=0.0, keep_outputs=True)
        assert not reference.errors
        # The bench's own re-execution check of the reference pass's outputs.
        assert bench_run.check_reference(suite, 1, reference) == [], name
        digests[name] = reference.digest
    assert digests == WORKLOAD_DIGESTS


@pytest.mark.hash_seeds
def test_the_simulator_canary_matches_its_pinned_digest(monkeypatch):
    # The bench's CANARY_DIGEST pins the simulator's observations for a fixed
    # stream of proposals on every shipped world, apart from any agent.
    assert _load_bench_run(monkeypatch).check_sim_canary() == []
