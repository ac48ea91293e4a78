"""Shipped scripted scenarios: loading and running helpers for the tests.

Adversarial scenarios pair a world and task with a keyed completion script
whose recovery entries match on verification feedback text; they demonstrate
the grounded-feedback advantage. Planning scenarios script both expansion
proposals and critique scores to exercise the tree-search planner
deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from homeplan.agent import AgentConfig, EpisodeRecord, run_episode
from homeplan.llm import FinalAnswer, ReactStep, ScriptedBackend
from homeplan.mcts import MctsPlanner, PlannerConfig, SearchNode
from homeplan.sim import TaskSpec, task_from_dict
from homeplan.world import WorldState, world_from_dict


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str  # "adversarial" | "planning"
    world_data: dict
    task: TaskSpec
    script_data: dict
    planner_config: dict | None = None
    expectations: dict | None = None

    def world(self) -> WorldState:
        return world_from_dict(self.world_data)

    def backend(self) -> ScriptedBackend:
        return ScriptedBackend.from_dict(self.script_data)


def scenario_from_dict(data: dict) -> Scenario:
    return Scenario(
        name=data["name"],
        kind=data["kind"],
        world_data=data["world"],
        task=task_from_dict(data["task"]),
        script_data=data["script"],
        planner_config=data.get("planner"),
        expectations=data.get("expectations"),
    )


def load_scenario(path: str | Path) -> Scenario:
    with open(path, encoding="utf-8") as handle:
        return scenario_from_dict(json.load(handle))


def shipped_scenario_paths(kind: str) -> list[Path]:
    root = resources.files("homeplan.data").joinpath(f"scenarios/{kind}")
    return sorted(Path(str(root)).glob("*.json"))


def load_shipped_scenarios(kind: str) -> list[Scenario]:
    return [load_scenario(path) for path in shipped_scenario_paths(kind)]


def run_adversarial(scenario: Scenario, grounding_enabled: bool) -> EpisodeRecord:
    """One reactive episode against the scenario's script."""
    config = AgentConfig(mode="react", grounding_enabled=grounding_enabled)
    return run_episode(scenario.task, config, scenario.backend(), scenario.world())


def run_planning(scenario: Scenario, budget: int | None = None
                 ) -> tuple[ReactStep | FinalAnswer, SearchNode]:
    """One planning call on the scenario's start state: the proposal it
    chose and its tree."""
    overrides = dict(scenario.planner_config or {})
    if budget is not None:
        overrides["expansion_budget"] = budget
    planner = MctsPlanner(scenario.backend(), config=PlannerConfig(**overrides))
    return planner.plan(scenario.world(), scenario.task.instruction), planner.tree
