"""Workload definitions shared by run.py and the set-up probe.

Each workload is a generated easy suite (``suite.generate_easy_suite``) with
task budgets replaced, an agent configuration, a worker count and a fixed
per-call model delay. ``use_checkout_sources()`` puts the checkout's
``src`` directory first on ``sys.path``, so that ``homeplan`` is always the
copy in this checkout, never an installed one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ALL_WORLDS = ("worlds/kitchen.json", "worlds/kitchen_b.json", "worlds/kitchen_c.json")


class MissingProgramError(RuntimeError):
    """The checkout does not hold the program's sources."""


def use_checkout_sources() -> None:
    """Make ``import homeplan`` resolve to ``<checkout>/src/homeplan``."""
    if not (SRC / "homeplan" / "__init__.py").is_file():
        raise MissingProgramError(f"no homeplan sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# Planner expansion budget of the planning workloads; react mode ignores it.
EXPANSION_BUDGET = 10


@dataclass(frozen=True)
class Workload:
    """One workload; why each exists is stated in BENCHMARK.json."""

    name: str
    mode: str  # AgentConfig.mode
    worlds: tuple[str, ...]
    tasks: int
    max_steps: int
    # Fixed per workload so that it means the same on every run; a pass
    # must leave at least ten step intervals beyond it. Lower percentiles
    # spread less across seeds.
    tail_percentile: float
    workers: int = 1
    delay_s: float = 0.0  # fixed stand-in model latency per call
    final_share: float = 0.005  # share of proposals that are a final answer
    focus_share: float = 0.5  # share of named objects that are the task's own

    @property
    def planning(self) -> bool:
        return self.mode == "react+mcts"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="react-suite",
            mode="react",
            worlds=ALL_WORLDS,
            tasks=30,
            max_steps=50,
            tail_percentile=95.0,
        ),
        Workload(
            name="react-long",
            mode="react",
            worlds=("worlds/kitchen.json",),
            tasks=2,
            max_steps=200,
            # A final answer ends a react episode and task-focused proposals
            # soon reach the goal; neither here, so episodes run long enough
            # for the history to pass the scratchpad budget.
            final_share=0.0,
            focus_share=0.0,
            tail_percentile=97.0,
        ),
        Workload(
            name="mcts-suite",
            mode="react+mcts",
            worlds=ALL_WORLDS,
            # A decision's cost depends much on its task; 60 tasks keep the
            # tail from hanging on a few of them.
            tasks=60,
            max_steps=10,
            tail_percentile=90.0,
        ),
        Workload(
            name="mcts-remote",
            mode="react+mcts",
            worlds=ALL_WORLDS,
            tasks=24,
            max_steps=5,
            workers=2,
            delay_s=0.010,
            tail_percentile=85.0,
        ),
    )
}


def build_suite(workload: Workload, seed: int):
    """The generated suite for one workload and seed, budgets replaced.

    The generator can emit a task whose goal already holds in the initial
    world (a destination that already contains the target, such as the
    floor under its table); such an episode does no work. Tasks are drawn
    from a longer generated suite, the same number from each world, skipping
    those. Returns the suite and the number of tasks skipped.
    """
    from homeplan.sim import check_goal
    from homeplan.suite import generate_easy_suite, resolve_world

    per_world = workload.tasks // len(workload.worlds)
    worlds = {ref: resolve_world(ref) for ref in workload.worlds}
    generated = generate_easy_suite(seed, 4 * workload.tasks, list(workload.worlds),
                                    name=workload.name)
    kept: list = []
    skipped = 0
    for task in generated.tasks:
        if sum(t.world == task.world for t in kept) == per_world:
            continue
        if check_goal(worlds[task.world], task):
            skipped += 1
            continue
        kept.append(replace(task, max_steps=workload.max_steps))
    if len(kept) != workload.tasks:
        raise RuntimeError(f"{workload.name}: only {len(kept)} tasks whose goal is not "
                           f"already met among {len(generated.tasks)} generated")
    return replace(generated, tasks=tuple(kept)), skipped


def build_config(workload: Workload):
    from homeplan.agent import AgentConfig
    from homeplan.mcts import PlannerConfig

    return AgentConfig(
        mode=workload.mode,
        grounding_enabled=True,
        planner=PlannerConfig(expansion_budget=EXPANSION_BUDGET),
    )
