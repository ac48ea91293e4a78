"""Closed-loop episode executor.

Two modes: plain reactive stepping (one proposal per step) and tree-search
planning (a full planning call per step, executing the robust child). Both
make their model calls through the episode's one ``MctsPlanner``, which
counts them, and both decide with a parsed proposal (a ``ReactStep`` or a
``FinalAnswer``), which the episode commits one way. Either way the
simulator enforces physical legality; ``grounding_enabled`` decides whether
a committed call that fails comes back explained or as a bare execution
error (the planner's simulated proposals are never explained). The harness
judges success against the task goal at the start and after each successful
action (a failed call changes nothing a goal reads); an agent's own final
answer never counts as success by itself. Each decision shows the model the
episode's history through a ``Scratchpad``, a window over the newest steps
kept across decisions, so a decision's history costs the steps that entered
and left the window.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field

from .errors import (
    MalformedArgsError,
    MalformedCompletionError,
    NoFeasibleActionError,
    UnknownToolError,
)
from .grounding import MessageTable
from .llm import FinalAnswer, LlmBackend, StepRecord
from .mcts import MctsPlanner, PlannerConfig
from .sim import (
    SUCCESS_PREFIX,
    UNPARSED_ACTION,
    TaskSpec,
    call_args,
    check_goal,
    execute,
    rejected_call,
)
from .world import WorldState

OUTCOME_SUCCESS = "success"
OUTCOME_FAILURE = "failure"
OUTCOME_BUDGET = "step-budget-exhausted"
OUTCOME_DECLARED = "agent-declared-final"


@dataclass
class AgentConfig:
    mode: str = "react"  # "react" | "react+mcts"
    grounding_enabled: bool = True
    step_cap: int | None = None  # harness-imposed ceiling on any task's budget
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    template_dir: str | None = None  # prompt-template override directory

    def __post_init__(self):
        if self.mode not in ("react", "react+mcts"):
            raise ValueError(f"unknown agent mode: {self.mode!r}")
        if self.step_cap is not None and self.step_cap < 1:
            raise ValueError("step cap must be at least 1")

    def label(self) -> str:
        grounding = "on" if self.grounding_enabled else "off"
        return f"{self.mode}/grounding-{grounding}"


@dataclass
class EpisodeRecord:
    task_id: str
    config_label: str
    steps: list[StepRecord]
    outcome: str
    llm_call_count: int
    final_answer: str | None = None
    error: str | None = None
    wall_clock: float = 0.0

    @property
    def success(self) -> bool:
        return self.outcome == OUTCOME_SUCCESS

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "config": self.config_label,
            "outcome": self.outcome,
            "success": self.success,
            "llm_call_count": self.llm_call_count,
            "final_answer": self.final_answer,
            "error": self.error,
            "steps": [step.to_dict() for step in self.steps],
        }

    def serialize(self) -> str:
        """Canonical form for diff tests; volatile timing is excluded."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=False, ensure_ascii=False)

    def report_entry(self, episode_id: str, difficulty: str) -> dict:
        """The metrics report's entry for this episode: its outcome, its
        counts, and each parsed action with whether the simulator accepted it."""
        return {
            "id": episode_id,
            "difficulty": difficulty,
            "outcome": self.outcome,
            "success": self.success,
            "steps": len(self.steps),
            "llm_calls": self.llm_call_count,
            "actions": [
                {"action": step.action, "ok": step.observation.startswith(SUCCESS_PREFIX)}
                for step in self.steps
                if step.action is not None
            ],
        }


class Scratchpad:
    """One episode's scratchpad window, kept across its decisions: the
    renderings of its newest steps, their total length, and how many of
    the episode's steps it has taken in."""

    def __init__(self, char_budget: int = 24000):
        self.char_budget = char_budget
        self.parts: deque[str] = deque()
        self.length = 0
        self.taken = 0


def build_scratchpad(steps: list[StepRecord], pad: Scratchpad) -> str:
    """Full history rendering, truncated oldest-first to the pad's budget;
    the newest step is kept even when it alone is over budget. ``pad`` holds
    the window of an earlier prefix of ``steps``: this takes in the steps
    added since and drops parts from the left while over budget. A longer
    history never fits from an earlier start, so the window only moves right."""
    parts = pad.parts
    for step in steps[pad.taken:]:
        parts.append(step.rendered)
        pad.length += len(parts[-1])
    pad.taken = len(steps)
    while pad.length > pad.char_budget and len(parts) > 1:
        pad.length -= len(parts.popleft())
    return "".join(parts)


def run_episode(
    task: TaskSpec,
    config: AgentConfig,
    backend: LlmBackend,
    world: WorldState,
    messages: MessageTable | None = None,
) -> EpisodeRecord:
    """Run one task to an outcome. A fault of the backend or its script
    propagates, for the caller to report; a planner that produced nothing
    to act on ends the episode as a failure with its error."""
    planner = MctsPlanner(backend, config=config.planner, template_dir=config.template_dir)
    state = world
    steps: list[StepRecord] = []
    pad = Scratchpad()
    started = time.perf_counter()

    def record(outcome, final_answer=None, error=None) -> EpisodeRecord:
        return EpisodeRecord(
            task_id=task.id,
            config_label=config.label(),
            steps=steps,
            outcome=outcome,
            llm_call_count=planner.llm_calls,
            final_answer=final_answer,
            error=error,
            wall_clock=time.perf_counter() - started,
        )

    if check_goal(state, task):
        return record(OUTCOME_SUCCESS)

    budget = task.max_steps
    if config.step_cap is not None:
        budget = min(budget, config.step_cap)
    for _ in range(budget):
        history = build_scratchpad(steps, pad)
        if config.mode == "react":
            try:
                decision = planner.propose(planner.expansion_prompt(task.instruction, history))
            except MalformedCompletionError:
                steps.append(StepRecord("", None, None, UNPARSED_ACTION))
                continue
        else:
            try:
                decision = planner.plan(state, task.instruction, history=history)
            except NoFeasibleActionError as exc:
                return record(OUTCOME_FAILURE, error=str(exc))

        # The goal was checked at the start and after each successful
        # action, so a final answer cannot find it met.
        if isinstance(decision, FinalAnswer):
            return record(OUTCOME_DECLARED, final_answer=decision.text)

        try:
            state, observation = execute(state, decision.action, call_args(decision.action_input),
                                         config.grounding_enabled, messages=messages)
        except (MalformedArgsError, UnknownToolError) as exc:
            observation = rejected_call(exc)
        steps.append(StepRecord(decision.thought, decision.action, decision.action_input,
                                observation.message))
        if observation.success and check_goal(state, task):
            return record(OUTCOME_SUCCESS)

    return record(OUTCOME_BUDGET)
