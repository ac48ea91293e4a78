"""Closed-loop episode executor.

Two modes: plain reactive stepping (one completion per step) and tree-search
planning (one planner per episode, a full planning call per step, executing
the robust child). Either way the simulator enforces physical legality;
``grounding_enabled`` decides whether failures come back explained or as
bare execution errors. Success is judged by the harness against the task
goal after every step; an agent's own final answer never counts as success
by itself.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    BackendUnavailableError,
    MalformedArgsError,
    MalformedCompletionError,
    NoFeasibleActionError,
    ScriptExhaustedError,
    ScriptMismatchError,
    UnknownToolError,
)
from .grounding import MessageTable
from .llm import (
    FinalAnswer,
    LlmBackend,
    ReactStep,
    format_step,
    load_template,
    parse_react,
    render_prompt,
)
from .mcts import MctsPlanner, PlannerConfig
from .sim import FAIL_PREFIX, TaskSpec, check_goal, execute, refresh_visibility
from .tools import ToolLibrary, builtin_tool_library
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
    temperature: float = 0.7
    scratchpad_char_budget: int = 24000
    planner: PlannerConfig = field(default_factory=PlannerConfig)
    keep_planner_traces: bool = False
    template_dir: str | None = None  # prompt-template override directory

    def __post_init__(self):
        if self.mode not in ("react", "react+mcts"):
            raise ValueError(f"unknown agent mode: {self.mode!r}")

    def label(self) -> str:
        grounding = "on" if self.grounding_enabled else "off"
        return f"{self.mode}/grounding-{grounding}"


@dataclass(frozen=True)
class StepRecord:
    thought: str
    action: str | None
    args: dict | str | None
    observation: str

    @cached_property
    def rendered(self) -> str:
        """Scratchpad text of this step; rendered once, on first use."""
        return _render_step(self)

    def to_dict(self) -> dict:
        return {
            "thought": self.thought,
            "action": self.action,
            "args": _json_args(self.args),
            "observation": self.observation,
        }


def _json_args(args: dict | str | None) -> dict | str | None:
    """Args as a JSON report can hold them: a parsed dict that JSON cannot
    encode (a set value, a tuple key) is kept as its repr, the text the
    scratchpad shows for it."""
    if isinstance(args, dict):
        try:
            json.dumps(args)
        except (TypeError, ValueError):
            return repr(args)
    return args


@dataclass
class EpisodeRecord:
    task_id: str
    config_label: str
    steps: list[StepRecord]
    outcome: str
    success: bool
    llm_call_count: int
    final_answer: str | None = None
    error: str | None = None
    wall_clock: float = 0.0
    planner_traces: list[list[dict]] = field(default_factory=list)

    def to_dict(self, include_volatile: bool = False) -> dict:
        data = {
            "task_id": self.task_id,
            "config": self.config_label,
            "outcome": self.outcome,
            "success": self.success,
            "llm_call_count": self.llm_call_count,
            "final_answer": self.final_answer,
            "error": self.error,
            "steps": [step.to_dict() for step in self.steps],
        }
        if include_volatile:
            data["wall_clock"] = self.wall_clock
        return data

    def serialize(self) -> str:
        """Canonical form for diff tests; volatile timing is excluded."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=False, ensure_ascii=False)


def _render_step(step: StepRecord) -> str:
    if step.action is None:
        return f"Observation: {step.observation}\n"
    return format_step(
        ReactStep(
            thought=step.thought,
            action=step.action,
            action_input=step.args,
            observation=step.observation,
        )
    )


def build_scratchpad(steps: list[StepRecord], char_budget: int = 24000) -> str:
    """Full history rendering, truncated oldest-first to the budget; the
    newest step is kept even when it alone is over budget."""
    parts = [step.rendered for step in steps]
    length = sum(len(part) for part in parts)
    start = 0
    while length > char_budget and start < len(parts) - 1:
        length -= len(parts[start])
        start += 1
    return "".join(parts[start:])


def _react_decide(
    backend: LlmBackend,
    task: TaskSpec,
    steps: list[StepRecord],
    config: AgentConfig,
    library: ToolLibrary,
    template,
) -> ReactStep | FinalAnswer:
    prompt = render_prompt(
        template,
        {
            "tools": library.describe(),
            "tool_names": ", ".join(library.names()),
            "input": task.instruction,
            "agent_scratchpad": build_scratchpad(steps, config.scratchpad_char_budget),
        },
    )
    completion = backend.complete(prompt, temperature=config.temperature)
    return parse_react(completion, library)


def run_episode(
    task: TaskSpec,
    config: AgentConfig,
    backend: LlmBackend,
    world: WorldState,
    library: ToolLibrary | None = None,
    messages: MessageTable | None = None,
) -> EpisodeRecord:
    lib = library if library is not None else builtin_tool_library()
    if config.mode == "react":
        template = load_template("expansion", directory=config.template_dir)
    else:
        planner = MctsPlanner(
            backend,
            config=config.planner,
            library=lib,
            messages=messages,
            grounding_enabled=config.grounding_enabled,
            template_dir=config.template_dir,
        )
    state = refresh_visibility(world)
    steps: list[StepRecord] = []
    llm_calls = 0
    planner_traces: list[list[dict]] = []
    started = time.perf_counter()

    def record(outcome, success, final_answer=None, error=None) -> EpisodeRecord:
        return EpisodeRecord(
            task_id=task.id,
            config_label=config.label(),
            steps=steps,
            outcome=outcome,
            success=success,
            llm_call_count=llm_calls,
            final_answer=final_answer,
            error=error,
            wall_clock=time.perf_counter() - started,
            planner_traces=planner_traces if config.keep_planner_traces else [],
        )

    if check_goal(state, task):
        return record(OUTCOME_SUCCESS, True)

    budget = task.max_steps
    if config.step_cap is not None:
        budget = min(budget, config.step_cap)
    for _ in range(budget):
        try:
            if config.mode == "react":
                try:
                    decision = _react_decide(backend, task, steps, config, lib, template)
                    llm_calls += 1
                except MalformedCompletionError:
                    llm_calls += 1
                    steps.append(
                        StepRecord(
                            thought="",
                            action=None,
                            args=None,
                            observation=f"{FAIL_PREFIX}could not parse a valid action",
                        )
                    )
                    continue
                except UnknownToolError as exc:
                    llm_calls += 1
                    step = exc.step
                    steps.append(
                        StepRecord(
                            thought=step.thought if step else "",
                            action=exc.name,
                            args=step.action_input if step else None,
                            observation=f"{FAIL_PREFIX}unknown tool {exc.name!r}",
                        )
                    )
                    continue
            else:
                history = build_scratchpad(steps, config.scratchpad_char_budget)
                try:
                    result = planner.plan(state, task.instruction, history=history)
                except NoFeasibleActionError as exc:
                    llm_calls += planner.llm_calls
                    return record(OUTCOME_FAILURE, False, error=str(exc))
                llm_calls += result.llm_calls
                if config.keep_planner_traces:
                    planner_traces.append(result.trace)
                if result.final_answer is not None:
                    decision = FinalAnswer(result.final_answer)
                else:
                    decision = ReactStep(
                        thought=result.thought,
                        action=result.action,
                        action_input=result.args,
                    )
        except (BackendUnavailableError, ScriptExhaustedError, ScriptMismatchError) as exc:
            return record(OUTCOME_FAILURE, False, error=str(exc))

        if isinstance(decision, FinalAnswer):
            success = check_goal(state, task)
            outcome = OUTCOME_SUCCESS if success else OUTCOME_DECLARED
            return record(outcome, success, final_answer=decision.text)

        args = decision.action_input if isinstance(decision.action_input, dict) else None
        try:
            state, observation = execute(
                state,
                decision.action,
                args,
                config.grounding_enabled,
                library=lib,
                messages=messages,
            )
            observation_text = observation.message
        except MalformedArgsError:
            observation_text = f"{FAIL_PREFIX}malformed action input"
        except UnknownToolError as exc:
            observation_text = f"{FAIL_PREFIX}unknown tool {exc.name!r}"
        steps.append(
            StepRecord(
                thought=decision.thought,
                action=decision.action,
                args=decision.action_input,
                observation=observation_text,
            )
        )
        if check_goal(state, task):
            return record(OUTCOME_SUCCESS, True)

    return record(OUTCOME_BUDGET, False)
