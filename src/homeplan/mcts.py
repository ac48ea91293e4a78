"""Tree-search planner: UCB1 selection, model-proposed expansion, critique
scoring, and mean-value backpropagation.

Instead of rollout simulation, a leaf's action path is scored by a language
model critique (1..10, normalized to [0, 1]). Proposed actions that fail
verification or name unknown tools stay in the tree as children carrying
their failure observation, but their first evaluation contributes a score
of zero without consuming a critique call. The executed action is the most
visited root child (robust-child rule).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    ExpansionFailedError,
    MalformedArgsError,
    MalformedCompletionError,
    NoFeasibleActionError,
    NoScoreError,
    ScoreOutOfRangeError,
    UnknownToolError,
)
from .grounding import MessageTable
from .llm import (
    FinalAnswer,
    LlmBackend,
    ReactStep,
    format_step,
    load_template,
    parse_critique,
    parse_react,
    render_prompt,
)
from .sim import FAIL_PREFIX, execute, refresh_visibility
from .tools import ToolLibrary, builtin_tool_library
from .world import WorldState


def normalize_score(raw: int) -> float:
    """Map a raw 1..10 critique score onto [0, 1]."""
    return (raw - 1) / 9


@dataclass
class PlannerConfig:
    exploration_constant: float = 1.414
    expansion_budget: int = 5
    max_depth: int = 5
    children_per_expansion: int = 3
    expansion_temperature: float = 0.7
    retry_temperature: float = 1.0
    expansion_retry_budget: int = 2
    critique_temperature: float = 0.0
    critique_retry_budget: int = 2
    critique_fallback_score: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "PlannerConfig":
        return cls(**data)


@dataclass
class SearchNode:
    state: WorldState
    incoming_action: tuple[str, dict | None] | None = None
    incoming_step: ReactStep | None = None
    observation: str | None = None
    final_answer: str | None = None
    depth: int = 0
    visit_count: int = 0
    total_score: float = 0.0
    children: list["SearchNode"] = field(default_factory=list)
    terminal: bool = False
    failed: bool = False

    @property
    def q_value(self) -> float:
        return self.total_score / self.visit_count if self.visit_count else 0.0


def ucb_score(parent: SearchNode, child: SearchNode, c: float) -> float:
    if child.visit_count == 0:
        return math.inf
    bonus = c * math.sqrt(math.log(parent.visit_count) / child.visit_count)
    return child.q_value + bonus


def select(root: SearchNode, c: float) -> list[SearchNode]:
    """Descend by UCB1 until a node with unvisited children, a leaf, or a
    terminal node; ties break by child insertion order."""
    path = [root]
    node = root
    while node.children and not node.terminal:
        if any(child.visit_count == 0 for child in node.children):
            break
        node = max(node.children, key=lambda ch: ucb_score(node, ch, c))
        path.append(node)
    return path


def backpropagate(path: list[SearchNode], score: float) -> None:
    """Running-mean update: visit counts and score sums along the path."""
    for node in path:
        node.visit_count += 1
        node.total_score += score


def _frozen(value):
    """A hashable stand-in for a parsed Action Input value: two values give
    equal stand-ins exactly when they are equal, whatever their keys and
    nested containers."""
    if isinstance(value, dict):
        return (dict, frozenset((_frozen(k), _frozen(v)) for k, v in value.items()))
    if isinstance(value, (set, frozenset)):
        return (frozenset, frozenset(_frozen(item) for item in value))
    if isinstance(value, (list, tuple)):
        return (type(value), tuple(_frozen(item) for item in value))
    return value


def _dedup_key(step: ReactStep | FinalAnswer) -> tuple:
    if isinstance(step, FinalAnswer):
        return ("final-answer", step.text)
    return (step.action, _frozen(step.action_input))


def _scratchpad(path: list[SearchNode]) -> str:
    parts = []
    for node in path:
        if node.incoming_step is None:
            continue
        step = ReactStep(
            thought=node.incoming_step.thought,
            action=node.incoming_step.action,
            action_input=node.incoming_step.action_input,
            observation=node.observation,
        )
        parts.append(format_step(step))
    return "".join(parts)


def _plan_steps(path: list[SearchNode]) -> str:
    lines = []
    index = 0
    for node in path:
        if node.incoming_action is None and node.final_answer is None:
            continue
        index += 1
        if node.final_answer is not None:
            lines.append(f"{index}. Final Answer: {node.final_answer}")
        else:
            action, args = node.incoming_action
            rendered = repr(args) if args is not None else "None"
            lines.append(f"{index}. {action} {rendered}")
    return "\n".join(lines)


class MctsPlanner:
    """Tree-search planner; one instance serves a whole episode.

    Templates and the tool-list prompt fills are prepared once, in
    ``__init__``. Each ``plan()`` call builds a fresh tree from the state it
    is given, and ``llm_calls`` and ``trace`` count only that call.
    """

    def __init__(
        self,
        backend: LlmBackend,
        config: PlannerConfig | None = None,
        library: ToolLibrary | None = None,
        messages: MessageTable | None = None,
        grounding_enabled: bool = True,
        template_dir: str | None = None,
    ):
        self.backend = backend
        self.config = config or PlannerConfig()
        self.library = library if library is not None else builtin_tool_library()
        self.messages = messages
        self.grounding_enabled = grounding_enabled
        self._expansion_template = load_template("expansion", directory=template_dir)
        self._critique_template = load_template("critique", directory=template_dir)
        self._tool_fills = {
            "tools": self.library.describe(),
            "tool_names": ", ".join(self.library.names()),
        }
        self.llm_calls = 0
        self.trace: list[dict] = []
        self.history = ""  # episode scratchpad prefixed to expansion prompts

    # -- expansion ---------------------------------------------------------

    def _expansion_prompt(self, goal: str, path: list[SearchNode]) -> str:
        return render_prompt(
            self._expansion_template,
            {
                **self._tool_fills,
                "input": goal,
                "agent_scratchpad": self.history + _scratchpad(path),
            },
        )

    def _simulate_child(self, leaf: SearchNode, step: ReactStep) -> SearchNode:
        args = step.action_input if isinstance(step.action_input, dict) else None
        state, failed = leaf.state, True
        if step.action not in self.library:
            observation = f"{FAIL_PREFIX}unknown tool {step.action!r}"
        else:
            try:
                state, result = execute(
                    leaf.state,
                    step.action,
                    args,
                    self.grounding_enabled,
                    library=self.library,
                    messages=self.messages,
                )
                observation, failed = result.message, not result.success
            except MalformedArgsError:
                observation = f"{FAIL_PREFIX}malformed action input"
        return SearchNode(
            state=state,
            incoming_action=(step.action, args),
            incoming_step=step,
            observation=observation,
            depth=leaf.depth + 1,
            failed=failed,
        )

    def expand(self, leaf: SearchNode, goal: str, path: list[SearchNode]) -> list[SearchNode]:
        """Propose up to children_per_expansion distinct next actions."""
        prompt = self._expansion_prompt(goal, path)
        config = self.config
        seen: set[tuple] = set()
        children: list[SearchNode] = []
        attempts = 0
        max_attempts = config.children_per_expansion + config.expansion_retry_budget
        temperature = config.expansion_temperature
        while len(children) < config.children_per_expansion and attempts < max_attempts:
            attempts += 1
            completion = self.backend.complete(prompt, temperature=temperature)
            self.llm_calls += 1
            try:
                parsed = parse_react(completion, self.library)
            except MalformedCompletionError:
                temperature = config.retry_temperature
                continue
            except UnknownToolError as exc:
                parsed = exc.step
            # Dedup before simulating: execute is pure, so duplicates add nothing.
            key = _dedup_key(parsed)
            if key in seen:
                temperature = config.retry_temperature
                continue
            seen.add(key)
            if isinstance(parsed, FinalAnswer):
                child = SearchNode(
                    state=leaf.state,
                    final_answer=parsed.text,
                    incoming_step=ReactStep("", "Final Answer", parsed.text),
                    depth=leaf.depth + 1,
                    terminal=True,
                )
            else:
                child = self._simulate_child(leaf, parsed)
            children.append(child)
            leaf.children.append(child)
        if not children:
            raise ExpansionFailedError(
                f"no children produced after {attempts} completions"
            )
        return children

    # -- critique ----------------------------------------------------------

    def critique(self, path: list[SearchNode], goal: str) -> tuple[float, int, str]:
        """Score the root-to-leaf action path; returns (normalized, raw, why)."""
        prompt = render_prompt(
            self._critique_template,
            {"goal": goal, "plan_steps": _plan_steps(path)},
        )
        config = self.config
        for _ in range(config.critique_retry_budget + 1):
            completion = self.backend.complete(
                prompt, temperature=config.critique_temperature
            )
            self.llm_calls += 1
            try:
                result = parse_critique(completion)
                return normalize_score(result.score), result.score, result.justification
            except (NoScoreError, ScoreOutOfRangeError):
                continue
        raw = config.critique_fallback_score
        return normalize_score(raw), raw, ""

    # -- full planning call -------------------------------------------------

    def plan(self, state: WorldState, goal: str, history: str = "") -> "PlanResult":
        config = self.config
        self.history = history
        self.llm_calls = 0
        self.trace = []
        root = SearchNode(state=refresh_visibility(state))
        for iteration in range(config.expansion_budget):
            path = select(root, config.exploration_constant)
            leaf = path[-1]
            expanded = False
            if any(child.visit_count == 0 for child in leaf.children):
                node = next(ch for ch in leaf.children if ch.visit_count == 0)
                path.append(node)
            elif not leaf.terminal and leaf.depth < config.max_depth and not leaf.children:
                try:
                    self.expand(leaf, goal, path)
                    expanded = True
                    node = leaf.children[0]
                    path.append(node)
                except ExpansionFailedError:
                    leaf.terminal = True
                    node = leaf
            else:
                node = leaf

            if node.failed:
                # Verification-failed and unknown-tool children are kept but
                # never critiqued; evaluating one contributes a hard zero.
                score, raw, justification = 0.0, None, "infeasible action"
            elif node is root:
                score, raw, justification = 0.0, None, "empty plan"
            else:
                score, raw, justification = self.critique(path, goal)
            backpropagate(path, score)
            self.trace.append(
                {
                    "iteration": iteration + 1,
                    "path": [
                        n.incoming_action[0] if n.incoming_action else
                        ("Final Answer" if n.final_answer is not None else "<root>")
                        for n in path
                    ],
                    "expanded": expanded,
                    "raw_score": raw,
                    "normalized_score": score,
                    "node_visits": node.visit_count,
                    "node_q": node.q_value,
                }
            )

        if not root.children:
            raise NoFeasibleActionError("planner produced no root children")
        best = max(
            root.children,
            key=lambda ch: (ch.visit_count, ch.q_value, -root.children.index(ch)),
        )
        return PlanResult(
            action=best.incoming_action[0] if best.incoming_action else "Final Answer",
            args=best.incoming_action[1] if best.incoming_action else None,
            final_answer=best.final_answer,
            thought=best.incoming_step.thought if best.incoming_step else "",
            root=root,
            llm_calls=self.llm_calls,
            trace=self.trace,
        )


@dataclass
class PlanResult:
    action: str
    args: dict | None
    final_answer: str | None
    thought: str
    root: SearchNode
    llm_calls: int
    trace: list[dict]
