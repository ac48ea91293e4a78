"""Tree-search planner: UCB1 selection, model-proposed expansion, critique
scoring, and mean-value backpropagation.

Each iteration selects a path from the root by UCB1. The path ends at the
first unvisited child it meets, or else at a node to expand, whose first new
child is then scored. Instead of rollout simulation, that action path is
scored by a language model critique (1..10, normalized to [0, 1]). The
planner asks ``sim.simulate`` only for its verdict on a proposal and, when
it accepts the call, the successor state. A refused proposal (it fails
verification or names an unknown tool) stays in the tree as a leaf carrying
that verdict, unexplained (``sim.GENERIC_FAILURE``, or ``sim.rejected_call``'s
text for an unknown tool or malformed input), and its parent's state,
uncounted: it is never expanded or critiqued, and each evaluation scores zero.
While every root child was refused, the root is expanded again, at most
``ROOT_RETRY_BUDGET`` times, instead of a refused leaf being revisited. The
executed action is the most visited root child that was not refused
(robust-child rule); only when every root child was refused is the most
visited refused one executed, and the agent's own call records the
simulator's feedback.

Each node keeps the proposal it was made from, as ``parse_react`` returned
it, and ``plan()`` returns the chosen child's proposal itself, the decision
type a react step has, so the agent commits both modes' decisions one way.
Each tree edge is a ``StepRecord``, the transcript step an agent records:
the proposal with its simulated observation, keeping the raw Action Input.
A node also keeps the proposal's dedup key, which no two siblings share. An
expansion prompt is the episode's scratchpad followed by the steps on the
search path, each node's step rendered once; the critique scores that path,
naming each node by its ``label``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    MalformedArgsError,
    MalformedCompletionError,
    NoFeasibleActionError,
    NoScoreError,
    UnknownToolError,
)
from .llm import (
    FinalAnswer,
    LlmBackend,
    ReactStep,
    StepRecord,
    cached_attribute,
    load_template,
    parse_critique,
    parse_react,
    render_prompt,
    stable_repr,
)
from .sim import call_args, rejected_call, simulate
from .tools import builtin_tool_library
from .world import WorldState


EXPLORATION_CONSTANT = 1.414
# One proposal from the expansion template; the react agent's step is one too.
EXPANSION_TEMPERATURE = 0.7
RETRY_TEMPERATURE = 1.0  # after an unparseable or duplicate proposal
CRITIQUE_TEMPERATURE = 0.0
CRITIQUE_FALLBACK_SCORE = 1  # when no critique attempt yields a valid score
EXPANSION_RETRY_BUDGET = 2  # proposals past children_per_expansion
ROOT_RETRY_BUDGET = 1  # root expansions past the first, while every root child was refused
CRITIQUE_RETRY_BUDGET = 2  # critique calls past the first


def normalize_score(raw: int) -> float:
    """Map a raw 1..10 critique score onto [0, 1]."""
    return (raw - 1) / 9


@dataclass
class PlannerConfig:
    expansion_budget: int = 5
    max_depth: int = 5
    children_per_expansion: int = 3

    def __post_init__(self):
        for name in ("expansion_budget", "max_depth", "children_per_expansion"):
            if getattr(self, name) < 1:
                raise ValueError(f"planner {name} must be at least 1")


@dataclass(eq=False)
class SearchNode:
    """A state in the search tree. ``proposal`` is the parsed proposal that
    made it and ``step`` the edge into it, that proposal with its simulated
    observation (both None at the root); the step's ``rendered`` text is
    what a path through this node adds to an expansion prompt; a refused
    node holds its parent's state. Nodes compare by identity."""

    state: WorldState
    step: StepRecord | None = None
    proposal: ReactStep | FinalAnswer | None = None
    key: tuple | None = None  # the proposal's dedup key (None at the root)
    visit_count: int = 0
    total_score: float = 0.0
    children: list["SearchNode"] = field(default_factory=list)
    terminal: bool = False
    failed: bool = False

    @property
    def q_value(self) -> float:
        return self.total_score / self.visit_count if self.visit_count else 0.0

    @cached_attribute
    def label(self) -> str:
        """How critique plans name this node: the declared final answer,
        or the action with the arguments the simulator was given ("<root>"
        for the root); worked out on first use."""
        proposal = self.proposal
        if proposal is None:
            return "<root>"
        if isinstance(proposal, FinalAnswer):
            return f"Final Answer: {proposal.text}"
        return f"{proposal.action} {stable_repr(call_args(proposal.action_input))}"


def ucb_score(parent: SearchNode, child: SearchNode, c: float,
              log_visits: float | None = None) -> float:
    """UCB1; select passes log(parent.visit_count), worked out once per node."""
    visits = child.visit_count
    if visits == 0:
        return math.inf
    if log_visits is None:
        log_visits = math.log(parent.visit_count)
    return child.total_score / visits + c * math.sqrt(log_visits / visits)  # q_value + bonus


def select(root: SearchNode, c: float) -> list[SearchNode]:
    """The path from the root to the node to score or expand. At each node
    the first unvisited child (in insertion order) ends the path; when every
    child was visited, the path descends to the UCB1 maximum (ties break by
    insertion order), unless the node is terminal: the one terminal node
    with children is a root whose retry expansion made none. A node with no
    children ends the path too."""
    path = [root]
    node = root
    while node.children:
        best = None
        log_visits = None
        for child in node.children:
            if child.visit_count == 0:
                path.append(child)
                return path
            if log_visits is None:
                log_visits = math.log(node.visit_count)
            score = ucb_score(node, child, c, log_visits)
            if best is None or score > best_score:
                best, best_score = child, score
        if node.terminal:
            break
        node = best
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
    if isinstance(value, str) or value is None:
        return value
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
    args = step.action_input
    if type(args) is dict:  # a flat {str: str | None} input needs only its items frozen
        for key, value in args.items():
            if type(key) is not str or (type(value) is not str and value is not None):
                break
        else:
            return (step.action, (dict, frozenset(args.items())))
    return (step.action, _frozen(args))


def _plan_steps(path: list[SearchNode]) -> str:
    labels = [node.label for node in path if node.proposal is not None]
    return "\n".join(f"{index}. {label}" for index, label in enumerate(labels, start=1))


class MctsPlanner:
    """Tree-search planner; one instance serves a whole episode and makes
    all of its model calls.

    Templates and the tool-list prompt fills are prepared once, in
    ``__init__``. ``propose`` is the one proposal call: a react step is a
    proposal on the expansion prompt of an empty search path, and
    ``expand`` proposes children the same way. ``llm_calls`` counts every
    model call the planner makes. Each ``plan()`` call builds a fresh tree
    from the state it is given, kept as ``tree`` until the next call.
    """

    def __init__(
        self,
        backend: LlmBackend,
        config: PlannerConfig | None = None,
        template_dir: str | None = None,
    ):
        self.backend = backend
        self.config = config or PlannerConfig()
        self._expansion_template = load_template("expansion", directory=template_dir)
        self._critique_template = load_template("critique", directory=template_dir)
        tools = builtin_tool_library()
        self._tool_fills = {
            "tools": "\n".join(f"{name}: {spec.description}" for name, spec in tools.items()),
            "tool_names": ", ".join(tools),
        }
        self.llm_calls = 0
        self.tree: SearchNode | None = None

    # -- proposals and expansion -------------------------------------------

    def expansion_prompt(self, goal: str, scratchpad: str) -> str:
        return render_prompt(
            self._expansion_template,
            {**self._tool_fills, "input": goal, "agent_scratchpad": scratchpad},
        )

    def propose(self, prompt: str, temperature: float = EXPANSION_TEMPERATURE
                ) -> ReactStep | FinalAnswer:
        """One counted model call on an expansion prompt, parsed. A step that
        names an unknown tool is returned as parsed, for the simulator to
        refuse; an unparseable completion raises MalformedCompletionError."""
        completion = self.backend.complete(prompt, temperature=temperature)
        self.llm_calls += 1
        return parse_react(completion)

    def _simulate_child(self, leaf: SearchNode, parsed: ReactStep, key: tuple) -> SearchNode:
        # No expansion or critique reads a refused leaf's state or text, so it
        # keeps its parent's state and the call is not explained.
        try:
            state, result = simulate(leaf.state, parsed.action, call_args(parsed.action_input))
        except (MalformedArgsError, UnknownToolError) as exc:
            state, result = leaf.state, rejected_call(exc)
        return SearchNode(
            state=state,
            step=StepRecord(parsed.thought, parsed.action, parsed.action_input, result.message),
            proposal=parsed,
            key=key,
            terminal=not result.success,
            failed=not result.success,
        )

    def expand(self, leaf: SearchNode, goal: str, path: list[SearchNode],
               history: str = "") -> list[SearchNode]:
        """Propose up to children_per_expansion next actions, distinct from
        each other and from the leaf's existing children; append them to the
        leaf and return them, an empty list when every proposal was
        unparseable or a duplicate. The prompt's scratchpad is the episode
        history followed by the path's steps."""
        prompt = self.expansion_prompt(goal, history + "".join(
            node.step.rendered for node in path if node.step is not None
        ))
        config = self.config
        seen = {child.key for child in leaf.children}
        children: list[SearchNode] = []
        temperature = EXPANSION_TEMPERATURE
        for _ in range(config.children_per_expansion + EXPANSION_RETRY_BUDGET):
            if len(children) == config.children_per_expansion:
                break
            try:
                parsed = self.propose(prompt, temperature)
            except MalformedCompletionError:
                temperature = RETRY_TEMPERATURE
                continue
            # Dedup before simulating: simulate is pure, so duplicates add nothing.
            key = _dedup_key(parsed)
            if key in seen:
                temperature = RETRY_TEMPERATURE
                continue
            seen.add(key)
            if isinstance(parsed, FinalAnswer):
                child = SearchNode(
                    state=leaf.state,
                    step=StepRecord("", "Final Answer", parsed.text, None),
                    proposal=parsed,
                    key=key,
                    terminal=True,
                )
            else:
                child = self._simulate_child(leaf, parsed, key)
            children.append(child)
            leaf.children.append(child)
        return children

    # -- critique ----------------------------------------------------------

    def critique(self, path: list[SearchNode], goal: str) -> float:
        """Score the root-to-leaf action path, normalized to [0, 1]."""
        prompt = render_prompt(
            self._critique_template,
            {"goal": goal, "plan_steps": _plan_steps(path)},
        )
        for _ in range(CRITIQUE_RETRY_BUDGET + 1):
            completion = self.backend.complete(prompt, temperature=CRITIQUE_TEMPERATURE)
            self.llm_calls += 1
            try:
                return normalize_score(parse_critique(completion).score)
            except NoScoreError:
                continue
        return normalize_score(CRITIQUE_FALLBACK_SCORE)

    # -- full planning call -------------------------------------------------

    def plan(self, state: WorldState, goal: str, history: str = "") -> ReactStep | FinalAnswer:
        """Plan from a state that load_world or execute returned, and return
        the chosen root child's proposal as parse_react returned it; the
        tree stays in ``self.tree`` until the next call. Each
        iteration scores the node at the end of the path select returns: a
        child not yet visited as it stands; any other non-terminal node
        shallower than max_depth is expanded first and its first new child
        scored, and a node whose expansion made no child turns terminal and
        is scored itself. Refused children are leaves. While every root child
        was refused, an iteration expands the root again (at most
        ROOT_RETRY_BUDGET times); a refused child is committed only when no
        root child was accepted by the simulator."""
        config = self.config
        self.tree = root = SearchNode(state=state)
        root_retries = ROOT_RETRY_BUDGET
        for _ in range(config.expansion_budget):
            if root_retries and any(not child.failed for child in root.children):
                root_retries = 0  # a root child was accepted, and it stays in the tree
            retry = root_retries > 0 and bool(root.children)
            if retry:
                root_retries -= 1
                path = [root]
            else:
                path = select(root, EXPLORATION_CONSTANT)
            leaf = path[-1]
            fresh = leaf is not root and leaf.visit_count == 0  # select's unvisited child
            if retry or (not fresh and not leaf.terminal and len(path) - 1 < config.max_depth):
                children = self.expand(leaf, goal, path, history)
                if children:
                    path.append(children[0])
                else:
                    leaf.terminal = True
            node = path[-1]
            # Refused children are terminal leaves, kept but never critiqued;
            # evaluating one contributes a hard zero, as does an empty plan.
            score = 0.0 if node.failed or node is root else self.critique(path, goal)
            backpropagate(path, score)

        if not root.children:
            raise NoFeasibleActionError("planner produced no root children")
        _, best = max(
            enumerate(root.children),
            key=lambda item: (not item[1].failed, item[1].visit_count, item[1].q_value, -item[0]),
        )
        return best.proposal
