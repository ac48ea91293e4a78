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
No two siblings' proposals are equal (by ``==``, apart from a step's
thought): an expansion drops a repeat before simulating it. An expansion
prompt is the episode's scratchpad followed by the steps on the search
path, each as its node's ``rendered`` text, worked out once per node however
many expansions pass through it; the critique scores that path, naming each
node by its ``label``.

A critique that the search is certain to ask is sent ahead, on one helper
thread, as soon as the node it scores exists: an expansion's first new child
is scored in the same iteration unless it was refused, and ``select`` visits
the unvisited root children in insertion order, one an iteration, so each
later accepted root child that the iterations left will reach is scored too
(no root retry follows an accepted child). Proposals keep their order and
critiques keep theirs; only the interleaving of the two streams changes. The
planner sends ahead only while every model call of the episode has taken at
least ``OVERLAP_MIN_CALL_S`` and the backend does not answer by the global
order of calls (``LlmBackend.answers_in_call_order``); a fast or scripted
backend never starts the thread. A critique sent ahead is counted in
``llm_calls`` when it is read, so the count never depends on timing.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property

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
    format_step,
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
# Critiques are sent ahead only while every model call of the episode took at
# least this long. A faster backend answers in this process (a script or a
# stand-in): handing a critique to a thread and back costs tens of
# microseconds, more than the call it would overlap.
OVERLAP_MIN_CALL_S = 0.001


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
    observation (both None at the root), whose text the node keeps as
    ``rendered``; a refused node holds its parent's state. No two siblings
    hold equal proposals. Nodes compare by identity."""

    state: WorldState
    step: StepRecord | None = None
    proposal: ReactStep | FinalAnswer | None = None
    visit_count: int = 0
    total_score: float = 0.0
    children: list["SearchNode"] = field(default_factory=list)
    terminal: bool = False
    failed: bool = False

    @property
    def q_value(self) -> float:
        return self.total_score / self.visit_count if self.visit_count else 0.0

    @cached_property
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

    @cached_property
    def rendered(self) -> str:
        """The step's scratchpad text, what a path through this node adds to
        an expansion prompt; rendered on first use."""
        return format_step(self.step)


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


def _same_proposal(a: ReactStep | FinalAnswer, b: ReactStep | FinalAnswer) -> bool:
    """Whether b repeats a: the same final answer, or the same action with an
    equal Action Input, whatever the thoughts."""
    if isinstance(a, FinalAnswer) or isinstance(b, FinalAnswer):
        return a == b
    return a.action == b.action and a.action_input == b.action_input


def _asked_later(path: list[SearchNode], children: list[SearchNode],
                 iterations_left: int) -> bool:
    """Whether plan is certain to critique the newest child that this
    iteration's expansion of path[-1] made, given that it was accepted. The
    first child is scored in this iteration. A later one is certain only at
    the root: select visits the unvisited root children one an iteration, in
    insertion order (this expansion's first is visited now), so the child is
    scored when the iterations left reach it."""
    if len(children) == 1:
        return True
    if len(path) > 1:
        return False
    unvisited = sum(not child.visit_count for child in path[0].children)
    return unvisited - 1 <= iterations_left


def _plan_steps(path: list[SearchNode]) -> str:
    labels = [node.label for node in path if node.proposal is not None]
    return "\n".join(f"{index}. {label}" for index, label in enumerate(labels, start=1))


class MctsPlanner:
    """Tree-search planner; one instance serves a whole episode and makes
    all of its model calls.

    Templates and the tool-list prompt fills are prepared once, in
    ``__init__``. ``propose`` is the one proposal call: a react step is a
    proposal on the expansion prompt of an empty search path, and
    ``expand`` proposes children of a search path's last node the same
    way. ``llm_calls`` counts every model call the planner makes. Each
    ``plan()`` call builds a fresh tree from the state it is given, kept as
    ``tree`` until the next call. ``close`` stops the thread that critiques
    sent ahead run on, if one was started.
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
        # Every model call goes through _complete: timed while critiques may
        # be sent ahead, the backend's own method once they may not.
        self._overlap = not getattr(backend, "answers_in_call_order", False)
        self._complete = self._timed_complete if self._overlap else backend.complete
        self._helper = None  # the executor of critiques sent ahead, made on first use
        self._ahead: dict = {}  # scored node -> the Future of its critique

    def _timed_complete(self, prompt: str, temperature: float) -> str:
        started = time.perf_counter()
        completion = self.backend.complete(prompt, temperature=temperature)
        if time.perf_counter() - started < OVERLAP_MIN_CALL_S:
            self._overlap, self._complete = False, self.backend.complete
        return completion

    def close(self) -> None:
        """Stop the critique thread, once the critique it is running returns;
        a critique sent ahead and not begun is dropped."""
        helper, self._helper = self._helper, None
        self._ahead.clear()
        if helper is not None:
            helper.shutdown(cancel_futures=True)

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
        completion = self._complete(prompt, temperature=temperature)
        self.llm_calls += 1
        return parse_react(completion)

    def _simulate_child(self, leaf: SearchNode, parsed: ReactStep) -> SearchNode:
        # No expansion or critique reads a refused leaf's state or text, so it
        # keeps its parent's state and the call is not explained.
        try:
            state, result = simulate(leaf.state, parsed.action, call_args(parsed.action_input))
        except (MalformedArgsError, UnknownToolError) as exc:
            state, result = leaf.state, rejected_call(exc)
        refused = not result.success
        return SearchNode(
            state=state,
            step=StepRecord(parsed.thought, parsed.action, parsed.action_input, result.message),
            proposal=parsed,
            terminal=refused,
            failed=refused,
        )

    def expand(self, goal: str, path: list[SearchNode], history: str,
               iterations_left: int) -> list[SearchNode]:
        """Propose up to children_per_expansion next actions for the path's
        last node, the leaf, none a repeat (_same_proposal) of a proposal the
        leaf already holds; append them to the leaf and return them, an empty
        list when every proposal was unparseable or a repeat. The prompt's
        scratchpad is the episode history followed by the path's steps.
        ``iterations_left`` is the number of plan's iterations after this
        one, and each accepted child whose critique plan is certain to ask
        (_asked_later) is critiqued ahead."""
        leaf = path[-1]
        prompt = self.expansion_prompt(goal, history + "".join(
            node.rendered for node in path if node.step is not None
        ))
        config = self.config
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
            if any(_same_proposal(child.proposal, parsed) for child in leaf.children):
                temperature = RETRY_TEMPERATURE
                continue
            if isinstance(parsed, FinalAnswer):
                child = SearchNode(
                    state=leaf.state,
                    step=StepRecord("", "Final Answer", parsed.text, None),
                    proposal=parsed,
                    terminal=True,
                )
            else:
                child = self._simulate_child(leaf, parsed)
            children.append(child)
            leaf.children.append(child)
            if (self._overlap and not child.failed
                    and _asked_later(path, children, iterations_left)):
                self._send_ahead(path + [child], goal)
        return children

    # -- critique ----------------------------------------------------------

    def critique(self, path: list[SearchNode], goal: str) -> float:
        """Score the root-to-leaf action path, normalized to [0, 1]: read the
        critique sent ahead for its last node, or ask it now."""
        ahead = self._ahead.pop(path[-1], None) if self._ahead else None
        if ahead is None:
            score, calls = self._score(self._critique_prompt(path, goal))
        else:
            score, calls = ahead.result()
        self.llm_calls += calls
        return score

    def _critique_prompt(self, path: list[SearchNode], goal: str) -> str:
        return render_prompt(
            self._critique_template,
            {"goal": goal, "plan_steps": _plan_steps(path)},
        )

    def _score(self, prompt: str) -> tuple[float, int]:
        """The normalized score of a critique prompt and the calls it took."""
        for calls in range(1, CRITIQUE_RETRY_BUDGET + 2):
            completion = self._complete(prompt, temperature=CRITIQUE_TEMPERATURE)
            try:
                return normalize_score(parse_critique(completion).score), calls
            except NoScoreError:
                continue
        return normalize_score(CRITIQUE_FALLBACK_SCORE), CRITIQUE_RETRY_BUDGET + 1

    def _send_ahead(self, path: list[SearchNode], goal: str) -> None:
        """Start the critique of the path on the helper thread, behind those
        sent before it; critique() reads it for the path's last node."""
        if self._helper is None:
            from concurrent.futures import ThreadPoolExecutor  # loaded only when used

            self._helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="critique")
        self._ahead[path[-1]] = self._helper.submit(self._score,
                                                    self._critique_prompt(path, goal))

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
        root child was accepted by the simulator. Every critique sent ahead
        is read by the end; a plan that raised leaves none for the next."""
        config = self.config
        self.tree = root = SearchNode(state=state)
        self._ahead.clear()
        root_retries = ROOT_RETRY_BUDGET
        for iteration in range(config.expansion_budget):
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
                children = self.expand(goal, path, history,
                                       config.expansion_budget - 1 - iteration)
                if children:
                    path.append(children[0])
                else:
                    leaf.terminal = True
            node = path[-1]
            # Refused children are terminal leaves, kept but never critiqued;
            # evaluating one contributes a hard zero, as does an empty plan.
            score = 0.0 if node.failed or node is root else self.critique(path, goal)
            backpropagate(path, score)

        if self._ahead:
            raise RuntimeError(f"{len(self._ahead)} critique(s) sent ahead were never read")
        if not root.children:
            raise NoFeasibleActionError("planner produced no root children")
        # max keeps the first maximum, so a tie goes to the child proposed first.
        best = max(root.children, key=lambda ch: (not ch.failed, ch.visit_count, ch.q_value))
        return best.proposal
