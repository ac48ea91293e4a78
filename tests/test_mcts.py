import functools
import hashlib
import math
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan import llm, mcts
from homeplan.errors import (
    MalformedArgsError,
    MalformedCompletionError,
    NoFeasibleActionError,
    NoScoreError,
    UnknownToolError,
)
from homeplan.llm import (
    FinalAnswer,
    LlmBackend,
    ReactStep,
    ScriptedBackend,
    ScriptEntry,
    StepRecord,
)
from homeplan.mcts import (
    MctsPlanner,
    PlannerConfig,
    SearchNode,
    backpropagate,
    normalize_score,
    select,
    ucb_score,
)
from homeplan.sim import GENERIC_FAILURE, execute, rejected_call, simulate
from homeplan.suite import resolve_world
from homeplan.tools import builtin_tool_library
from homeplan.world import refresh_visibility

from .conftest import RecordingBackend, examples, make_object, make_world
from .scenarios import load_shipped_scenarios, run_planning


def node(q=0.0, n=0, **kwargs):
    sn = SearchNode(state=None, **kwargs)
    sn.visit_count = n
    sn.total_score = q * n
    return sn


def test_ucb_single_child_ln_one():
    parent = node(n=1)
    child = node(q=0.5, n=1)
    assert ucb_score(parent, child, c=1.0) == pytest.approx(0.5, abs=1e-12)


def test_ucb_hand_computed_selection():
    parent = node(n=11)
    exploit = node(q=0.8, n=10)
    explore = node(q=0.2, n=1)
    parent.children = [exploit, explore]
    c = 1.414
    expected_exploit = 0.8 + c * math.sqrt(math.log(11) / 10)
    expected_explore = 0.2 + c * math.sqrt(math.log(11) / 1)
    assert ucb_score(parent, exploit, c) == pytest.approx(expected_exploit, abs=1e-9)
    assert ucb_score(parent, explore, c) == pytest.approx(expected_explore, abs=1e-9)
    assert expected_explore > expected_exploit
    path = select(parent, c)
    assert path[-1] is explore


def test_unvisited_child_is_preferred():
    parent = node(n=5)
    seen = node(q=0.99, n=5)
    fresh = node(n=0)
    parent.children = [seen, fresh]
    assert ucb_score(parent, fresh, 1.414) == math.inf
    # select ends the path at the unvisited child, for the caller to score
    assert select(parent, 1.414) == [parent, fresh]


def test_select_ties_break_by_insertion_order():
    parent = node(n=4)
    first = node(q=0.5, n=2)
    second = node(q=0.5, n=2)
    parent.children = [first, second]
    assert select(parent, 1.0)[-1] is first


def two_scan_select(root, c):
    """Reference: at each node one scan for an unvisited child, then a
    second for the first UCB maximum, stopping at a terminal node or at a
    node with an unvisited child; then the first unvisited child of the last
    node, if any, ends the path."""
    path = [root]
    node = root
    while node.children and not node.terminal:
        if any(child.visit_count == 0 for child in node.children):
            break
        node = max(node.children, key=lambda ch: ucb_score(node, ch, c))
        path.append(node)
    fresh = next((child for child in node.children if child.visit_count == 0), None)
    return path if fresh is None else path + [fresh]


# (visits that ended at the node, q, terminal, children): few q values and
# visit counts, so siblings often tie on UCB; a node's visit count is its own
# visits plus its children's, as backpropagation leaves it, so a node with no
# visits of its own and no visited child is unvisited at any depth.
_tree_shapes = st.recursive(
    st.tuples(st.sampled_from([0, 1, 2, 2]), st.sampled_from([0.0, 0.5, 1.0]),
              st.sampled_from([False, False, True]), st.just(())),
    lambda kids: st.tuples(st.sampled_from([0, 1, 2, 2]), st.sampled_from([0.0, 0.5, 1.0]),
                           st.sampled_from([False, False, True]),
                           st.lists(kids, max_size=4).map(tuple)),
    max_leaves=40,
)


def _tree(shape):
    own, q, terminal, kids = shape
    children = [_tree(kid) for kid in kids]
    return node(q=q, n=own + sum(ch.visit_count for ch in children), terminal=terminal,
                children=children)


@pytest.mark.five_times
@settings(derandomize=True, max_examples=examples(500), deadline=None)
@given(_tree_shapes, st.sampled_from([0.0, 1.0, mcts.EXPLORATION_CONSTANT]))
def test_select_matches_the_two_scan_reference(shape, c):
    root = _tree(shape)
    root.visit_count += 1  # select starts from a visited root
    path = select(root, c)
    assert [id(n) for n in path] == [id(n) for n in two_scan_select(root, c)]


def test_nodes_built_from_equal_fields_are_distinct():
    assert SearchNode(state=None) != SearchNode(state=None)


def test_backpropagate_running_mean():
    root = node()
    child = node()
    root.children = [child]
    backpropagate([root, child], normalize_score(4))
    backpropagate([root, child], normalize_score(8))
    assert child.q_value == pytest.approx((1 / 3 + 7 / 9) / 2, abs=1e-12)
    assert child.q_value == pytest.approx(5 / 9, abs=1e-12)


def test_single_score_is_q():
    child = node()
    backpropagate([child], 0.7)
    assert child.q_value == pytest.approx(0.7, abs=1e-12)


def test_q_times_n_equals_score_sum():
    child = node()
    scores = [0.1, 0.9, 0.4, 0.7, 0.2, 1.0, 0.0]
    total = 0.0
    for score in scores:
        backpropagate([child], score)
        total += score
    assert child.q_value * child.visit_count == pytest.approx(total, abs=1e-12)


@pytest.mark.parametrize("raw,expected", [(1, 0.0), (10, 1.0), (4, 1 / 3)])
def test_score_normalization(raw, expected):
    assert normalize_score(raw) == pytest.approx(expected, abs=1e-12)


def feasible_world():
    world = make_world(
        {
            "Knife_1": make_object(zone="kitchen", pickupable=True, moveable=True),
            "CounterTop_1": make_object(zone="kitchen", receptacle=True),
        },
        discovered={"Knife_1", "CounterTop_1"},
    )
    return refresh_visibility(world)


PICK_KNIFE = "Thought: grab it\nAction: Pick Up Object\nAction Input: {'object_id': 'Knife_1'}"
LOOK = "Thought: look\nAction: Randomly Explore\nAction Input: None"


def test_expand_simulates_child_state():
    backend = ScriptedBackend.ordered([PICK_KNIFE])
    planner = MctsPlanner(backend, PlannerConfig(children_per_expansion=1))
    leaf = SearchNode(state=feasible_world())
    children = planner.expand("tidy up", [leaf], "", 0)
    assert len(children) == 1
    child = children[0]
    assert child.state.agent.held_object == "Knife_1"
    assert child.step.observation == "Tool Completed Successfully: Target object was picked up!"
    assert not child.failed


def test_expand_dedups_identical_actions(monkeypatch):
    executed = []

    def counting_simulate(*args, **kwargs):
        executed.append(args[1])
        return simulate(*args, **kwargs)

    monkeypatch.setattr(mcts, "simulate", counting_simulate)
    backend = RecordingBackend.ordered([PICK_KNIFE] * 5)
    planner = MctsPlanner(backend, PlannerConfig(children_per_expansion=3))
    leaf = SearchNode(state=feasible_world())
    children = planner.expand("tidy up", [leaf], "", 0)
    assert len(children) == 1  # duplicates collapse; retries exhausted
    assert backend.call_count == 5
    assert executed == ["Pick Up Object"]  # the four duplicates are never simulated


def test_expand_dedups_unhashable_action_inputs():
    inputs = [
        "{'object_id': {'Knife_1', 'Mug_1'}}",
        "{'object_id': {'Mug_1', 'Knife_1'}}",  # the same set
        "{'object_id': ['Knife_1']}",
        "{'object_id': ('Knife_1',)}",  # a tuple is not the list
        "{1: 'a', 'b': 2}",
        "{'b': 2, 1: 'a'}",  # the same dict
        "{'object_id': {'id': 'Knife_1'}}",
        "{'object_id': 1}",
        "{'object_id': 1.0}",  # 1 == 1.0 == True
        "{'object_id': True}",
    ]
    backend = RecordingBackend.ordered(
        [f"Thought: t\nAction: Pick Up Object\nAction Input: {raw}" for raw in inputs]
    )
    planner = MctsPlanner(backend, PlannerConfig(children_per_expansion=8))
    leaf = SearchNode(state=feasible_world())
    children = planner.expand("tidy up", [leaf], "", 0)
    assert [child.step.args for child in children] == [
        {"object_id": {"Knife_1", "Mug_1"}},
        {"object_id": ["Knife_1"]},
        {"object_id": ("Knife_1",)},
        {1: "a", "b": 2},
        {"object_id": {"id": "Knife_1"}},
        {"object_id": 1},
    ]
    assert [type(child.step.args["object_id"]) for child in children[1:3]] == [list, tuple]
    assert backend.call_count == 10


def test_expand_of_pure_prose_makes_no_child():
    backend = RecordingBackend.ordered(["no actions here"] * 4)
    planner = MctsPlanner(backend, PlannerConfig(children_per_expansion=2))
    leaf = SearchNode(state=feasible_world())
    assert planner.expand("tidy up", [leaf], "", 0) == []
    assert leaf.children == [] and not leaf.terminal  # plan marks it terminal
    assert backend.call_count == 4  # two proposals and both retries


def test_expand_keeps_infeasible_child_with_failure_observation():
    # The planner asks the simulator for its verdict alone: a refused leaf is
    # never expanded or critiqued, so its refusal is not explained.
    backend = ScriptedBackend.ordered(
        ["Thought: put it there\nAction: Place Object\nAction Input: {'object_id': 'CounterTop_1'}"]
    )
    planner = MctsPlanner(backend, PlannerConfig(children_per_expansion=1))
    leaf = SearchNode(state=feasible_world())
    children = planner.expand("tidy up", [leaf], "", 0)
    child = children[0]
    assert child.failed
    assert child.terminal
    assert child.step.observation == GENERIC_FAILURE
    # a refused leaf keeps its parent's state, uncounted
    assert child.state is leaf.state
    assert child.state.objects == leaf.state.objects
    assert child.state.containment == leaf.state.containment
    assert child.state.discovered == leaf.state.discovered
    assert child.state.agent.current_zone == leaf.state.agent.current_zone


def test_expand_keeps_unknown_tool_child():
    backend = ScriptedBackend.ordered(
        ["Thought: hm\nAction: Levitate Object\nAction Input: {'object_id': 'Knife_1'}"]
    )
    planner = MctsPlanner(backend, PlannerConfig(children_per_expansion=1))
    leaf = SearchNode(state=feasible_world())
    children = planner.expand("tidy up", [leaf], "", 0)
    assert children[0].failed
    assert "unknown tool" in children[0].step.observation


def test_a_tool_named_final_answer_is_an_unknown_tool_child():
    backend = ScriptedBackend.ordered(
        ["Thought: done\nAction: Final Answer\nAction Input: all tidy"]
    )
    planner = MctsPlanner(backend, PlannerConfig(children_per_expansion=1))
    leaf = SearchNode(state=feasible_world())
    (child,) = planner.expand("tidy up", [leaf], "", 0)
    assert child.failed and child.terminal
    assert child.proposal == ReactStep("done", "Final Answer", "all tidy")
    assert child.step == StepRecord(
        "done", "Final Answer", "all tidy", "Tool Failed: unknown tool 'Final Answer'"
    )


def test_a_final_answer_child_records_its_text_without_an_observation():
    backend = ScriptedBackend.ordered(["Thought: done\nFinal Answer: all tidy"])
    planner = MctsPlanner(backend, PlannerConfig(children_per_expansion=1))
    leaf = SearchNode(state=feasible_world())
    (child,) = planner.expand("tidy up", [leaf], "", 0)
    assert child.terminal and not child.failed
    assert child.proposal == FinalAnswer("all tidy")
    assert child.step == StepRecord("", "Final Answer", "all tidy", None)
    assert mcts._plan_steps([leaf, child]) == "1. Final Answer: all tidy"


def test_each_path_step_is_rendered_once_per_node(monkeypatch):
    rendered = []
    render_step = mcts.format_step

    def counting_render(step):
        rendered.append(step)
        return render_step(step)

    monkeypatch.setattr(mcts, "format_step", counting_render)
    config = PlannerConfig(expansion_budget=8, children_per_expansion=2, max_depth=3)
    planner = MctsPlanner(_replanning_script(), config)
    planner.plan(feasible_world(), "tidy up")
    expanded, stack = [], [(child, 1) for child in planner.tree.children]
    while stack:
        node, depth = stack.pop()
        if node.children:
            expanded.append((node, depth))
        stack += [(child, depth + 1) for child in node.children]
    expanded_steps = {id(node.step) for node, _ in expanded}
    assert max(depth for _, depth in expanded) >= 2  # two-step paths
    assert len(rendered) == len(expanded_steps)
    assert {id(step) for step in rendered} == expanded_steps


PICK_UP_STEP = StepRecord("", "Pick Up Object", None, "Tool Failed: malformed action input")
PICK_UP_PROPOSAL = ReactStep("", "Pick Up Object", None)


def test_critique_normalizes_scripted_score():
    backend = RecordingBackend.ordered(["Justification: redundant steps\nScore: 4"])
    planner = MctsPlanner(backend)
    leaf = SearchNode(state=feasible_world(), step=PICK_UP_STEP, proposal=PICK_UP_PROPOSAL)
    score = planner.critique([leaf], "tidy up")
    # A path need not start at a root: every node with a proposal is a plan step.
    assert backend.prompts[0].endswith("Plan: 1. Pick Up Object None")
    assert score == pytest.approx(1 / 3, abs=1e-12)


def test_critique_retries_then_falls_back():
    backend = RecordingBackend.ordered(["Score: 99", "no score", "still nothing"])
    planner = MctsPlanner(backend)
    leaf = SearchNode(state=feasible_world(), step=PICK_UP_STEP, proposal=PICK_UP_PROPOSAL)
    assert planner.critique([leaf], "tidy up") == 0.0  # the fallback score 1, normalized
    assert backend.call_count == 3 == planner.llm_calls


def test_plan_single_feasible_action_budget_one():
    backend = ScriptedBackend(
        [
            ScriptEntry(completion=PICK_KNIFE, match="you should always think"),
            ScriptEntry(
                completion="Justification: fine\nScore: 7", match="Score the quality", uses=-1
            ),
        ],
        mode="keyed",
    )
    config = PlannerConfig(expansion_budget=1, children_per_expansion=1, max_depth=1)
    chosen = MctsPlanner(backend, config).plan(feasible_world(), "tidy up")
    assert chosen == ReactStep("grab it", "Pick Up Object", {"object_id": "Knife_1"})


def _replanning_script():
    explore = "Thought: look\nAction: Randomly Explore\nAction Input: {'input': None}"
    place = (
        "Thought: put it\nAction: Place Object\nAction Input: {'object_id': 'CounterTop_1'}"
    )
    return RecordingBackend(
        [
            ScriptEntry(completion="Score: 7", match="Score the quality", uses=3),
            ScriptEntry(completion="Score: 3", match="Score the quality", uses=-1),
            ScriptEntry(completion=PICK_KNIFE, match="you should always think", uses=2),
            ScriptEntry(completion=explore, match="you should always think", uses=2),
            ScriptEntry(completion=place, match="you should always think", uses=-1),
        ],
        mode="keyed",
    )


def test_one_planner_replans_like_fresh_planners():
    config = PlannerConfig(expansion_budget=4, children_per_expansion=2)
    calls = [(feasible_world(), "tidy up", ""), (feasible_world(), "tidy up", "Thought: x\n")]

    def plans(planner_for_call):
        """(chosen proposal, model calls, tree, prompts) of each planning call."""
        summaries = []
        for call in calls:
            planner = planner_for_call()
            before, asked = planner.llm_calls, len(planner.backend.prompts)
            chosen = planner.plan(*call)
            summaries.append((chosen, planner.llm_calls - before,
                              tree_rows(planner.tree), planner.backend.prompts[asked:]))
        return summaries

    reused = MctsPlanner(_replanning_script(), config)
    reused_plans = plans(lambda: reused)
    backend = _replanning_script()
    assert reused_plans == plans(lambda: MctsPlanner(backend, config))
    assert reused.llm_calls == sum(plan[1] for plan in reused_plans)  # counts every plan


PICK_COUNTER = (
    "Thought: take it\nAction: Pick Up Object\nAction Input: {'object_id': 'CounterTop_1'}"
)
PLACE_COUNTER = (
    "Thought: put it\nAction: Place Object\nAction Input: {'object_id': 'CounterTop_1'}"
)
EXPLORE = "Thought: look\nAction: Randomly Explore\nAction Input: {'input': None}"


def test_a_refused_child_is_a_leaf_and_its_feasible_sibling_is_committed():
    # Every critique scores 1 (normalized 0), so UCB ties favour the refused
    # first child, which ends with more visits than its sibling.
    backend = RecordingBackend.ordered(
        [PICK_COUNTER, PICK_KNIFE, "Score: 1", PLACE_COUNTER, EXPLORE, "Score: 1"]
    )
    config = PlannerConfig(expansion_budget=5, children_per_expansion=2, max_depth=3)
    planner = MctsPlanner(backend, config)
    chosen = planner.plan(feasible_world(), "tidy up")
    refused, sibling = planner.tree.children
    assert refused.failed and refused.terminal and not refused.children
    assert refused.visit_count > sibling.visit_count
    assert (chosen.action, chosen.action_input) == ("Pick Up Object", {"object_id": "Knife_1"})
    assert len(backend.prompts) == 6
    for prompt in backend.prompts:  # no expansion or critique of a path through it
        assert refused.rendered not in prompt and refused.label not in prompt


def test_plan_returns_the_proposal_its_chosen_child_was_parsed_into(monkeypatch):
    parsed = []

    def recording_parse(completion):
        parsed.append(llm.parse_react(completion))
        return parsed[-1]

    monkeypatch.setattr(mcts, "parse_react", recording_parse)
    listing = "Thought: list\nAction: Get Discovered Objects\nAction Input: everything"
    backend = RecordingBackend.ordered([PICK_COUNTER, listing, "Score: 5"])
    config = PlannerConfig(expansion_budget=2, children_per_expansion=2, max_depth=1)
    planner = MctsPlanner(backend, config)
    chosen = planner.plan(feasible_world(), "tidy up")
    refused, accepted = planner.tree.children
    assert refused.failed and not accepted.failed
    assert chosen is accepted.proposal is parsed[1]
    assert chosen.action_input == "everything"


@pytest.mark.parametrize("first, second, committed", [
    (PICK_KNIFE, EXPLORE, "Pick Up Object"),
    (EXPLORE, PICK_KNIFE, "Randomly Explore"),
])
def test_accepted_root_children_tied_on_visits_and_q_commit_the_first(first, second, committed):
    backend = ScriptedBackend.ordered([first, second, "Score: 7", "Score: 7"])
    config = PlannerConfig(expansion_budget=2, children_per_expansion=2, max_depth=1)
    planner = MctsPlanner(backend, config)
    chosen = planner.plan(feasible_world(), "tidy up")
    children = planner.tree.children
    assert [(ch.failed, ch.visit_count, ch.q_value) for ch in children] == [
        (False, 1, normalize_score(7))
    ] * 2
    assert chosen.action == committed


def _unknown_tool(name):
    return f"Thought: try\nAction: {name}\nAction Input: {{'object_id': 'Knife_1'}}"


def test_when_every_root_child_is_refused_the_most_visited_is_committed():
    # The root is expanded twice (the first time and its one retry); every
    # proposal is refused, so nothing is critiqued.
    assert mcts.ROOT_RETRY_BUDGET == 1
    backend = RecordingBackend.ordered(
        [PICK_COUNTER, PLACE_COUNTER, _unknown_tool("Levitate"), _unknown_tool("Juggle")]
    )
    config = PlannerConfig(expansion_budget=5, children_per_expansion=2, max_depth=3)
    planner = MctsPlanner(backend, config)
    chosen = planner.plan(feasible_world(), "tidy up")
    children = planner.tree.children
    assert len(children) == 4
    assert all(child.failed and not child.children for child in children)
    assert [child.visit_count for child in children] == [2, 1, 1, 1]
    assert (chosen.action, chosen.action_input) == ("Pick Up Object", {"object_id": "CounterTop_1"})
    assert len(backend.prompts) == 4  # the four proposals
    assert len(set(backend.prompts)) == 1  # each on the root's expansion prompt


def test_a_root_retry_skips_refused_calls_and_commits_an_accepted_one():
    backend = RecordingBackend.ordered(
        [PICK_COUNTER, PLACE_COUNTER,  # first expansion: both refused
         PLACE_COUNTER, PICK_KNIFE, _unknown_tool("Levitate"),  # retry: a repeat is skipped
         "Score: 7"]
    )
    config = PlannerConfig(expansion_budget=3, children_per_expansion=2, max_depth=3)
    planner = MctsPlanner(backend, config)
    chosen = planner.plan(feasible_world(), "tidy up")
    labels = [child.label for child in planner.tree.children]
    assert labels == [
        "Pick Up Object {'object_id': 'CounterTop_1'}",
        "Place Object {'object_id': 'CounterTop_1'}",
        "Pick Up Object {'object_id': 'Knife_1'}",
        "Levitate {'object_id': 'Knife_1'}",
    ]
    assert [child.failed for child in planner.tree.children] == [True, True, False, True]
    assert (chosen.action, chosen.action_input) == ("Pick Up Object", {"object_id": "Knife_1"})
    # Five proposals on the root's expansion prompt, then one critique; the
    # third iteration visits a refused child instead of retrying again.
    assert len(backend.prompts) == 6
    assert len(set(backend.prompts[:5])) == 1


def test_a_root_retry_that_yields_no_child_keeps_the_refused_children():
    backend = RecordingBackend.ordered([PICK_COUNTER, PLACE_COUNTER] + ["prose"] * 4)
    config = PlannerConfig(expansion_budget=5, children_per_expansion=2, max_depth=3)
    planner = MctsPlanner(backend, config)
    chosen = planner.plan(feasible_world(), "tidy up")
    assert planner.tree.terminal and len(planner.tree.children) == 2
    assert (chosen.action, chosen.action_input) == ("Pick Up Object", {"object_id": "CounterTop_1"})
    assert len(backend.prompts) == 6  # two proposals, then four unparseable ones


def test_a_refused_child_is_never_critiqued(monkeypatch):
    critiqued = []

    def recording_critique(self, path, goal):
        critiqued.append(list(path))
        return 0.0

    monkeypatch.setattr(MctsPlanner, "critique", recording_critique)
    backend = ScriptedBackend.ordered([PICK_COUNTER, PICK_KNIFE, PLACE_COUNTER, EXPLORE],
                                      cyclic=True)
    config = PlannerConfig(expansion_budget=12, children_per_expansion=2, max_depth=3)
    planner = MctsPlanner(backend, config)
    planner.plan(feasible_world(), "tidy up")
    nodes, stack = [], list(planner.tree.children)
    while stack:
        nodes.append(stack.pop())
        stack += nodes[-1].children
    refused = [node for node in nodes if node.failed]
    assert any(node.visit_count > 1 for node in refused)
    assert not any(node.children for node in refused)
    assert critiqued and not any(node.failed for path in critiqued for node in path)


def test_a_leaf_whose_expansion_makes_no_child_turns_terminal_and_is_scored():
    backend = RecordingBackend.ordered(
        [PICK_KNIFE, "Score: 7",  # the root's one child, critiqued
         "prose", "prose", "prose",  # the child's expansion makes nothing
         "Score: 5", "Score: 5"]  # so the child is critiqued as it stands
    )
    config = PlannerConfig(expansion_budget=3, children_per_expansion=1, max_depth=3)
    planner = MctsPlanner(backend, config)
    planner.plan(feasible_world(), "tidy up")
    (child,) = planner.tree.children
    assert child.terminal and not child.failed and not child.children
    assert child.visit_count == 3
    assert child.q_value == pytest.approx((normalize_score(7) + 2 * normalize_score(5)) / 3)
    assert len(backend.prompts) == 7  # the third iteration expands nothing


def test_plan_no_feasible_action():
    backend = ScriptedBackend.ordered(["prose"] * 20, cyclic=True)
    config = PlannerConfig(expansion_budget=2, children_per_expansion=2)
    with pytest.raises(NoFeasibleActionError):
        MctsPlanner(backend, config).plan(feasible_world(), "tidy up")


# ---------------------------------------------------------------------------
# Reference planner: today's rules written out plainly, for the property test
# below to hold MctsPlanner.plan against. Selection, expansion, critique and
# the committed child are each one method; select and the committed child
# take the first maximum, so ties go to the earlier child.


@dataclass(eq=False)
class ReferenceNode:
    state: object
    label: str = "<root>"
    step: StepRecord | None = None
    proposal: ReactStep | FinalAnswer | None = None
    key: tuple | None = None
    failed: bool = False
    terminal: bool = False
    visit_count: int = 0
    total_score: float = 0.0
    children: list = field(default_factory=list)

    @property
    def q_value(self):
        return self.total_score / self.visit_count if self.visit_count else 0.0


class ReferencePlanner:
    def __init__(self, backend, config):
        self.backend, self.config = backend, config
        self.calls = 0

    def ask(self, prompt, temperature):
        self.calls += 1
        return self.backend.complete(prompt, temperature=temperature)

    def select(self, root):
        path = [root]
        while path[-1].children:
            node = path[-1]
            unvisited = [child for child in node.children if child.visit_count == 0]
            if unvisited:
                return path + unvisited[:1]
            if node.terminal:
                break
            scores = [child.q_value
                      + 1.414 * math.sqrt(math.log(node.visit_count) / child.visit_count)
                      for child in node.children]
            path.append(node.children[scores.index(max(scores))])
        return path

    def child(self, leaf, parsed, key):
        if isinstance(parsed, FinalAnswer):
            return ReferenceNode(leaf.state, f"Final Answer: {parsed.text}",
                                 StepRecord("", "Final Answer", parsed.text, None),
                                 parsed, key, terminal=True)
        args = parsed.action_input if isinstance(parsed.action_input, dict) else None
        try:
            state, observation = execute(leaf.state, parsed.action, args, False)
        except (MalformedArgsError, UnknownToolError) as exc:
            state, observation = leaf.state, rejected_call(exc)
        step = StepRecord(parsed.thought, parsed.action, parsed.action_input, observation.message)
        refused = not observation.success
        return ReferenceNode(state, f"{parsed.action} {llm.stable_repr(args)}", step, parsed, key,
                             failed=refused, terminal=refused)

    def expand(self, leaf, path, goal, history):
        tools = builtin_tool_library()
        prompt = llm.render_prompt(llm.load_template("expansion"), {
            "tools": "\n".join(f"{name}: {spec.description}" for name, spec in tools.items()),
            "tool_names": ", ".join(tools),
            "input": goal, "agent_scratchpad": history + "".join(
                llm.format_step(node.step) for node in path[1:])})
        wanted = self.config.children_per_expansion
        made, temperature = [], 0.7
        for _ in range(wanted + 2):
            if len(made) == wanted:
                break
            try:
                parsed = llm.parse_react(self.ask(prompt, temperature))
            except MalformedCompletionError:
                temperature = 1.0
                continue
            key = (("final-answer", parsed.text) if isinstance(parsed, FinalAnswer)
                   else (parsed.action, parsed.action_input))
            if any(child.key == key for child in leaf.children):
                temperature = 1.0
                continue
            made.append(self.child(leaf, parsed, key))
            leaf.children.append(made[-1])
        return made

    def critique(self, path, goal):
        plan = "\n".join(f"{index}. {node.label}" for index, node in enumerate(path[1:], 1))
        prompt = llm.render_prompt(llm.load_template("critique"),
                                   {"goal": goal, "plan_steps": plan})
        raw = 1  # when three calls give no score from 1 to 10
        for _ in range(3):
            try:
                raw = llm.parse_critique(self.ask(prompt, 0.0)).score
                break
            except NoScoreError:
                pass
        return (raw - 1) / 9

    def plan(self, state, goal, history):
        root = ReferenceNode(state)
        root_retries = 1
        for _ in range(self.config.expansion_budget):
            if root_retries and root.children and all(ch.failed for ch in root.children):
                root_retries -= 1
                path = [root]
                grow = True
            else:
                path = self.select(root)
                leaf = path[-1]
                grow = ((leaf is root or leaf.visit_count > 0) and not leaf.terminal
                        and len(path) <= self.config.max_depth)
            if grow:
                made = self.expand(path[-1], path, goal, history)
                if made:
                    path.append(made[0])
                else:
                    path[-1].terminal = True
            scored = path[-1]
            score = 0.0 if scored.failed or scored is root else self.critique(path, goal)
            for node in path:
                node.visit_count += 1
                node.total_score += score
        if not root.children:
            raise NoFeasibleActionError("no root children")
        best = root.children[0]
        for child in root.children[1:]:
            if ((not child.failed, child.visit_count, child.q_value)
                    > (not best.failed, best.visit_count, best.q_value)):
                best = child
        return best.proposal, root


def tree_rows(root):
    """Each node in depth-first order: its depth, label, visits, score sum
    and flags; a node's children follow it in their order."""
    rows, stack = [], [(0, root)]
    while stack:
        depth, node = stack.pop()
        rows.append((depth, node.label, node.visit_count, node.total_score, node.failed,
                     node.terminal))
        stack += [(depth + 1, child) for child in reversed(node.children)]
    return rows


# Proposals over a tool and a target, and critiques: each example draws a mix
# of each, so some plans see only refused calls or prose, and some critiques
# only tie or give no score.
PROPOSALS = (
    "Thought: look\nAction: Randomly Explore\nAction Input: None",
    "Thought: list\nAction: Get Discovered Objects\nAction Input: None",
    "Thought: go\nAction: Adjust Positioning\nAction Input: {{'object_id': '{target}'}}",
    "Thought: t\nAction: {tool}\nAction Input: {{'object_id': '{target}'}}",
    "Thought: t\nAction: Levitate Object\nAction Input: {{'object_id': '{target}'}}",
    "Thought: t\nAction: Pick Up Object\nAction Input: {{'item': '{target}'}}",
    "Thought: t\nAction: {tool}\nAction Input: {{'ids': {{'{target}', 'Mug_1'}}, 'n': 1}}",
    "I would rather not say.",
    "Thought: done\nFinal Answer: all tidy",
    "Thought: finish\nAction: Final Answer\nAction Input: all tidy",
)
CRITIQUES = ("Justification: on track\nScore: 7", "Score: 4", "Score: 10", "Score: 1",
             "Score: 11", "no score here")


class SeededBackend(LlmBackend):
    """Completions that are a seeded function of the prompt and of how often
    it was asked before, drawn from the given proposals (over a few targets,
    so they often repeat) and critiques; it keeps each (prompt, temperature)."""

    def __init__(self, seed, targets, proposals, critiques):
        self.seed, self.targets = seed, targets
        self.proposals, self.critiques = proposals, critiques
        self.tools = list(builtin_tool_library())
        self.asked = Counter()
        self.calls = []

    def complete(self, prompt, temperature=0.0):
        self.calls.append((prompt, temperature))
        digest = hashlib.sha256(f"{self.seed}|{self.asked[prompt]}|{prompt}".encode()).digest()
        self.asked[prompt] += 1
        draw = int.from_bytes(digest[:8], "big")
        if prompt.startswith("Score the quality"):
            return self.critiques[draw % len(self.critiques)]
        return self.proposals[draw % len(self.proposals)].format(
            tool=self.tools[(draw >> 16) % len(self.tools)],
            target=self.targets[(draw >> 32) % len(self.targets)])


@functools.cache
def explored_world(ref, explores):
    state = feasible_world() if ref is None else resolve_world(ref)
    for _ in range(explores):
        state, _ = execute(state, "Randomly Explore", {"input": None}, True)
    return state


@pytest.mark.five_times
@settings(derandomize=True, max_examples=examples(500), deadline=None)
@given(
    st.sampled_from([None, "worlds/kitchen.json", "worlds/kitchen_b.json",
                     "worlds/kitchen_c.json"]),
    st.integers(0, 2),
    st.builds(PlannerConfig, st.integers(1, 8), st.integers(1, 4), st.integers(1, 3)),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(PROPOSALS), min_size=1, max_size=5),
    st.lists(st.sampled_from(CRITIQUES), min_size=1, max_size=3),
    st.sampled_from(["", "Thought: x\nAction: Randomly Explore\nAction Input: None\n"]),
)
def test_plan_matches_the_reference_planner(ref, explores, config, seed, proposals, critiques,
                                            history):
    state = explored_world(ref, explores)
    targets = sorted(state.discovered)[:4] + sorted(state.objects)[:2]
    backend, reference_backend = (SeededBackend(seed, targets, proposals, critiques)
                                  for _ in range(2))
    planner = MctsPlanner(backend, config)
    reference = ReferencePlanner(reference_backend, config)
    try:
        got = (planner.plan(state, "tidy up", history), tree_rows(planner.tree))
    except NoFeasibleActionError:
        got = None
    try:
        chosen, root = reference.plan(state, "tidy up", history)
        expected = (chosen, tree_rows(root))
    except NoFeasibleActionError:
        expected = None
    assert got == expected
    assert backend.calls == reference_backend.calls
    assert planner.llm_calls == reference.calls == len(backend.calls)


class SlowSeededBackend(SeededBackend):
    """A SeededBackend whose every call takes twice the planner's overlap
    threshold, so critiques are sent ahead; it keeps the name of the thread
    that made each critique call."""

    def __init__(self, *args):
        super().__init__(*args)
        self.critique_threads = []

    def complete(self, prompt, temperature=0.0):
        time.sleep(2 * mcts.OVERLAP_MIN_CALL_S)
        if prompt.startswith("Score the quality"):
            self.critique_threads.append(threading.current_thread().name)
        return super().complete(prompt, temperature)


def streams(calls):
    """The proposal calls and the critique calls, each in its order."""
    critiques = [call for call in calls if call[0].startswith("Score the quality")]
    return [call for call in calls if call not in critiques], critiques


@pytest.mark.five_times
@settings(derandomize=True, max_examples=examples(60), deadline=None)
@given(
    st.sampled_from([None, "worlds/kitchen.json", "worlds/kitchen_c.json"]),
    st.builds(PlannerConfig, st.integers(1, 8), st.integers(1, 4), st.integers(1, 3)),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(PROPOSALS), min_size=1, max_size=5),
    st.lists(st.sampled_from(CRITIQUES), min_size=1, max_size=3),
)
def test_overlapped_plan_matches_the_reference_planner(ref, config, seed, proposals, critiques):
    state = explored_world(ref, 1)
    targets = sorted(state.discovered)[:4] + sorted(state.objects)[:2]
    backend = SlowSeededBackend(seed, targets, proposals, critiques)
    reference_backend = SeededBackend(seed, targets, proposals, critiques)
    planner = MctsPlanner(backend, config)
    reference = ReferencePlanner(reference_backend, config)
    try:
        got = (planner.plan(state, "tidy up"), tree_rows(planner.tree))
    except NoFeasibleActionError:
        got = None
    finally:
        planner.close()
    try:
        chosen, root = reference.plan(state, "tidy up", "")
        expected = (chosen, tree_rows(root))
    except NoFeasibleActionError:
        expected = None
    assert got == expected
    assert streams(backend.calls) == streams(reference_backend.calls)
    assert planner.llm_calls == reference.calls == len(backend.calls)


class SlowProposalList(LlmBackend):
    """Slow: answers its proposal calls from a list, in order, and every
    critique with one score; it keeps the thread of each critique call."""

    def __init__(self, proposals):
        self.proposals, self.critique_threads = list(proposals), []

    def complete(self, prompt, temperature=0.0):
        time.sleep(2 * mcts.OVERLAP_MIN_CALL_S)
        if prompt.startswith("Score the quality"):
            self.critique_threads.append(threading.current_thread().name)
            return "Score: 6"
        return self.proposals.pop(0)


GET_LIST = "Thought: list\nAction: Get Discovered Objects\nAction Input: None"
REFUSED = ("Thought: t\nAction: Pick Up Object\nAction Input: {'object_id': 'CounterTop_1'}",
           "Thought: t\nAction: Open Object\nAction Input: {'object_id': 'Knife_1'}",
           "Thought: t\nAction: Levitate Object\nAction Input: {'object_id': 'Knife_1'}")


# (budget, refused root children before the accepted three, critiques sent
# ahead). Iteration 1 visits the first root child and each later iteration
# the next unvisited one; a root retry follows three refused children.
@pytest.mark.parametrize("budget, refused, ahead", [
    (1, 0, 1), (2, 0, 2), (3, 0, 3),
    (2, 3, 1), (4, 3, 1), (5, 3, 2), (6, 3, 3),
])
def test_root_children_are_critiqued_ahead_only_when_the_budget_reaches_them(
        budget, refused, ahead):
    backend = SlowProposalList(REFUSED[:refused] + (LOOK, PICK_KNIFE, GET_LIST))
    planner = MctsPlanner(backend, PlannerConfig(expansion_budget=budget))
    try:
        planner.plan(feasible_world(), "tidy up")
    finally:
        planner.close()
    assert [len(child.children) for child in planner.tree.children] == [0] * (refused + 3)
    assert [name.split("_")[0] for name in backend.critique_threads] == ["critique"] * ahead


def test_plan_raises_when_a_critique_sent_ahead_is_never_read(monkeypatch):
    monkeypatch.setattr(MctsPlanner, "critique", lambda self, path, goal: 0.5)
    state = explored_world("worlds/kitchen.json", 1)
    backend = SlowSeededBackend(3, sorted(state.discovered)[:4], PROPOSALS[:3], CRITIQUES[:1])
    planner = MctsPlanner(backend, PlannerConfig(expansion_budget=3))
    try:
        with pytest.raises(RuntimeError, match="sent ahead were never read"):
            planner.plan(state, "tidy up")
    finally:
        planner.close()


def test_a_slowed_script_never_starts_a_thread(monkeypatch):
    def no_thread(thread):
        raise AssertionError("a thread was started")

    class SlowScript(ScriptedBackend):
        def complete(self, prompt, temperature=0.0):
            time.sleep(2 * mcts.OVERLAP_MIN_CALL_S)
            return super().complete(prompt, temperature)

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    backend = SlowScript([ScriptEntry("Score: 5", match="Score the quality", uses=-1),
                          ScriptEntry(PICK_KNIFE, uses=1), ScriptEntry(LOOK, uses=-1)],
                         mode="keyed")
    planner = MctsPlanner(backend, PlannerConfig(expansion_budget=4))
    assert planner.plan(feasible_world(), "tidy up").action == "Pick Up Object"
    planner.close()


_FAST_EPISODES = r"""
import sys, threading
from homeplan.agent import AgentConfig
from homeplan.llm import LlmBackend
from homeplan.mcts import PlannerConfig
from homeplan.suite import generate_easy_suite, run_suite

class Fast(LlmBackend):
    def complete(self, prompt, temperature=0.0):
        if prompt.startswith("Score the quality"):
            return "Score: 6"
        return "Thought: look\nAction: Randomly Explore\nAction Input: None"

suite = generate_easy_suite(1, 2, ["worlds/kitchen.json"])
config = AgentConfig(mode="react+mcts", planner=PlannerConfig(expansion_budget=6), step_cap=3)
report, _ = run_suite(suite, config, lambda task: Fast())
assert not report.errors and len(report.episodes) == 2
print("concurrent.futures" in sys.modules, threading.active_count())
"""


def test_a_fast_backend_loads_no_thread_pool_and_starts_no_thread():
    src = str(Path(mcts.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _FAST_EPISODES], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["False", "1"]


def test_the_default_depth_cap_binds():
    # Every proposal is one accepted call, so each expansion makes one child
    # (the rest are repeats) and the search runs straight down to the cap.
    backend = ScriptedBackend([ScriptEntry("Score: 5", match="Score the quality", uses=-1),
                               ScriptEntry(LOOK, uses=-1)], mode="keyed")
    planner = MctsPlanner(backend, PlannerConfig(expansion_budget=12))
    planner.plan(feasible_world(), "tidy up")
    rows = tree_rows(planner.tree)
    assert [depth for depth, *_ in rows] == [0, 1, 2, 3, 4, 5]
    assert rows[-1][2] == 12 - 4  # the deepest node is scored, never expanded
    assert not any(failed or terminal for *_, failed, terminal in rows)


# ---------------------------------------------------------------------------
# Shipped planning scenarios


@pytest.fixture(scope="module")
def planning_scenarios():
    return load_shipped_scenarios("planning")


def test_all_scenarios_select_correct_action_at_budget_six(planning_scenarios):
    assert len(planning_scenarios) == 3
    for scenario in planning_scenarios:
        chosen, _ = run_planning(scenario)
        expected = scenario.expectations["correct_action"]
        assert chosen.action == expected["action"], scenario.name
        assert chosen.action_input == expected["args"], scenario.name


def test_first_scenario_budget_one_picks_wrong_child(planning_scenarios):
    scenario = planning_scenarios[0]
    chosen, _ = run_planning(scenario, budget=1)
    wrong = scenario.expectations["budget_one_action"]
    assert chosen.action == wrong["action"]
    assert chosen.action_input == wrong["args"]


def test_root_visits_equal_budget(planning_scenarios):
    for budget in (1, 4, 6):
        _, root = run_planning(planning_scenarios[0], budget=budget)
        assert root.visit_count == budget


def test_visit_conservation(planning_scenarios):
    for scenario in planning_scenarios:
        _, root = run_planning(scenario)

        def walk(n):
            assert n.visit_count >= sum(ch.visit_count for ch in n.children)
            for ch in n.children:
                walk(ch)

        walk(root)


def test_monotone_budget_quality(planning_scenarios):
    for scenario in planning_scenarios:
        chosen_q = {}
        for budget in (3, 6, 12):
            _, root = run_planning(scenario, budget=budget)
            best = max(
                root.children, key=lambda ch: (ch.visit_count, ch.q_value)
            )
            chosen_q[budget] = best.q_value
        assert chosen_q[6] >= chosen_q[3] - 1e-12
        assert chosen_q[12] >= chosen_q[6] - 1e-12


def test_a_plan_labels_only_critiqued_nodes(planning_scenarios, monkeypatch):
    critiqued = set()
    critique = MctsPlanner.critique

    def recording_critique(self, path, goal):
        critiqued.update(id(node) for node in path)
        return critique(self, path, goal)

    monkeypatch.setattr(MctsPlanner, "critique", recording_critique)
    # Scenario 2 keeps a failed root child, which no critique prompt names.
    _, root = run_planning(planning_scenarios[1])
    assert any(child.failed for child in root.children)
    nodes, stack = [], [root]
    while stack:
        nodes.append(stack.pop())
        stack += nodes[-1].children
    assert all(id(node) in critiqued for node in nodes if "label" in vars(node))


def test_failed_children_never_consume_critique_calls(planning_scenarios):
    # Scenario 2's script has no critique entry for the infeasible branch;
    # exhaustion would raise if a failed node were ever critiqued.
    _, root = run_planning(planning_scenarios[1])
    failed = [ch for ch in root.children if ch.failed]
    assert failed, "scenario should produce an infeasible child"
    assert all(ch.q_value == 0.0 for ch in failed)


# ---------------------------------------------------------------------------
# Argmax invariance under affine score maps


def _simulate(scores: dict[str, float], c: float, iterations: int):
    root = node(n=0)
    children = {name: node() for name in scores}
    for name, child in children.items():
        child.name = name
        root.children.append(child)
    visits = []
    for _ in range(iterations):
        fresh = [ch for ch in root.children if ch.visit_count == 0]
        target = fresh[0] if fresh else max(
            root.children, key=lambda ch: ucb_score(root, ch, c)
        )
        visits.append(target.name)
        backpropagate([root, target], scores[target.name])
    best = max(root.children, key=lambda ch: (ch.visit_count, ch.q_value))
    return visits, best.name


def test_affine_score_map_preserves_selection():
    base = {"a": 0.9, "b": 0.25, "c": 0.4}
    for scale, shift in [(2.0, 0.1), (0.5, -0.05), (3.0, 0.0)]:
        mapped = {k: scale * v + shift for k, v in base.items()}
        visits_base, best_base = _simulate(base, c=1.414, iterations=12)
        visits_mapped, best_mapped = _simulate(mapped, c=1.414 * scale, iterations=12)
        assert visits_base == visits_mapped
        assert best_base == best_mapped
