import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homeplan import mcts
from homeplan.errors import ExpansionFailedError, NoFeasibleActionError
from homeplan.llm import ReactStep, ScriptedBackend, ScriptEntry
from homeplan.mcts import (
    MctsPlanner,
    PlannerConfig,
    SearchNode,
    backpropagate,
    normalize_score,
    select,
    ucb_score,
)
from homeplan.scenarios import load_shipped_scenarios, run_planning
from homeplan.sim import execute, refresh_visibility

from .conftest import make_object, make_world


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
    # select stops at the parent so the caller evaluates the unvisited child
    assert select(parent, 1.414) == [parent]


def test_select_ties_break_by_insertion_order():
    parent = node(n=4)
    first = node(q=0.5, n=2)
    second = node(q=0.5, n=2)
    parent.children = [first, second]
    assert select(parent, 1.0)[-1] is first


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


def test_expand_simulates_child_state():
    backend = ScriptedBackend.ordered([PICK_KNIFE])
    planner = MctsPlanner(backend, PlannerConfig(children_per_expansion=1))
    leaf = SearchNode(state=feasible_world())
    children = planner.expand(leaf, "tidy up", [leaf])
    assert len(children) == 1
    child = children[0]
    assert child.state.agent.held_object == "Knife_1"
    assert child.observation == "Tool Completed Successfully: Target object was picked up!"
    assert not child.failed


def test_expand_dedups_identical_actions(monkeypatch):
    executed = []

    def counting_execute(*args, **kwargs):
        executed.append(args[1])
        return execute(*args, **kwargs)

    monkeypatch.setattr(mcts, "execute", counting_execute)
    backend = ScriptedBackend.ordered([PICK_KNIFE] * 5)
    planner = MctsPlanner(
        backend, PlannerConfig(children_per_expansion=3, expansion_retry_budget=2)
    )
    leaf = SearchNode(state=feasible_world())
    children = planner.expand(leaf, "tidy up", [leaf])
    assert len(children) == 1  # duplicates collapse; retries exhausted
    assert backend.call_count == 5
    assert executed == ["Pick Up Object"]  # the four duplicates are never simulated


def test_expand_dedups_unhashable_action_inputs():
    inputs = [
        "{'object_id': {'Knife_1', 'Mug_1'}}",
        "{'object_id': {'Mug_1', 'Knife_1'}}",  # the same set
        "{'object_id': ['Knife_1']}",
        "{1: 'a', 'b': 2}",
        "{'b': 2, 1: 'a'}",  # the same dict
        "{'object_id': {'id': 'Knife_1'}}",
    ]
    backend = ScriptedBackend.ordered(
        [f"Thought: t\nAction: Pick Up Object\nAction Input: {raw}" for raw in inputs]
    )
    planner = MctsPlanner(
        backend, PlannerConfig(children_per_expansion=4, expansion_retry_budget=2)
    )
    leaf = SearchNode(state=feasible_world())
    children = planner.expand(leaf, "tidy up", [leaf])
    assert [child.incoming_step.action_input for child in children] == [
        {"object_id": {"Knife_1", "Mug_1"}},
        {"object_id": ["Knife_1"]},
        {1: "a", "b": 2},
        {"object_id": {"id": "Knife_1"}},
    ]
    assert backend.call_count == 6


_scalars = st.sampled_from([None, True, 0, 1, 1.0, "a", "b", b"a"])
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=2)
    | st.lists(inner, max_size=2).map(tuple)
    | st.sets(_scalars, max_size=2)
    | st.dictionaries(_scalars, inner, max_size=2),
    max_leaves=4,
)
_action_inputs = st.dictionaries(_scalars, _values, max_size=2)


@given(_action_inputs, _action_inputs)
def test_dedup_keys_are_equal_exactly_when_action_inputs_are(a, b):
    # For str-keyed dicts with hashable values this is also what the former
    # sorted-items key decided.
    key_a = mcts._dedup_key(ReactStep("", "Pick Up Object", a))
    key_b = mcts._dedup_key(ReactStep("", "Pick Up Object", b))
    assert len({key_a, key_b}) == (1 if a == b else 2)


def test_expand_fails_on_pure_prose():
    backend = ScriptedBackend.ordered(["no actions here"] * 5)
    planner = MctsPlanner(
        backend, PlannerConfig(children_per_expansion=2, expansion_retry_budget=2)
    )
    leaf = SearchNode(state=feasible_world())
    with pytest.raises(ExpansionFailedError):
        planner.expand(leaf, "tidy up", [leaf])


def test_expand_keeps_infeasible_child_with_failure_observation():
    backend = ScriptedBackend.ordered(
        ["Thought: put it there\nAction: Place Object\nAction Input: {'object_id': 'CounterTop_1'}"]
    )
    planner = MctsPlanner(backend, PlannerConfig(children_per_expansion=1))
    leaf = SearchNode(state=feasible_world())
    children = planner.expand(leaf, "tidy up", [leaf])
    child = children[0]
    assert child.failed
    assert child.observation == "Tool Failed: the agent is not holding an object, "
    # world contents unchanged; only the deterministic action counter advances
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
    children = planner.expand(leaf, "tidy up", [leaf])
    assert children[0].failed
    assert "unknown tool" in children[0].observation


def test_critique_normalizes_scripted_score():
    backend = ScriptedBackend.ordered(["Justification: redundant steps\nScore: 4"])
    planner = MctsPlanner(backend)
    leaf = SearchNode(state=feasible_world(), incoming_action=("Pick Up Object", None))
    score, raw, justification = planner.critique([leaf], "tidy up")
    assert score == pytest.approx(1 / 3, abs=1e-12)
    assert raw == 4
    assert justification == "redundant steps"


def test_critique_retries_then_falls_back():
    backend = ScriptedBackend.ordered(["Score: 99", "no score", "still nothing"])
    planner = MctsPlanner(backend, PlannerConfig(critique_retry_budget=2))
    leaf = SearchNode(state=feasible_world(), incoming_action=("Pick Up Object", None))
    score, raw, _ = planner.critique([leaf], "tidy up")
    assert raw == 1
    assert score == 0.0


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
    result = MctsPlanner(backend, config).plan(feasible_world(), "tidy up")
    assert result.action == "Pick Up Object"
    assert result.args == {"object_id": "Knife_1"}


def _replanning_script():
    explore = "Thought: look\nAction: Randomly Explore\nAction Input: {'input': None}"
    place = (
        "Thought: put it\nAction: Place Object\nAction Input: {'object_id': 'CounterTop_1'}"
    )
    return ScriptedBackend(
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

    reused = MctsPlanner(_replanning_script(), config)
    reused_results = [reused.plan(*call) for call in calls]
    backend = _replanning_script()
    fresh_results = [MctsPlanner(backend, config).plan(*call) for call in calls]

    def summary(result):
        return (result.action, result.args, result.llm_calls, result.trace)

    assert [summary(r) for r in reused_results] == [summary(r) for r in fresh_results]
    assert reused.llm_calls == reused_results[-1].llm_calls  # counts only the last plan


def test_plan_no_feasible_action():
    backend = ScriptedBackend.ordered(["prose"] * 20, cyclic=True)
    config = PlannerConfig(expansion_budget=2, children_per_expansion=2)
    with pytest.raises(NoFeasibleActionError):
        MctsPlanner(backend, config).plan(feasible_world(), "tidy up")


# ---------------------------------------------------------------------------
# Shipped planning scenarios


@pytest.fixture(scope="module")
def planning_scenarios():
    return load_shipped_scenarios("planning")


def test_all_scenarios_select_correct_action_at_budget_six(planning_scenarios):
    assert len(planning_scenarios) == 3
    for scenario in planning_scenarios:
        result = run_planning(scenario)
        expected = scenario.expectations["correct_action"]
        assert result.action == expected["action"], scenario.name
        assert result.args == expected["args"], scenario.name


def test_first_scenario_budget_one_picks_wrong_child(planning_scenarios):
    scenario = planning_scenarios[0]
    result = run_planning(scenario, budget=1)
    wrong = scenario.expectations["budget_one_action"]
    assert result.action == wrong["action"]
    assert result.args == wrong["args"]


def test_root_visits_equal_budget(planning_scenarios):
    for budget in (1, 4, 6):
        result = run_planning(planning_scenarios[0], budget=budget)
        assert result.root.visit_count == budget


def test_visit_conservation(planning_scenarios):
    for scenario in planning_scenarios:
        result = run_planning(scenario)

        def walk(n):
            assert n.visit_count >= sum(ch.visit_count for ch in n.children)
            for ch in n.children:
                walk(ch)

        walk(result.root)


def test_monotone_budget_quality(planning_scenarios):
    for scenario in planning_scenarios:
        chosen_q = {}
        for budget in (3, 6, 12):
            result = run_planning(scenario, budget=budget)
            best = max(
                result.root.children, key=lambda ch: (ch.visit_count, ch.q_value)
            )
            chosen_q[budget] = best.q_value
        assert chosen_q[6] >= chosen_q[3] - 1e-12
        assert chosen_q[12] >= chosen_q[6] - 1e-12


def test_planner_trace_records_each_iteration(planning_scenarios):
    result = run_planning(planning_scenarios[0])
    assert len(result.trace) == 6
    assert all("normalized_score" in row for row in result.trace)
    assert result.trace[0]["expanded"] is True


def test_failed_children_never_consume_critique_calls(planning_scenarios):
    # Scenario 2's script has no critique entry for the infeasible branch;
    # exhaustion would raise if a failed node were ever critiqued.
    result = run_planning(planning_scenarios[1])
    failed = [ch for ch in result.root.children if ch.failed]
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
