"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance and time budget is pinned here.
"""

import math
import os
import time

import pytest

from homeplan.agent import AgentConfig
from homeplan.formula import parse_precondition, print_precondition
from homeplan.llm import ScriptedBackend
from homeplan.mcts import SearchNode, backpropagate, normalize_score, ucb_score
from homeplan.precondgen import compare_fixture
from homeplan.sim import load_trace, replay_trace
from homeplan.suite import (
    completion_rates,
    generate_easy_suite,
    load_suite,
    run_suite,
    stepwise_from_counts,
)
from homeplan.tools import load_precondition_pairs
from homeplan.world import load_world

from .conftest import data_path
from .scenarios import load_shipped_scenarios, run_adversarial, run_planning
from .test_grounding import run_oracle_comparison
from .test_suite import REFERENCE_STEPWISE_ROWS, card_to_sink_suite

PART4_EXAMPLE = """
(and
    (receptacle ?x)
    (visible ?x)
    (when
        (and
            (openable ?x)
        )
        (and
            (isOpen ?x)
        )
    )
    (not (isHoldingObject))
)
"""


def report(number: int, description: str) -> None:
    print(f"\nACCEPTANCE {number} PASS: {description}")


def test_criterion_1_precondition_fixture_metrics():
    started = time.perf_counter()
    result = compare_fixture()
    elapsed = time.perf_counter() - started
    assert result.correct == 37
    assert result.total_generated == 38
    assert result.total_ground_truth == 42
    assert result.accuracy == 37 / 38
    assert result.recall == 37 / 42
    assert f"{100 * result.accuracy:.1f}%" == "97.4%"
    assert f"{100 * result.recall:.1f}%" == "88.1%"
    assert elapsed < 1.0
    report(1, f"fixture metrics 97.4% / 88.1% (37/38, 37/42) in {elapsed:.3f}s")


def test_criterion_2_parser_fixtures_round_trip():
    started = time.perf_counter()
    pairs = load_precondition_pairs()["tools"]
    assert len(pairs) == 9
    parsed = 0
    for entry in pairs.values():
        for side in ("generated", "ground_truth"):
            ast = parse_precondition(entry[side])
            assert parse_precondition(print_precondition(ast)) == ast
            parsed += 1
    example = parse_precondition(PART4_EXAMPLE)
    assert parse_precondition(print_precondition(example)) == example
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(2, f"{parsed} fixture listings + reference example parse and round-trip")


def test_criterion_3_evaluator_oracle_equivalence():
    started = time.perf_counter()
    mismatches = run_oracle_comparison(cases=1000, seed=20240801)
    elapsed = time.perf_counter() - started
    assert mismatches == 0
    assert elapsed < 10.0
    report(3, f"1000 randomized formulas match the brute-force oracle in {elapsed:.2f}s")


def test_criterion_4_ucb_and_backprop_math():
    parent = SearchNode(state=None)
    parent.visit_count = 11
    exploit = SearchNode(state=None)
    exploit.visit_count, exploit.total_score = 10, 8.0  # Q = 0.8
    explore = SearchNode(state=None)
    explore.visit_count, explore.total_score = 1, 0.2  # Q = 0.2
    c = 1.414
    expected_exploit = 0.8 + c * math.sqrt(math.log(11) / 10)
    expected_explore = 0.2 + c * math.sqrt(math.log(11) / 1)
    assert abs(ucb_score(parent, exploit, c) - expected_exploit) < 1e-9
    assert abs(ucb_score(parent, explore, c) - expected_explore) < 1e-9
    assert ucb_score(parent, explore, c) > ucb_score(parent, exploit, c)

    node = SearchNode(state=None)
    total = 0.0
    for raw in (4, 8, 1, 10, 7, 3):
        score = normalize_score(raw)
        backpropagate([node], score)
        total += score
    assert abs(node.q_value * node.visit_count - total) < 1e-12
    report(4, "UCB1 hand case (1e-9) and Q*N running-mean identity (1e-12)")


def test_criterion_5_trace_replay_byte_exact():
    started = time.perf_counter()
    trace = load_trace(data_path("traces/clear_table.json"))
    world = load_world(data_path("worlds/kitchen.json"))
    _, results = replay_trace(trace, world)
    elapsed = time.perf_counter() - started
    assert len(results) == 35
    assert all(result.ok for result in results)
    observations = [result.actual for result in results]
    assert observations.count("Tool Failed: the target object is not visible, ") >= 2
    assert observations.count(
        "Tool Completed Successfully: Held object was successfully placed in target object!"
    ) >= 2
    assert elapsed < 1.0
    report(5, f"35/35 transcript observations byte-exact in {elapsed:.3f}s")


def test_criterion_6_grounding_ablation_property():
    started = time.perf_counter()
    scenarios = load_shipped_scenarios("adversarial")
    assert len(scenarios) == 5
    strict = 0
    for scenario in scenarios:
        on = run_adversarial(scenario, grounding_enabled=True)
        off = run_adversarial(scenario, grounding_enabled=False)
        assert on.success >= off.success, scenario.name
        if on.success and not off.success:
            strict += 1
    elapsed = time.perf_counter() - started
    assert strict >= 3
    assert elapsed < 10.0
    report(6, f"grounding >= ungrounded in 5/5 scenarios, strictly better in {strict}")


def test_criterion_7_mcts_scripted_end_to_end():
    started = time.perf_counter()
    scenarios = load_shipped_scenarios("planning")
    assert len(scenarios) == 3
    for scenario in scenarios:
        result = run_planning(scenario)  # budget 6 from the scenario config
        expected = scenario.expectations["correct_action"]
        assert result.action == expected["action"], scenario.name
        assert result.args == expected["args"], scenario.name
    shallow = run_planning(scenarios[0], budget=1)
    wrong = scenarios[0].expectations["budget_one_action"]
    assert shallow.action == wrong["action"]
    assert shallow.args == wrong["args"]
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report(7, f"budget 6 selects correctly in 3/3 scenarios; budget 1 does not, {elapsed:.2f}s")


def test_criterion_8_table_arithmetic():
    table = stepwise_from_counts(REFERENCE_STEPWISE_ROWS)
    assert [row.ssr_display for row in table.rows] == [73, 100, 81, 90, 68, 100, 46]
    assert table.flags() == ["Place: computed 46.2% vs reported 40%"]
    rates = completion_rates({"moderate": (7, 20), "hard": (3, 20)})
    assert rates == {"moderate": "35", "hard": "15", "overall": "25"}
    report(8, "step-wise SSRs 73/100/81/90/68/100 with Place flagged; 35/15/25 row")


def test_criterion_9_scripted_suite_determinism(tmp_path):
    suite_path, _, script_data = card_to_sink_suite(tmp_path)
    suite = load_suite(suite_path)
    config = AgentConfig(mode="react", grounding_enabled=True)

    def factory(task):
        return ScriptedBackend.from_dict(script_data)

    report_a, records_a = run_suite(suite, config, factory)
    report_b, records_b = run_suite(suite, config, factory)
    assert report_a.serialize() == report_b.serialize()
    assert [r.serialize() for r in records_a] == [r.serialize() for r in records_b]
    report(9, "two identically seeded scripted runs serialize byte-identically")


@pytest.mark.skipif(
    not os.environ.get("HOMEPLAN_LLM_ENDPOINT"),
    reason="live endpoint not configured (optional, non-gating)",
)
def test_criterion_10_live_llm_smoke():
    from homeplan.llm import RemoteBackend

    suite = generate_easy_suite(
        seed=7,
        count=30,
        world_refs=["worlds/kitchen.json", "worlds/kitchen_b.json", "worlds/kitchen_c.json"],
    )
    backend = RemoteBackend()
    config = AgentConfig(mode="react", grounding_enabled=True)
    metrics, _ = run_suite(suite, config, backend)
    assert metrics.errors == []  # no infrastructure errors; rate unasserted
    report(10, f"live 30-task suite completed; rate {metrics.completion_rate:.1f}%")
