import json
from dataclasses import replace

import pytest

from homeplan.agent import AgentConfig
from homeplan.errors import InsufficientObjectsError, SuiteFormatError
from homeplan.llm import LlmBackend, ScriptedBackend
from homeplan.suite import (
    MetricsReport,
    completion_rates,
    generate_easy_suite,
    load_suite,
    render_rate,
    resolve_world,
    run_suite,
    save_suite,
    stepwise_from_counts,
    suite_from_dict,
)

WORLD_REFS = ["worlds/kitchen.json", "worlds/kitchen_b.json", "worlds/kitchen_c.json"]


def test_generate_easy_suite_counts_and_distribution():
    suite = generate_easy_suite(seed=7, count=30, world_refs=WORLD_REFS)
    assert len(suite.tasks) == 30
    per_world = {}
    for task in suite.tasks:
        per_world[task.world] = per_world.get(task.world, 0) + 1
    assert per_world == {ref: 10 for ref in WORLD_REFS}
    for task in suite.tasks:
        assert task.difficulty == "easy"
        assert task.instruction.startswith("The agent should pick up the ")
        assert " and place it " in task.instruction
        assert len(task.goal) == 1
        assert task.goal[0].kind == "containment"


def test_generate_easy_suite_deterministic():
    first = generate_easy_suite(seed=7, count=30, world_refs=WORLD_REFS)
    second = generate_easy_suite(seed=7, count=30, world_refs=WORLD_REFS)
    assert first.to_dict() == second.to_dict()
    different = generate_easy_suite(seed=8, count=30, world_refs=WORLD_REFS)
    assert different.to_dict() != first.to_dict()


def test_generate_easy_suite_round_trips_through_file(tmp_path):
    suite = generate_easy_suite(seed=3, count=6, world_refs=WORLD_REFS)
    path = tmp_path / "suite.json"
    save_suite(suite, path)
    loaded = load_suite(path)
    assert loaded.to_dict() == suite.to_dict()


def test_generate_easy_suite_insufficient_objects(tmp_path):
    bare = {
        "objects": {"Wall_1": {"zone": "a", "attributes": {}}},
        "containment": [],
        "agent": {"zone": "a", "seed": 1},
    }
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(bare))
    with pytest.raises(InsufficientObjectsError):
        generate_easy_suite(seed=1, count=1, world_refs=[str(path)])


def test_empty_suite_rejected():
    with pytest.raises(SuiteFormatError):
        suite_from_dict({"name": "x", "seed": 0, "tasks": []})


def test_resolve_world_from_package_data():
    world = resolve_world("worlds/kitchen_b.json")
    assert "CreditCard_1" in world.objects


# ---------------------------------------------------------------------------
# Suite execution


def card_to_sink_suite(tmp_path):
    """Two tasks on the same world; the shared script solves only the first."""
    suite_data = {
        "name": "demo",
        "seed": 5,
        "tasks": [
            {
                "id": "demo-001",
                "difficulty": "moderate",
                "instruction": "Put the credit card in the sink basin.",
                "goal": [
                    {"type": "containment", "object": "CreditCard", "receptacle": "SinkBasin"}
                ],
                "maxSteps": 8,
                "world": "worlds/kitchen_b.json",
            },
            {
                "id": "demo-002",
                "difficulty": "hard",
                "instruction": "Put the mug in the sink basin.",
                "goal": [{"type": "containment", "object": "Mug", "receptacle": "SinkBasin"}],
                "maxSteps": 8,
                "world": "worlds/kitchen_b.json",
            },
        ],
    }
    script_data = {
        "mode": "keyed",
        "entries": [
            {
                "completion": "Thought: the sink is in reach now\nAction: Place Object\n"
                "Action Input: {'object_id': 'SinkBasin_1'}",
                "match": "Action: Adjust Positioning\nAction Input: {'object_id': "
                "'SinkBasin_1'}\nObservation: Tool Completed Successfully",
            },
            {
                "completion": "Thought: get closer to the sink\nAction: Adjust Positioning\n"
                "Action Input: {'object_id': 'SinkBasin_1'}",
                "match": "Action: Place Object\nAction Input: {'object_id': "
                "'SinkBasin_1'}\nObservation: Tool Failed: the target object is not visible",
            },
            {
                "completion": "Thought: take it to the sink\nAction: Place Object\n"
                "Action Input: {'object_id': 'SinkBasin_1'}",
                "match": "Observation: Tool Completed Successfully: Target object was picked up!",
                "uses": -1,
            },
            {
                "completion": "Thought: there is the card\nAction: Pick Up Object\n"
                "Action Input: {'object_id': 'CreditCard_1'}",
                "match": "Here is a list of objects found inside or on the target receptacle",
            },
            {
                "completion": "Thought: check the counter\nAction: Search Object\n"
                "Action Input: {'object_id': 'CounterTop_1'}",
                "match": "Action: Adjust Positioning\nAction Input: {'object_id': "
                "'CounterTop_1'}\nObservation: Tool Completed Successfully",
            },
            {
                "completion": "Thought: head to the counter\nAction: Adjust Positioning\n"
                "Action Input: {'object_id': 'CounterTop_1'}",
                "match": "New objects discovered!",
            },
            {
                "completion": "Thought: look around first\nAction: Randomly Explore\n"
                "Action Input: {'input': None}",
                "uses": -1,
            },
        ],
    }
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite_data))
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps(script_data))
    return suite_path, script_path, script_data


def test_run_suite_mixed_outcomes_and_determinism(tmp_path):
    suite_path, _, script_data = card_to_sink_suite(tmp_path)
    suite = load_suite(suite_path)
    config = AgentConfig(mode="react", grounding_enabled=True)

    def factory(task):
        return ScriptedBackend.from_dict(script_data)

    report_a, records_a = run_suite(suite, config, factory)
    report_b, records_b = run_suite(suite, config, factory)
    assert report_a.serialize() == report_b.serialize()
    assert [r.serialize() for r in records_a] == [r.serialize() for r in records_b]

    episodes = {e["id"]: e for e in report_a.episodes}
    assert episodes["demo-001"]["success"] is True
    assert episodes["demo-002"]["success"] is False
    assert report_a.completion_rate == 50.0
    assert report_a.per_difficulty()["moderate"]["rate_percent"] == "100"
    assert report_a.per_difficulty()["hard"]["rate_percent"] == "0"


def test_run_suite_worker_pool_matches_serial(tmp_path):
    suite_path, _, script_data = card_to_sink_suite(tmp_path)
    suite = load_suite(suite_path)
    config = AgentConfig(mode="react", grounding_enabled=True)

    def factory(task):
        return ScriptedBackend.from_dict(script_data)

    serial, _ = run_suite(suite, config, factory, workers=1)
    parallel, _ = run_suite(suite, config, factory, workers=4)
    assert serial.serialize() == parallel.serialize()


def test_run_suite_orders_repetitions_numerically(tmp_path):
    suite_path, _, script_data = card_to_sink_suite(tmp_path)
    suite = replace(load_suite(suite_path), repetitions=10)
    config = AgentConfig(mode="react", grounding_enabled=True)

    def factory(task):
        return ScriptedBackend.from_dict(script_data)

    serial, serial_records = run_suite(suite, config, factory, workers=1)
    parallel, parallel_records = run_suite(suite, config, factory, workers=4)
    assert [e["id"] for e in serial.episodes] == [
        f"{task}#{n}" for task in ("demo-001", "demo-002") for n in range(1, 11)
    ]
    assert serial.serialize() == parallel.serialize()
    assert [r.serialize() for r in serial_records] == [r.serialize() for r in parallel_records]


class _BuggyBackend(LlmBackend):
    def complete(self, prompt, temperature=0.0, max_tokens=None):
        raise TypeError("a bug, not an infrastructure fault")


def test_run_suite_lets_program_bugs_propagate(tmp_path):
    suite_path, _, _ = card_to_sink_suite(tmp_path)
    with pytest.raises(TypeError, match="a bug"):
        run_suite(load_suite(suite_path), AgentConfig(), lambda task: _BuggyBackend())


def test_run_suite_counts_infrastructure_error_as_failure(tmp_path):
    suite_data = {
        "name": "broken",
        "seed": 1,
        "tasks": [
            {
                "id": "broken-001",
                "difficulty": "easy",
                "instruction": "anything",
                "goal": [{"type": "empty", "object": "GarbageCan_1"}],
                "maxSteps": 3,
                "world": "worlds/nonexistent.json",
            }
        ],
    }
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps(suite_data))
    suite = load_suite(suite_path)
    report, records = run_suite(
        suite, AgentConfig(), lambda task: ScriptedBackend.ordered([])
    )
    assert records == []
    assert len(report.errors) == 1
    assert report.episodes[0]["success"] is False


def test_all_succeeding_suite_reports_hundred_percent():
    report = MetricsReport(
        suite_name="synthetic",
        config_label="react/grounding-on",
        seed=0,
        episodes=[
            {"id": f"t{i}", "difficulty": "moderate" if i < 20 else "hard",
             "outcome": "success", "success": True, "steps": 1, "llm_calls": 1,
             "actions": []}
            for i in range(40)
        ],
    )
    assert report.completion_rate == 100.0
    for row in report.per_difficulty().values():
        assert row["rate_percent"] == "100"


def test_injected_ablation_outcomes_reproduce_reference_row():
    rates = completion_rates({"moderate": (7, 20), "hard": (3, 20)})
    assert rates == {"moderate": "35", "hard": "15", "overall": "25"}


def test_injected_outcomes_other_rows():
    assert completion_rates({"moderate": (1, 20), "hard": (1, 20)}) == {
        "moderate": "5",
        "hard": "5",
        "overall": "5",
    }
    assert completion_rates({"moderate": (3, 20), "hard": (2, 20)}) == {
        "moderate": "15",
        "hard": "10",
        "overall": "12.5",
    }


# ---------------------------------------------------------------------------
# Step-wise tables

REFERENCE_STEPWISE_ROWS = [
    {"skill": "Locate", "successes": 22, "failures": 8, "reported_ssr": 73},
    {"skill": "Move", "successes": 22, "failures": 0, "reported_ssr": 100},
    {"skill": "Percept.", "successes": 18, "failures": 4, "reported_ssr": 81},
    {"skill": "Manip.", "successes": 19, "failures": 2, "reported_ssr": 90},
    {"skill": "Locate2", "successes": 13, "failures": 6, "reported_ssr": 68},
    {"skill": "Move2", "successes": 13, "failures": 0, "reported_ssr": 100},
    {"skill": "Place", "successes": 6, "failures": 7, "reported_ssr": 40},
]


def test_stepwise_reference_counts():
    table = stepwise_from_counts(REFERENCE_STEPWISE_ROWS)
    displays = [row.ssr_display for row in table.rows]
    assert displays == [73, 100, 81, 90, 68, 100, 46]
    flags = table.flags()
    assert flags == ["Place: computed 46.2% vs reported 40%"]


def test_stepwise_row_identities():
    table = stepwise_from_counts(REFERENCE_STEPWISE_ROWS)
    for row in table.rows:
        assert row.successes + row.failures == row.total
    max_ssr = max(row.ssr for row in table.rows)
    assert table.product_estimate <= max_ssr


def test_stepwise_single_all_success_record():
    table = stepwise_from_counts(
        [{"skill": "Locate", "successes": 3, "failures": 0}]
    )
    assert table.rows[0].ssr_display == 100
    assert render_rate(table.product_estimate) == "100"
    assert table.flags() == []


def test_stepwise_computed_ratio_reported():
    table = stepwise_from_counts([{"skill": "Place", "successes": 6, "failures": 7}])
    assert table.rows[0].ssr == pytest.approx(100 * 6 / 13)
    assert table.rows[0].ssr_display == 46


def test_render_rate_forms():
    assert render_rate(35.0) == "35"
    assert render_rate(12.5) == "12.5"
    assert render_rate(46.153846) == "46.2"
    assert render_rate(100.0) == "100"
