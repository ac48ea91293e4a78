import hashlib
import json
import re
from dataclasses import replace
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from homeplan import suite as suite_module
from homeplan import world as world_module
from homeplan.agent import AgentConfig
from homeplan.errors import HomeplanError, InputFormatError, InsufficientObjectsError
from homeplan.llm import LlmBackend, ScriptedBackend, ScriptEntry
from homeplan.mcts import PlannerConfig
from homeplan.sim import GoalAtom, TaskSpec, check_goal
from homeplan.suite import (
    MetricsReport,
    SuiteSpec,
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
from homeplan.tools import seeded_draw
from homeplan.world import category_of, refresh_visibility

from .conftest import examples

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


# Known fault, pinned: a destination is any fixed receptacle but the target's
# parent, so it can be a further ancestor. With seed 1, easy-030 and easy-072
# move Spoon_1 onto DiningTable_1 in kitchen_c while it already sits in
# Bowl_1 on that table. Excluding every ancestor changes the generated suites
# and so the benchmark's digests.
@pytest.mark.xfail(strict=True, reason="a generated task's goal can already hold")
def test_no_generated_task_starts_with_its_goal_met():
    suite = generate_easy_suite(seed=1, count=120, world_refs=WORLD_REFS)
    assert [task.id for task in suite.tasks
            if check_goal(resolve_world(task.world), task)] == []


def test_generate_easy_suite_round_trips_through_file(tmp_path):
    suite = generate_easy_suite(seed=3, count=6, world_refs=WORLD_REFS)
    path = tmp_path / "suite.json"
    save_suite(suite, path)
    loaded = load_suite(path)
    assert loaded.to_dict() == suite.to_dict()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "3e80c0010830335147d06abc8be1b7a16e090f93a950caa821b0d727d6b169f3"
    )


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


def spaced(object_id):
    return re.sub(r"(?<!^)(?=[A-Z])", " ", category_of(object_id)).lower()


def per_task_generate_easy_suite(seed, count, world_refs, name="easy"):
    """Reference: generate_easy_suite sorting and filtering a world's ids per task."""
    if count < 1:
        raise InputFormatError("count must be at least 1")
    if not world_refs:
        raise InputFormatError("no world to sample tasks from")
    worlds = [(ref, resolve_world(ref)) for ref in world_refs]
    tasks = []
    for index in range(count):
        ref, world = worlds[index % len(worlds)]
        movable = [
            oid
            for oid in sorted(world.objects)
            if world.objects[oid].attributes.pickupable and world.parent_of(oid) is not None
        ]
        if not movable:
            raise InsufficientObjectsError(f"{ref}: no pickupable objects on receptacles")
        target = movable[seeded_draw(seed, "task", index, "object") % len(movable)]
        source = world.parent_of(target)
        destinations = [
            oid
            for oid in sorted(world.objects)
            if world.objects[oid].attributes.receptacle
            and oid not in (source, target)
            and not world.objects[oid].attributes.pickupable
        ]
        if not destinations:
            raise InsufficientObjectsError(f"{ref}: no destination receptacles")
        destination = destinations[seeded_draw(seed, "task", index, "dest") % len(destinations)]
        preposition = "in" if world.objects[destination].attributes.openable else "on"
        instruction = (
            f"The agent should pick up the {spaced(target)} that is on the "
            f"{spaced(source)} and place it {preposition} the {spaced(destination)}."
        )
        tasks.append(TaskSpec(
            id=f"{name}-{index + 1:03d}", difficulty="easy", instruction=instruction,
            goal=(GoalAtom("containment", target, receptacle_pattern=destination),),
            max_steps=50, world=ref,
        ))
    return SuiteSpec(name=name, seed=seed, tasks=tuple(tasks))


@pytest.fixture(scope="module")
def faulty_worlds(tmp_path_factory):
    """Two worlds a task cannot be drawn from: one with no movable object, and
    one whose only receptacle holds its only movable object."""
    agent = {"zone": "a", "seed": 1}
    worlds = {
        "bare.json": {"objects": {"Wall_1": {"zone": "a", "attributes": {}}},
                      "containment": [], "agent": agent},
        "lonely.json": {"objects": {"Apple_1": {"zone": "a", "attributes": {"pickupable": True}},
                                    "Table_1": {"zone": "a", "attributes": {"receptacle": True}}},
                        "containment": [["Apple_1", "Table_1"]], "agent": agent},
    }
    directory = tmp_path_factory.mktemp("worlds")
    for filename, data in worlds.items():
        (directory / filename).write_text(json.dumps(data))
    return [str(directory / filename) for filename in worlds]


def _generated(generate, seed, count, world_refs):
    try:
        return generate(seed, count, world_refs).to_dict()
    except HomeplanError as exc:
        return type(exc), str(exc)


@settings(max_examples=examples(100), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_generate_easy_suite_matches_the_per_task_reference(faulty_worlds, data):
    refs = data.draw(st.lists(st.sampled_from(WORLD_REFS + faulty_worlds), min_size=1,
                              max_size=4))
    seed = data.draw(st.integers(0, 2**32))
    count = data.draw(st.integers(1, 40))
    assert (_generated(generate_easy_suite, seed, count, refs)
            == _generated(per_task_generate_easy_suite, seed, count, refs))


def test_empty_suite_rejected():
    with pytest.raises(InputFormatError):
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


def test_run_suite_hands_each_episode_a_refreshed_world_with_the_seed_override(monkeypatch):
    suite = generate_easy_suite(seed=3, count=6, world_refs=WORLD_REFS)
    for world in map(resolve_world, WORLD_REFS):  # the fixtures come loaded refreshed
        assert refresh_visibility(world) is world
    handed = []

    def capture(task, config, backend, world, messages=None):
        handed.append((task.world, world))
        raise HomeplanError("captured")

    monkeypatch.setattr(suite_module, "run_episode", capture)
    report, _ = run_suite(suite, AgentConfig(mode="react"), object(), seed_override=41)
    assert len(report.errors) == len(handed) == 6
    worlds = {}
    for ref, world in handed:
        assert refresh_visibility(world) is world
        assert world.agent.rng_seed == 41
        assert worlds.setdefault(ref, world) is world  # one state per world
    assert sorted(worlds) == WORLD_REFS


def _planner_script(task: TaskSpec, scores: list[int], explore_first: int = 0) -> ScriptedBackend:
    """Keyed script for one generated task: the given critique scores once
    each, then 5; proposals explore explore_first times, then walk towards
    the goal, two uses each."""
    atom = task.goal[0]

    def proposal(action: str, object_id: str) -> str:
        return f"Thought: next\nAction: {action}\nAction Input: {{'object_id': '{object_id}'}}"

    explore = "Thought: look\nAction: Randomly Explore\nAction Input: {'input': None}"
    expansions = [
        proposal("Adjust Positioning", atom.object_pattern),
        proposal("Pick Up Object", atom.object_pattern),
        proposal("Adjust Positioning", atom.receptacle_pattern),
        proposal("Place Object", atom.receptacle_pattern),
    ]
    critique = "Score the quality"
    expand = "you should always think"
    entries = [ScriptEntry(f"Score: {score}", match=critique) for score in scores]
    entries.append(ScriptEntry("Score: 5", match=critique, uses=-1))
    if explore_first:
        entries.append(ScriptEntry(explore, match=expand, uses=explore_first))
    entries += [ScriptEntry(text, match=expand, uses=2) for text in expansions]
    entries.append(ScriptEntry(explore, match=expand, uses=-1))
    return ScriptedBackend(entries, mode="keyed")


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    count=st.integers(2, 6),
    scores=st.lists(st.integers(1, 10), max_size=8),
)
def test_run_suite_output_does_not_depend_on_worker_count(seed, count, scores):
    suite = generate_easy_suite(seed, count, WORLD_REFS)
    config = AgentConfig(
        mode="react+mcts",
        step_cap=6,
        planner=PlannerConfig(expansion_budget=3, children_per_expansion=2),
    )

    def factory(task):
        return _planner_script(task, scores)

    serial, serial_records = run_suite(suite, config, factory, workers=1)
    parallel, parallel_records = run_suite(suite, config, factory, workers=4)
    assert serial.serialize() == parallel.serialize()
    assert [r.serialize() for r in serial_records] == [r.serialize() for r in parallel_records]


def _summary(record) -> tuple:
    return (record.task_id, record.outcome, record.success, record.error, len(record.steps),
            record.llm_call_count)


def _infrastructure_failure(task_id: str, error: str) -> tuple:
    """The summary of the record of a job that hit an infrastructure error."""
    return (task_id, "failure", False, error, 0, 0)


class _BuggyBackend(LlmBackend):
    def complete(self, prompt, temperature=0.0, max_tokens=None):
        raise TypeError("a bug, not an infrastructure fault")


def test_run_suite_lets_program_bugs_propagate(tmp_path):
    suite_path, _, _ = card_to_sink_suite(tmp_path)
    with pytest.raises(TypeError, match="a bug"):
        run_suite(load_suite(suite_path), AgentConfig(), lambda task: _BuggyBackend())


def test_an_object_index_longer_than_int_reads_is_malformed_input_not_a_crash():
    suite = generate_easy_suite(seed=1, count=1, world_refs=["worlds/kitchen.json"])
    proposal = ("Thought: grab\nAction: Pick Up Object\n"
                f"Action Input: {{'object_id': 'Apple_{'1' * 5000}'}}")
    report, records = run_suite(suite, AgentConfig(mode="react", step_cap=2),
                                ScriptedBackend.ordered([proposal], cyclic=True))
    assert report.errors == []
    assert [step.observation for step in records[0].steps] == [
        "Tool Failed: malformed action input"] * 2


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
    assert [_summary(record) for record in records] == [
        _infrastructure_failure("broken-001", "world fixture not found: 'worlds/nonexistent.json'")
    ]
    assert len(report.errors) == 1
    assert report.episodes[0]["success"] is False


def test_a_planner_error_is_in_its_record_and_not_an_error_line(tmp_path):
    suite_path, _, _ = card_to_sink_suite(tmp_path)
    config = AgentConfig(mode="react+mcts", planner=PlannerConfig(expansion_budget=2,
                                                                  children_per_expansion=2))
    report, records = run_suite(load_suite(suite_path), config,
                                lambda task: ScriptedBackend.ordered(["prose"], cyclic=True))
    assert report.errors == []
    assert [(record.outcome, record.error) for record in records] == [
        ("failure", "planner produced no root children")
    ] * 2
    assert [episode["llm_calls"] for episode in report.episodes] == [
        record.llm_call_count for record in records
    ]


# One step, then the script runs out: react reads the score as an unparsed
# step; a one-call plan takes the step and is scored by it.
RUNS_OUT_AFTER_ONE_STEP = [
    "Thought: look\nAction: Randomly Explore\nAction Input: {'input': None}",
    "Score: 5",
]


@pytest.mark.parametrize("mode", ["react", "react+mcts"])
def test_a_script_that_runs_out_mid_episode_is_an_error_per_episode(tmp_path, mode):
    suite_path, _, _ = card_to_sink_suite(tmp_path)
    config = AgentConfig(mode=mode, planner=PlannerConfig(expansion_budget=1,
                                                          children_per_expansion=1))
    report, records = run_suite(load_suite(suite_path), config,
                                lambda task: ScriptedBackend.ordered(RUNS_OUT_AFTER_ONE_STEP))
    assert [_summary(record) for record in records] == [
        _infrastructure_failure(task, "ordered script exhausted")
        for task in ("demo-001", "demo-002")
    ]
    assert report.errors == [
        f"{episode}: ordered script exhausted" for episode in ("demo-001", "demo-002")
    ]
    assert [(e["id"], e["outcome"], e["steps"]) for e in report.episodes] == [
        ("demo-001", "failure", 0), ("demo-002", "failure", 0)
    ]


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


# SHA-256 of a scripted run's serialized report and records. Any change to
# the bytes of scripted output changes them; re-record only for a change
# that means to alter those bytes.
GOLDEN_DIGESTS = {
    "react": "ead0446a4b3e4edecce2707bc7d66af803f5d960f12fef8a4b0cbc5ed66acfc6",
    "react+mcts": "0b9496c273c9b3ffb8edd774b43738ecdbdb3fd354b7930a3cd865060456c6b7",
}


@pytest.mark.parametrize("mode", sorted(GOLDEN_DIGESTS))
def test_run_suite_bytes_match_the_golden_digest(mode):
    suite = generate_easy_suite(seed=11, count=6, world_refs=WORLD_REFS)
    config = AgentConfig(
        mode=mode,
        step_cap=12,
        planner=PlannerConfig(expansion_budget=3, children_per_expansion=2),
    )
    report, records = run_suite(
        suite, config, lambda task: _planner_script(task, [3, 8, 2, 6], explore_first=2),
        seed_override=3,
    )
    hasher = hashlib.sha256(report.serialize().encode())
    for record in records:
        hasher.update(b"\n")
        hasher.update(record.serialize().encode())
    assert hasher.hexdigest() == GOLDEN_DIGESTS[mode]


def test_run_suite_resolves_each_world_once_and_shares_it(monkeypatch):
    suite = replace(generate_easy_suite(seed=11, count=6, world_refs=WORLD_REFS), repetitions=2)
    parses = []
    real_parse = world_module.world_from_dict

    def counting_parse(data):
        parses.append(1)
        return real_parse(data)

    worlds = {}
    real_run_episode = suite_module.run_episode

    def recording_run_episode(task, config, backend, world, **kwargs):
        worlds.setdefault(task.world, set()).add(id(world))
        return real_run_episode(task, config, backend, world, **kwargs)

    monkeypatch.setattr(world_module, "world_from_dict", counting_parse)
    monkeypatch.setattr(suite_module, "run_episode", recording_run_episode)
    report, _ = run_suite(suite, AgentConfig(step_cap=2),
                          lambda task: _planner_script(task, []), workers=2, seed_override=9)
    assert len(parses) == len(WORLD_REFS)
    assert {ref: len(ids) for ref, ids in worlds.items()} == {ref: 1 for ref in WORLD_REFS}
    assert len(report.episodes) == 12 and not report.errors


def test_missing_world_gives_one_error_line_per_episode():
    explore = "Thought: look\nAction: Randomly Explore\nAction Input: {'input': None}"

    def task_data(task_id, world):
        return {"id": task_id, "difficulty": "easy", "instruction": "anything",
                "goal": [{"type": "empty", "object": "GarbageCan_1"}], "maxSteps": 2,
                "world": world}

    suite = suite_from_dict({
        "name": "partly-broken",
        "seed": 1,
        "repetitions": 2,
        "tasks": [task_data("a", "worlds/nonexistent.json"),
                  task_data("b", "worlds/kitchen_b.json"),
                  task_data("c", "worlds/nonexistent.json")],
    })
    report, records = run_suite(
        suite, AgentConfig(), lambda task: ScriptedBackend.ordered([explore], cyclic=True)
    )
    assert report.errors == [
        f"{episode}: world fixture not found: 'worlds/nonexistent.json'"
        for episode in ("a#1", "a#2", "c#1", "c#2")
    ]
    missing = "world fixture not found: 'worlds/nonexistent.json'"
    assert [_summary(record) for record in records[:2] + records[4:]] == [
        _infrastructure_failure(task, missing) for task in ("a", "a", "c", "c")
    ]
    assert [(record.task_id, record.error) for record in records[2:4]] == [("b", None)] * 2
    assert [episode["id"] for episode in report.episodes] == [
        "a#1", "a#2", "b#1", "b#2", "c#1", "c#2"
    ]


def _one_task_suite():
    task = {"id": "a", "difficulty": "easy", "instruction": "anything",
            "goal": [{"type": "empty", "object": "GarbageCan_1"}], "maxSteps": 2,
            "world": "worlds/kitchen_b.json"}
    return {"name": "one", "seed": 1, "tasks": [task]}


def test_a_suite_task_without_a_world_is_rejected():
    suite_data = _one_task_suite()
    del suite_data["tasks"][0]["world"]
    with pytest.raises(InputFormatError):
        suite_from_dict(suite_data)


def test_a_suite_without_repetitions_is_rejected():
    with pytest.raises(InputFormatError):
        suite_from_dict({**_one_task_suite(), "repetitions": 0})


def _run_beside_a_broken_world(tmp_path, breaks):
    """Run a good task and, twice, one on kitchen_b changed by ``breaks``."""
    world = json.loads(resources.files("homeplan.data").joinpath("worlds/kitchen_b.json")
                       .read_text("utf-8"))
    breaks(world)
    return _run_beside_a_world_file(tmp_path, json.dumps(world).encode())


def _run_beside_a_world_file(tmp_path, content: bytes):
    """Run a good task and, twice, one on a world file holding ``content``."""
    explore = "Thought: look\nAction: Randomly Explore\nAction Input: {'input': None}"
    (tmp_path / "bad.json").write_bytes(content)
    suite_data = _one_task_suite()
    suite_data["tasks"].append({**suite_data["tasks"][0], "id": "b", "world": "bad.json"})
    suite = suite_from_dict({**suite_data, "repetitions": 2})
    return run_suite(
        suite, AgentConfig(), lambda task: ScriptedBackend.ordered([explore], cyclic=True),
        base_dir=tmp_path,
    )


def _assert_only_b_failed(records, error):
    assert [(record.task_id, record.error) for record in records[:2]] == [("a", None)] * 2
    assert [_summary(record) for record in records[2:]] == [_infrastructure_failure("b", error)] * 2


def test_a_malformed_world_gives_one_error_line_per_episode(tmp_path):
    report, records = _run_beside_a_broken_world(tmp_path, lambda w: w["agent"].pop("seed"))
    assert report.errors == [
        f"{episode}: agent: missing keys ['seed']" for episode in ("b#1", "b#2")
    ]
    _assert_only_b_failed(records, "agent: missing keys ['seed']")


def test_a_world_that_is_not_utf8_gives_one_error_line_per_episode(tmp_path):
    kitchen = resources.files("homeplan.data").joinpath("worlds/kitchen_b.json").read_bytes()
    report, records = _run_beside_a_world_file(tmp_path, b"\xff" + kitchen)
    error = (f"{tmp_path / 'bad.json'}: 'utf-8' codec can't decode byte 0xff in position 0: "
             "invalid start byte")
    assert report.errors == [f"{episode}: {error}" for episode in ("b#1", "b#2")]
    _assert_only_b_failed(records, error)


@pytest.mark.parametrize(
    "breaks, error",
    [
        (lambda w: w.update(objects=list(w["objects"].values())),
         "objects must be an object of objects"),
        (lambda w: w.update(discovered=5), "discovered must be an array of strings"),
        (lambda w: w["objects"]["Mug_1"].update(controls=3),
         "Mug_1: controls must be an array of strings"),
    ],
    ids=["objects-list", "discovered-scalar", "controls-scalar"],
)
def test_a_world_field_of_the_wrong_json_type_gives_one_error_line_per_episode(
        tmp_path, breaks, error):
    report, records = _run_beside_a_broken_world(tmp_path, breaks)
    assert report.errors == [f"{episode}: {error}" for episode in ("b#1", "b#2")]
    _assert_only_b_failed(records, error)
