import json
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homeplan import agent, mcts
from homeplan.agent import (
    AgentConfig,
    EpisodeRecord,
    StepRecord,
    build_scratchpad,
    run_episode,
)
from homeplan.errors import BackendUnavailableError
from homeplan.llm import LlmBackend, ScriptedBackend, ScriptEntry, load_template
from homeplan.mcts import PlannerConfig
from homeplan.scenarios import load_shipped_scenarios, run_adversarial
from homeplan.sim import GoalAtom, TaskSpec

from .conftest import make_object, make_world


def trace_script(trace):
    completions = [
        f"Thought: {step.thought}\nAction: {step.action}\nAction Input: {step.args!r}"
        for step in trace.steps
    ]
    completions.append(
        f"Thought: {trace.final_thought}\nFinal Answer: {trace.final_answer}"
    )
    return ScriptedBackend.ordered(completions)


def test_full_transcript_episode(kitchen_world, clear_table_trace, clear_table_task):
    backend = trace_script(clear_table_trace)
    config = AgentConfig(mode="react", grounding_enabled=True)
    record = run_episode(clear_table_task, config, backend, kitchen_world)
    assert len(record.steps) == 35
    for step, expected in zip(record.steps, clear_table_trace.steps):
        assert step.observation == expected.observation
    # The agent declared success, but two items ended up on the floor.
    assert record.outcome == "agent-declared-final"
    assert record.success is False
    assert record.final_answer == clear_table_trace.final_answer
    assert record.llm_call_count == 36


def test_episode_determinism(kitchen_world, clear_table_trace, clear_table_task):
    config = AgentConfig(mode="react", grounding_enabled=True)
    first = run_episode(
        clear_table_task, config, trace_script(clear_table_trace), kitchen_world
    )
    second = run_episode(
        clear_table_task, config, trace_script(clear_table_trace), kitchen_world
    )
    assert first.serialize() == second.serialize()


def simple_task(goal_atoms, instruction="do the thing", max_steps=6):
    return TaskSpec(
        id="t-simple",
        difficulty="easy",
        instruction=instruction,
        goal=tuple(goal_atoms),
        max_steps=max_steps,
    )


def pickup_world():
    return make_world(
        {
            "Tomato_1": make_object(zone="main", pickupable=True, moveable=True),
            "Basket_1": make_object(zone="main", receptacle=True),
        },
        agent_zone="main",
        discovered={"Tomato_1", "Basket_1"},
    )


def test_goal_checked_after_every_step_without_declaration():
    # The script never declares a final answer; the goal check ends the run.
    backend = ScriptedBackend.ordered(
        [
            "Thought: grab\nAction: Pick Up Object\nAction Input: {'object_id': 'Tomato_1'}",
            "Thought: place\nAction: Place Object\nAction Input: {'object_id': 'Basket_1'}",
        ]
    )
    task = simple_task([GoalAtom("containment", "Tomato", receptacle_pattern="Basket")])
    record = run_episode(task, AgentConfig(), backend, pickup_world())
    assert record.outcome == "success"
    assert record.success is True
    assert len(record.steps) == 2
    assert record.llm_call_count == 2


def test_goal_already_satisfied_at_start():
    backend = ScriptedBackend.ordered([])
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="pickupable", value=True)]
    )
    record = run_episode(task, AgentConfig(), backend, pickup_world())
    assert record.outcome == "success"
    assert record.steps == []
    assert record.llm_call_count == 0


def test_unknown_tool_is_recoverable_feedback():
    backend = ScriptedBackend.ordered(
        [
            "Thought: zap\nAction: Teleport Object\nAction Input: {'object_id': 'Tomato_1'}",
            "Thought: ok then\nAction: Pick Up Object\nAction Input: {'object_id': 'Tomato_1'}",
        ]
    )
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isPickedUp", value=True)]
    )
    record = run_episode(task, AgentConfig(), backend, pickup_world())
    assert record.outcome == "success"
    assert record.steps[0].observation == "Tool Failed: unknown tool 'Teleport Object'"
    assert record.steps[0].action == "Teleport Object"


def test_malformed_completion_consumes_a_step():
    backend = ScriptedBackend.ordered(
        [
            "I would rather write an essay about tidying.",
            "Thought: fine\nAction: Pick Up Object\nAction Input: {'object_id': 'Tomato_1'}",
        ]
    )
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isPickedUp", value=True)]
    )
    record = run_episode(task, AgentConfig(), backend, pickup_world())
    assert record.outcome == "success"
    assert record.steps[0].action is None
    assert "could not parse" in record.steps[0].observation


def test_step_budget_exhaustion():
    backend = ScriptedBackend.ordered(
        ["Thought: look\nAction: Get Discovered Objects\nAction Input: {'input': None}"],
        cyclic=True,
    )
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isPickedUp", value=True)],
        max_steps=4,
    )
    record = run_episode(task, AgentConfig(), backend, pickup_world())
    assert record.outcome == "step-budget-exhausted"
    assert len(record.steps) == 4


def test_declared_final_without_goal_is_not_success():
    backend = ScriptedBackend.ordered(
        ["Thought: surely done\nFinal Answer: Everything is tidy."]
    )
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isPickedUp", value=True)]
    )
    record = run_episode(task, AgentConfig(), backend, pickup_world())
    assert record.outcome == "agent-declared-final"
    assert record.success is False


class _DeadBackend(LlmBackend):
    def complete(self, prompt, temperature=0.0, max_tokens=None):
        raise BackendUnavailableError("endpoint unreachable")


def test_backend_failure_aborts_as_failure():
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isPickedUp", value=True)]
    )
    record = run_episode(task, AgentConfig(), _DeadBackend(), pickup_world())
    assert record.outcome == "failure"
    assert record.success is False
    assert "unreachable" in record.error


def tomato_planner_script():
    """Proposes picking up the tomato, then (once it is held) placing it in
    the basket; every critique scores 9."""
    return ScriptedBackend(
        [
            ScriptEntry(
                completion="Thought: carry it over\nAction: Place Object\n"
                "Action Input: {'object_id': 'Basket_1'}",
                match="Target object was picked up!",
                uses=-1,
            ),
            ScriptEntry(
                completion="Thought: start with the tomato\nAction: Pick Up Object\n"
                "Action Input: {'object_id': 'Tomato_1'}",
                match="you should always think",
                uses=-1,
            ),
            ScriptEntry(
                completion="Justification: on track\nScore: 9",
                match="Score the quality",
                uses=-1,
            ),
        ],
        mode="keyed",
    )


MCTS_BUDGET_ONE = PlannerConfig(expansion_budget=1, children_per_expansion=1, max_depth=1)


def test_mcts_mode_episode_and_call_accounting():
    script = tomato_planner_script()
    task = simple_task(
        [GoalAtom("containment", "Tomato", receptacle_pattern="Basket")],
        instruction="Put the tomato in the basket.",
    )
    config = AgentConfig(mode="react+mcts", planner=MCTS_BUDGET_ONE, keep_planner_traces=True)
    record = run_episode(task, config, script, pickup_world())
    assert record.outcome == "success"
    assert [step.action for step in record.steps] == ["Pick Up Object", "Place Object"]
    # per step: one expansion completion + one critique completion
    assert record.llm_call_count == 4
    assert len(record.planner_traces) == 2


def test_mcts_episode_loads_each_template_once(monkeypatch):
    loads = []

    def counting_load(name, directory=None):
        loads.append(name)
        return load_template(name, directory=directory)

    monkeypatch.setattr(agent, "load_template", counting_load)
    monkeypatch.setattr(mcts, "load_template", counting_load)
    # The tomato is never cooked, so the episode runs its whole budget.
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isCooked", value=True)], max_steps=4
    )
    config = AgentConfig(mode="react+mcts", planner=MCTS_BUDGET_ONE)
    record = run_episode(task, config, tomato_planner_script(), pickup_world())
    assert record.outcome == "step-budget-exhausted"
    assert len(record.steps) == 4
    assert sorted(loads) == ["critique", "expansion"]


def test_scratchpad_truncates_oldest_first():
    steps = [
        StepRecord(
            thought=f"step {i}",
            action="Get Discovered Objects",
            args={"input": None},
            observation="Tool Completed Successfully: ok",
        )
        for i in range(30)
    ]
    full = build_scratchpad(steps, char_budget=10**6)
    truncated = build_scratchpad(steps, char_budget=400)
    assert len(truncated) <= 400
    assert "step 29" in truncated
    assert "step 0" not in truncated
    assert full.endswith(truncated)


_step_records = st.builds(
    StepRecord,
    thought=st.text(max_size=30),
    action=st.sampled_from([None, "Pick Up Object", "Teleport Object"]),
    args=st.one_of(
        st.none(), st.fixed_dictionaries({"object_id": st.text(max_size=12)}), st.text(max_size=12)
    ),
    observation=st.text(max_size=60),
)


@given(st.lists(_step_records, max_size=25), st.integers(min_value=0, max_value=800))
def test_scratchpad_is_shortest_step_suffix_within_budget(steps, budget):
    rendered = [build_scratchpad([step], char_budget=10**6) for step in steps]
    text = build_scratchpad(steps, char_budget=budget)
    suffixes = ["".join(rendered[k:]) for k in range(len(rendered) + 1)]
    assert text in suffixes
    start = suffixes.index(text)
    # Within budget unless only the newest step is left ...
    assert len(text) <= budget or start == len(steps) - 1
    # ... and the next longer suffix is over budget.
    if start > 0:
        assert len(suffixes[start - 1]) > budget


def test_each_step_is_rendered_once(monkeypatch, kitchen_world, clear_table_trace,
                                    clear_table_task):
    rendered = []
    render_step = agent._render_step

    def counting_render(step):
        rendered.append(step)
        return render_step(step)

    monkeypatch.setattr(agent, "_render_step", counting_render)
    config = AgentConfig(mode="react", grounding_enabled=True)
    record = run_episode(clear_table_task, config, trace_script(clear_table_trace), kitchen_world)
    assert len(record.steps) == 35
    assert len(rendered) == 35  # not once per step per decision
    with pytest.raises(FrozenInstanceError):
        record.steps[0].observation = "rewritten"


@pytest.mark.parametrize("mode", ["react", "react+mcts"])
def test_unhashable_action_input_does_not_crash_the_episode(mode):
    # A set is not JSON and not hashable: the report keeps its repr, and the
    # planner's duplicate check must still key it.
    script = ScriptedBackend(
        [
            ScriptEntry(
                completion="Thought: t\nAction: Pick Up Object\n"
                "Action Input: {'object_id': {'Tomato_1'}}",
                match="you should always think",
                uses=-1,
            ),
            ScriptEntry(completion="Score: 5", match="Score the quality", uses=-1),
        ],
        mode="keyed",
    )
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isCooked", value=True)], max_steps=2
    )
    config = AgentConfig(mode=mode, planner=MCTS_BUDGET_ONE)
    record = run_episode(task, config, script, pickup_world())
    assert record.outcome == "step-budget-exhausted"
    steps = json.loads(record.serialize())["steps"]
    assert [step["args"] for step in steps] == ["{'object_id': {'Tomato_1'}}"] * 2
    assert [step["observation"] for step in steps] == ["Tool Failed: malformed action input"] * 2


def test_serialize_excludes_wall_clock():
    record = EpisodeRecord(
        task_id="t",
        config_label="react/grounding-on",
        steps=[],
        outcome="success",
        success=True,
        llm_call_count=0,
        wall_clock=123.456,
    )
    assert "wall_clock" not in record.serialize()
    assert record.to_dict(include_volatile=True)["wall_clock"] == 123.456


# ---------------------------------------------------------------------------
# Shipped adversarial scenarios: the grounded-feedback advantage


@pytest.fixture(scope="module")
def adversarial():
    return load_shipped_scenarios("adversarial")


def test_five_scenarios_shipped(adversarial):
    assert len(adversarial) == 5


def test_grounding_never_hurts_and_usually_helps(adversarial):
    strict_improvements = 0
    for scenario in adversarial:
        on = run_adversarial(scenario, grounding_enabled=True)
        off = run_adversarial(scenario, grounding_enabled=False)
        assert on.success >= off.success, scenario.name
        if on.success and not off.success:
            strict_improvements += 1
    assert strict_improvements >= 3


def test_scenario_expectations_match(adversarial):
    for scenario in adversarial:
        on = run_adversarial(scenario, grounding_enabled=True)
        off = run_adversarial(scenario, grounding_enabled=False)
        assert on.outcome == scenario.expectations["grounding_on"], scenario.name
        expected_off = scenario.expectations["grounding_off"]
        if expected_off == "failure":
            assert not off.success, scenario.name
        else:
            assert off.outcome == expected_off, scenario.name


def test_adversarial_feedback_text_drives_recovery(adversarial):
    scenario = adversarial[0]  # approach-before-pick
    on = run_adversarial(scenario, grounding_enabled=True)
    observations = [step.observation for step in on.steps]
    assert "Tool Failed: the target object is not visible, " in observations
    actions = [step.action for step in on.steps]
    assert "Adjust Positioning" in actions
