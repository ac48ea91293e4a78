import json
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homeplan import agent, llm, mcts
from homeplan.agent import (
    AgentConfig,
    EpisodeRecord,
    Scratchpad,
    StepRecord,
    build_scratchpad,
    run_episode,
)
from homeplan.errors import BackendUnavailableError
from homeplan.llm import LlmBackend, ScriptedBackend, ScriptEntry, load_template
from homeplan.mcts import PlannerConfig
from homeplan.sim import GENERIC_FAILURE, UNPARSED_ACTION, GoalAtom, TaskSpec, check_goal
from homeplan.world import refresh_visibility

from .conftest import RecordingBackend, data_path, make_object, make_world
from .scenarios import load_shipped_scenarios, run_adversarial

# The shipped trace file as JSON: its final thought and answer are checked
# when the trace loads, and kept only here.
CLEAR_TABLE = json.loads(data_path("traces/clear_table.json").read_text("utf-8"))


def trace_script(trace):
    completions = [
        f"Thought: {step.thought}\nAction: {step.action}\nAction Input: {step.args!r}"
        for step in trace.steps
    ]
    completions.append(
        f"Thought: {CLEAR_TABLE['final_thought']}\nFinal Answer: {CLEAR_TABLE['final_answer']}"
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
    assert record.final_answer == CLEAR_TABLE["final_answer"]
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
    world = make_world(
        {
            "Tomato_1": make_object(zone="main", pickupable=True, moveable=True),
            "Basket_1": make_object(zone="main", receptacle=True),
        },
        agent_zone="main",
        discovered={"Tomato_1", "Basket_1"},
    )
    return refresh_visibility(world)


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


def test_goal_is_checked_only_after_successful_actions(monkeypatch):
    """A rejected, malformed or unknown call leaves the world as it was
    (but for action_count, which no goal reads), so only the start and the
    two successful actions are checked against the goal."""
    checked = []

    def counting_check_goal(state, task):
        checked.append(state)
        return check_goal(state, task)

    monkeypatch.setattr(agent, "check_goal", counting_check_goal)
    backend = ScriptedBackend.ordered(
        [
            "Thought: a\nAction: Pick Up Object\nAction Input: {'object_id': 'Basket_1'}",
            "Thought: b\nAction: Pick Up Object\nAction Input: {'item': 'Tomato_1'}",
            "Thought: c\nAction: Teleport Object\nAction Input: {'object_id': 'Tomato_1'}",
            "no action in this one",
            "Thought: d\nAction: Pick Up Object\nAction Input: {'object_id': 'Tomato_1'}",
            "Thought: e\nAction: Open Object\nAction Input: {'object_id': 'Basket_1'}",
            "Thought: f\nAction: Place Object\nAction Input: {'object_id': 'Basket_1'}",
        ]
    )
    task = simple_task(
        [GoalAtom("containment", "Tomato", receptacle_pattern="Basket")], max_steps=10
    )
    record = run_episode(task, AgentConfig(), backend, pickup_world())
    assert record.outcome == "success"
    assert [step.observation.split(":")[0] for step in record.steps] == [
        "Tool Failed",
        "Tool Failed",
        "Tool Failed",
        "Tool Failed",
        "Tool Completed Successfully",
        "Tool Failed",
        "Tool Completed Successfully",
    ]
    assert record.steps[1].observation == "Tool Failed: malformed action input"
    assert [state.agent.action_count for state in checked] == [0, 2, 4]


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
    def complete(self, prompt, temperature=0.0):
        raise BackendUnavailableError("endpoint unreachable")


def test_backend_failure_aborts_as_failure():
    """A dead backend is an infrastructure fault, not a failed task: the
    episode does not turn it into a record (run_suite reports it)."""
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isPickedUp", value=True)]
    )
    with pytest.raises(BackendUnavailableError, match="unreachable"):
        run_episode(task, AgentConfig(), _DeadBackend(), pickup_world())


def tomato_planner_script():
    """Proposes picking up the tomato, then (once it is held) placing it in
    the basket; every critique scores 9."""
    return RecordingBackend(
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
    config = AgentConfig(mode="react+mcts", planner=MCTS_BUDGET_ONE)
    record = run_episode(task, config, script, pickup_world())
    assert record.outcome == "success"
    assert [step.action for step in record.steps] == ["Pick Up Object", "Place Object"]
    # per step: one expansion completion + one critique completion
    assert record.llm_call_count == 4


@pytest.mark.parametrize("grounding, observation", [
    (True, "Tool Failed: the agent is not holding an object, "),
    (False, GENERIC_FAILURE),
])
def test_a_committed_refusal_is_explained_by_the_agents_grounding(grounding, observation):
    # The planner's only root child is refused by its precondition, so the
    # agent commits it; the planner simulated it for its verdict alone, and
    # the agent's own call explains the refusal when grounding is on.
    script = ScriptedBackend.ordered(
        ["Thought: place\nAction: Place Object\nAction Input: {'object_id': 'Basket_1'}"]
    )
    task = simple_task(
        [GoalAtom("containment", "Tomato", receptacle_pattern="Basket")], max_steps=1
    )
    config = AgentConfig(mode="react+mcts", grounding_enabled=grounding, planner=MCTS_BUDGET_ONE)
    record = run_episode(task, config, script, pickup_world())
    assert record.outcome == "step-budget-exhausted"
    assert [step.observation for step in record.steps] == [observation]
    assert record.llm_call_count == 1


def _react_script_with_each_step_kind():
    return RecordingBackend.ordered([
        "no action here",
        "Thought: hm\nAction: Levitate Object\nAction Input: {'object_id': 'Tomato_1'}",
        "Thought: done\nFinal Answer: fine",
    ])


def _prose_script():
    # Every proposal is prose, so the planner has no root child to commit.
    return RecordingBackend.ordered(["prose"], cyclic=True)


@pytest.mark.parametrize(
    "mode, planner, script, outcome",
    [
        ("react", PlannerConfig(), _react_script_with_each_step_kind, "agent-declared-final"),
        ("react+mcts", MCTS_BUDGET_ONE, tomato_planner_script, "step-budget-exhausted"),
        ("react+mcts", PlannerConfig(expansion_budget=2, children_per_expansion=2),
         _prose_script, "failure"),
    ],
    ids=["react", "react+mcts", "no-feasible-action"],
)
def test_the_record_counts_every_model_call(mode, planner, script, outcome):
    backend = script()
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isCooked", value=True)], max_steps=3
    )
    record = run_episode(task, AgentConfig(mode=mode, planner=planner), backend, pickup_world())
    assert record.outcome == outcome
    assert record.llm_call_count == backend.call_count > 0


def test_mcts_episode_loads_each_template_once(monkeypatch):
    loads = []

    def counting_load(name, directory=None):
        loads.append(name)
        return load_template(name, directory=directory)

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


def test_react_episode_describes_the_tools_once(monkeypatch):
    describes = []
    real_library = mcts.builtin_tool_library

    def counting_library():
        describes.append(1)
        return real_library()

    monkeypatch.setattr(mcts, "builtin_tool_library", counting_library)
    explore = "Thought: look\nAction: Randomly Explore\nAction Input: {'input': None}"
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isCooked", value=True)], max_steps=5
    )
    record = run_episode(task, AgentConfig(), ScriptedBackend.ordered([explore], cyclic=True),
                         pickup_world())
    assert len(record.steps) == 5
    assert len(describes) == 1


def reference_window(steps: list[StepRecord], char_budget: int = 24000) -> list[str]:
    """The renderings a whole-history scratchpad keeps: every step's,
    truncated oldest-first to the budget, the newest step kept regardless."""
    parts = [step.rendered for step in steps]
    length = sum(len(part) for part in parts)
    start = 0
    while length > char_budget and start < len(parts) - 1:
        length -= len(parts[start])
        start += 1
    return parts[start:]


def reference_scratchpad(steps: list[StepRecord], char_budget: int = 24000) -> str:
    return "".join(reference_window(steps, char_budget))


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
    full = build_scratchpad(steps, Scratchpad(char_budget=10**6))
    truncated = build_scratchpad(steps, Scratchpad(char_budget=400))
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
    rendered = [build_scratchpad([step], Scratchpad(char_budget=10**6)) for step in steps]
    text = build_scratchpad(steps, Scratchpad(char_budget=budget))
    suffixes = ["".join(rendered[k:]) for k in range(len(rendered) + 1)]
    assert text in suffixes
    start = suffixes.index(text)
    # Within budget unless only the newest step is left ...
    assert len(text) <= budget or start == len(steps) - 1
    # ... and the next longer suffix is over budget.
    if start > 0:
        assert len(suffixes[start - 1]) > budget


@given(st.lists(_step_records, max_size=40), st.integers(min_value=0, max_value=800))
def test_scratchpad_window_matches_the_whole_history_rendering(steps, budget):
    # One pad across every prefix, as an episode uses it: each call gives the
    # reference text, and the window never holds more parts than the
    # reference keeps, so its state does not grow with the history.
    pad = Scratchpad(char_budget=budget)
    for i in range(len(steps) + 1):
        text = build_scratchpad(steps[:i], pad)
        assert text == reference_scratchpad(steps[:i], char_budget=budget)
        assert len(pad.parts) <= len(reference_window(steps[:i], char_budget=budget))
        assert pad.length == len(text)
    # A history exactly at the budget fits it whole.
    assert build_scratchpad(steps, Scratchpad(char_budget=len(text))) == text


def test_each_step_is_rendered_once(monkeypatch, kitchen_world, clear_table_trace,
                                    clear_table_task):
    rendered = []
    render_step = llm.format_step

    def counting_render(step):
        rendered.append(step)
        return render_step(step)

    monkeypatch.setattr(llm, "format_step", counting_render)
    config = AgentConfig(mode="react", grounding_enabled=True)
    record = run_episode(clear_table_task, config, trace_script(clear_table_trace), kitchen_world)
    assert len(record.steps) == 35
    assert len(rendered) == 35  # not once per step per decision
    with pytest.raises(FrozenInstanceError):
        record.steps[0].observation = "rewritten"


# About 700 characters a step, so 60 steps pass the 24,000-character budget.
_LONG_EXPLORE = ("Thought: " + "the counter is still cluttered, so look around once more; " * 11
                 + "\nAction: Randomly Explore\nAction Input: {'input': None}")


def _long_task():
    return simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isCooked", value=True)], max_steps=60
    )


def test_react_episode_past_the_budget_prompts_the_reference_scratchpad(monkeypatch,
                                                                       kitchen_world):
    rendered = []
    render_step = llm.format_step

    def counting_render(step):
        rendered.append(step)
        return render_step(step)

    monkeypatch.setattr(llm, "format_step", counting_render)
    backend = RecordingBackend.ordered([_LONG_EXPLORE] * 7 + ["no action here"], cyclic=True)
    task = _long_task()
    record = run_episode(task, AgentConfig(), backend, kitchen_world)
    assert record.outcome == "step-budget-exhausted"
    # Each step a later decision shows is rendered once, in order (the last
    # step has no later decision); trimming the window re-renders none.
    assert len(record.steps) == 60
    assert [id(step) for step in rendered] == [id(step) for step in record.steps[:-1]]
    assert StepRecord("", None, None, UNPARSED_ACTION) in record.steps
    assert len(reference_scratchpad(record.steps, char_budget=10**6)) > 24000
    planner = mcts.MctsPlanner(backend)
    assert backend.prompts == [
        planner.expansion_prompt(task.instruction, reference_scratchpad(record.steps[:i]))
        for i in range(len(record.steps))
    ]


def test_mcts_episode_past_the_budget_plans_on_the_reference_scratchpad(monkeypatch,
                                                                        kitchen_world):
    histories = []
    real_plan = mcts.MctsPlanner.plan

    def recording_plan(self, state, goal, history=""):
        histories.append(history)
        return real_plan(self, state, goal, history=history)

    monkeypatch.setattr(mcts.MctsPlanner, "plan", recording_plan)
    script = ScriptedBackend(
        [
            ScriptEntry(completion=_LONG_EXPLORE, match="you should always think", uses=-1),
            ScriptEntry(completion="Score: 5", match="Score the quality", uses=-1),
        ],
        mode="keyed",
    )
    config = AgentConfig(mode="react+mcts", planner=MCTS_BUDGET_ONE)
    record = run_episode(_long_task(), config, script, kitchen_world)
    assert record.outcome == "step-budget-exhausted"
    assert len(reference_scratchpad(record.steps, char_budget=10**6)) > 24000
    assert histories == [reference_scratchpad(record.steps[:i]) for i in range(60)]


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


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("mode", ["react", "react+mcts"])
def test_a_non_finite_number_in_an_action_input_is_written_as_text(mode):
    # Strict JSON has no Infinity: the transcript keeps such args as the text
    # the scratchpad shows for them, as it does a set-valued input.
    script = ScriptedBackend(
        [
            ScriptEntry(completion="Thought: t\nAction: Pick Up Object\n"
                        "Action Input: {'object_id': 1e999}",
                        match="you should always think", uses=-1),
            ScriptEntry(completion="Score: 5", match="Score the quality", uses=-1),
        ],
        mode="keyed",
    )
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isCooked", value=True)], max_steps=2
    )
    config = AgentConfig(mode=mode, planner=MCTS_BUDGET_ONE)
    record = run_episode(task, config, script, pickup_world())
    assert record.steps[0].args == {"object_id": float("inf")}
    steps = _strict_json(record.serialize())["steps"]
    assert [step["args"] for step in steps] == ["{'object_id': inf}"] * 2


@pytest.mark.parametrize("mode", ["react", "react+mcts"])
def test_a_string_action_input_is_committed_as_written(mode):
    listing = "Thought: list\nAction: Get Discovered Objects\nAction Input: everything"
    backend = RecordingBackend(
        [
            ScriptEntry(completion=listing, match="you should always think", uses=-1),
            ScriptEntry(completion="Score: 5", match="Score the quality", uses=-1),
        ],
        mode="keyed",
    )
    task = simple_task(
        [GoalAtom("attribute", "Tomato", attribute="isCooked", value=True)], max_steps=2
    )
    config = AgentConfig(mode=mode, planner=MCTS_BUDGET_ONE)
    record = run_episode(task, config, backend, pickup_world())
    assert [step.args for step in record.steps] == ["everything"] * 2
    assert [step["args"] for step in json.loads(record.serialize())["steps"]] == ["everything"] * 2
    # The second decision's expansion prompt shows the committed step as written.
    expansions = [prompt for prompt in backend.prompts if "you should always think" in prompt]
    assert f"{listing}\nObservation: {record.steps[0].observation}\n" in expansions[1]


def test_serialize_excludes_wall_clock():
    record = EpisodeRecord(
        task_id="t",
        config_label="react/grounding-on",
        steps=[],
        outcome="success",
        llm_call_count=0,
        wall_clock=123.456,
    )
    assert "wall_clock" not in record.serialize()


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
