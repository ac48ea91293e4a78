"""Every prompt a model receives in a scripted react episode and in a
scripted react+mcts episode, pinned byte for byte by one SHA-256 digest per
mode. The scripts reach an unknown tool, a malformed Action Input, a string
Action Input, an unparseable completion, a set-valued input, a final answer
and a proposed tool named "Final Answer"; the planner's expansion prompts
carry search paths two steps deep and its critique prompts three-step plans.
"""

import hashlib

import pytest

from homeplan.agent import AgentConfig, run_episode
from homeplan.llm import ScriptEntry
from homeplan.mcts import PlannerConfig
from homeplan.sim import GoalAtom

from .conftest import RecordingBackend
from .test_agent import pickup_world, simple_task

EXPAND = "you should always think"
CRITIQUE = "Score the quality"

UNKNOWN = "Thought: zap\nAction: Teleport Object\nAction Input: {'object_id': 'Tomato_1'}"
MALFORMED = "Thought: wrong key\nAction: Pick Up Object\nAction Input: {'item': 'Tomato_1'}"
STRING_INPUT = (
    "Thought: what is here\nAction: Get Discovered Objects\n"
    "Action Input: everything on the counter"
)
PICK = "Thought: grab it\nAction: Pick Up Object\nAction Input: {'object_id': 'Tomato_1'}"
SET_INPUT = "Thought: a set\nAction: Place Object\nAction Input: {'object_id': {'Basket_1'}}"
PLACE = "Thought: drop it in\nAction: Place Object\nAction Input: {'object_id': 'Basket_1'}"
FINAL = "Thought: looks done\nFinal Answer: all tidy"
FINAL_AS_TOOL = "Thought: finish\nAction: Final Answer\nAction Input: all tidy"


def _expansions(completions):
    """The completions in order, one each; then the tomato is placed once
    it is held and picked up until then."""
    return [ScriptEntry(completion=c, match=EXPAND) for c in completions] + [
        ScriptEntry(completion=PLACE, match="Target object was picked up!", uses=-1),
        ScriptEntry(completion=PICK, match=EXPAND, uses=-1),
    ]


def react_script():
    return RecordingBackend(
        _expansions([UNKNOWN, MALFORMED, STRING_INPUT, "I would rather not.", PICK, SET_INPUT]),
        mode="keyed",
    )


def planner_script():
    """Plans that start by listing the objects score 10, a final answer 1,
    any other plan 6. The first search expands its listing step, which the
    episode then commits, so the second decision's first prompt reads as
    that expansion's did, and the script tells them apart by order: the
    expansion gets the set-valued input and then a pick-up four times
    (three repeats); after that, a prompt that shows the listing step and
    no pick-up offers a final answer and a tool named "Final Answer" first."""
    critiques = [
        ScriptEntry(completion="Justification: premature\nScore: 1",
                    match="Final Answer: all tidy", uses=-1),
        ScriptEntry(completion="Justification: looks around first\nScore: 10",
                    match="1. Get Discovered Objects None", uses=-1),
        ScriptEntry(completion="Justification: fine\nScore: 6", match=CRITIQUE, uses=-1),
    ]
    listed = "Action Input: everything on the counter\nObservation"
    first = [ScriptEntry(completion=c, match=EXPAND)
             for c in (STRING_INPUT, MALFORMED, UNKNOWN, SET_INPUT)]
    first.append(ScriptEntry(completion=PICK, match=listed, uses=4))
    then = [ScriptEntry(completion=PLACE, match="Target object was picked up!", uses=-1),
            ScriptEntry(completion=FINAL, match=listed),
            ScriptEntry(completion=FINAL_AS_TOOL, match=listed),
            ScriptEntry(completion=PICK, match=EXPAND, uses=-1)]
    return RecordingBackend(critiques + first + then, mode="keyed")


# mode: (prompts received, SHA-256 over the prompts, each ended by a NUL)
GOLDEN = {
    "react": (7, "ae0c5e72b417856279fb01e5496beb4e5fb7a303fad7e51a19d2d3adcaf5b161"),
    "react+mcts": (44, "ac69a67627e11caeba5f704ec7e1b46300653a40ca2e6528abc11868a82eac37"),
}


def _episode(mode, backend):
    task = simple_task(
        [GoalAtom("containment", "Tomato", receptacle_pattern="Basket")],
        instruction="Put the tomato in the basket.",
        max_steps=10,
    )
    planner = PlannerConfig(expansion_budget=8, children_per_expansion=3, max_depth=3)
    config = AgentConfig(mode=mode, planner=planner)
    return run_episode(task, config, backend, pickup_world())


@pytest.mark.parametrize("mode", ["react", "react+mcts"])
def test_episode_prompts_match_the_golden_digest(mode):
    backend = react_script() if mode == "react" else planner_script()
    record = _episode(mode, backend)
    hasher = hashlib.sha256()
    for prompt in backend.prompts:
        hasher.update(prompt.encode() + b"\x00")
    assert record.outcome == "success"
    assert (len(backend.prompts), hasher.hexdigest()) == GOLDEN[mode]


def test_critique_prompts_name_each_child_by_its_call():
    """A declared final answer and a tool named "Final Answer" read apart in
    a critique plan, and so do two calls of one tool with different inputs.
    No critiqued plan names a refused call: a refused child is a leaf, never
    critiqued, and no path runs on past it."""
    backend = planner_script()
    _episode("react+mcts", backend)
    plans = [prompt.rsplit("\nPlan: ", 1)[1] for prompt in backend.prompts if CRITIQUE in prompt]
    discover = "1. Get Discovered Objects None"
    pick = "2. Pick Up Object {'object_id': 'Tomato_1'}"
    assert plans[:3] == [discover, f"{discover}\n{pick}",
                         f"{discover}\n{pick}\n3. Place Object {{'object_id': 'Basket_1'}}"]
    assert plans[3] == "1. Final Answer: all tidy"
    refused = ["Pick Up Object {'item': 'Tomato_1'}", "Teleport Object {'object_id': 'Tomato_1'}",
               "Place Object {'object_id': {'Basket_1'}}", "Final Answer None"]
    assert not any(label in plan for plan in plans for label in refused)
