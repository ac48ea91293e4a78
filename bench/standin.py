"""Bench-side stand-in language model.

Proposals are a deterministic function of (seed, task, proposal index):
the index counts the expansion-template prompts this episode's model has
answered. Critique scores are a deterministic function of (seed, prompt).
The tool mix follows the shipped kitchen transcript (see ``TOOL_MENU``).
A share ``focus_share`` of the object ids a proposal names are the task's
own objects, the rest any object of the world. In the transcript almost
every object id belongs to its task; the suites use 0.5 instead, a choice,
so that episodes take tens of steps rather than ending after a few, and
react-long uses 0 so that its episodes run to their budget. Fixed small shares of
proposals are malformed, name an unknown tool, carry an invalid object id
or give a final answer, and a small share of first critiques of a prompt
carry no ``Score:`` line, so the retry and feedback paths of the agent and
planner run.

One model is built per episode (``ModelFactory`` is the backend factory
handed to ``run_suite``), so nothing depends on how episodes interleave
across workers.
"""

from __future__ import annotations

import hashlib
import threading
import time

from homeplan.llm import LlmBackend

CRITIQUE_HEADER = "Score the quality the plan"  # first words of critique.txt

# Error shares. The transcript holds no errors, so these are not measured
# traffic: they are small fixed shares chosen so that the agent's feedback
# paths and the planner's retry paths run on every workload.
MALFORMED_SHARE = 0.02
UNKNOWN_TOOL_SHARE = 0.02
BAD_ARGS_SHARE = 0.01
NO_SCORE_SHARE = 0.05

# (tool, weight, takes an object id). The weights are the action counts of
# the shipped kitchen transcript (homeplan/data/traces/clear_table.json, 35
# actions); the six tools it never uses get weight 1, so that their
# simulator and grounding paths run too.
TOOL_MENU = (
    ("Place Object", 12, True),
    ("Pick Up Object", 10, True),
    ("Adjust Positioning", 9, True),
    ("Randomly Explore", 1, False),
    ("Get Discovered Objects", 1, False),
    ("Inspect Object", 1, True),
    ("Search Object", 1, True),
    ("Open Object", 1, True),
    ("Close Object", 1, True),
    ("Toggle Object On", 1, True),
    ("Toggle Object Off", 1, True),
    ("Fill Held Object With Water", 1, False),
    ("Pour Water Into", 1, True),
)
_TOTAL_WEIGHT = sum(weight for _, weight, _ in TOOL_MENU)


def draws(count: int, seed: int, *labels) -> list[float]:
    """``count`` independent uniform draws in [0, 1) keyed on seed and labels."""
    key = "|".join(str(label) for label in (seed, *labels))
    digest = hashlib.blake2b(key.encode(), digest_size=8 * count).digest()
    return [int.from_bytes(digest[i:i + 8], "big") / 2**64 for i in range(0, 8 * count, 8)]


def _pick_tool(u: float) -> tuple[str, bool]:
    threshold = u * _TOTAL_WEIGHT
    for name, weight, takes_object in TOOL_MENU:
        threshold -= weight
        if threshold < 0:
            return name, takes_object
    return TOOL_MENU[-1][0], TOOL_MENU[-1][2]


class StandInModel(LlmBackend):
    """Deterministic offline completions for one episode. Each call first
    lets the pass's HostClock take a host-speed sample if one is due."""

    def __init__(self, seed: int, task_id: str, task_objects: list[str], object_ids: list[str],
                 final_share: float, focus_share: float, clock, delay_s: float = 0.0,
                 stamp_calls: bool = False):
        self.seed = seed
        self.task_id = task_id
        self.task_objects = task_objects  # the task's target and destination
        self.object_ids = object_ids
        self.delay_s = delay_s
        self.final_share = final_share
        self.focus_share = focus_share
        self.clock = clock  # the pass's HostClock
        self.stamp_calls = stamp_calls
        self.proposals = 0
        self.calls = 0
        self.prompt_chars = 0
        self.wait_s = 0.0
        self.critique_calls = 0
        self.critique_seen: set[str] = set()
        self.stamps: list[float] = []  # step-clock timestamps (clock.now())

    def complete(self, prompt: str, temperature: float = 0.0,
                 max_tokens: int | None = None) -> str:
        self.clock.tick()
        if self.stamp_calls:
            self.stamps.append(self.clock.now())
        started = time.perf_counter()
        self.calls += 1
        self.prompt_chars += len(prompt)
        if prompt.startswith(CRITIQUE_HEADER):
            text = self._critique(prompt)
        else:
            text = self._propose()
        if self.delay_s:
            time.sleep(self.delay_s)
        self.wait_s += time.perf_counter() - started
        return text

    def _propose(self) -> str:
        index = self.proposals
        self.proposals += 1
        kind, tool_draw, bad_args, focus, object_draw = draws(5, self.seed, self.task_id, index)
        if kind < MALFORMED_SHARE:
            return f"Thought: step {index}, I am not sure which tool fits here.\n"
        kind -= MALFORMED_SHARE
        if kind < UNKNOWN_TOOL_SHARE:
            return (
                f"Thought: step {index}, teleporting would be fastest.\n"
                "Action: Teleport Object\n"
                f"Action Input: {{'object_id': '{self.task_objects[0]}'}}\n"
            )
        kind -= UNKNOWN_TOOL_SHARE
        if kind < self.final_share:
            return (
                f"Thought: step {index}, I now know the final answer\n"
                "Final Answer: The task is complete.\n"
            )
        tool, takes_object = _pick_tool(tool_draw)
        if not takes_object:
            action_input = "{'input': None}"
        elif bad_args < BAD_ARGS_SHARE:
            action_input = "{'object_id': 'the object'}"
        else:
            pool = self.task_objects if focus < self.focus_share else self.object_ids
            action_input = f"{{'object_id': '{pool[int(object_draw * len(pool))]}'}}"
        # About 150 characters, the mean thought length of the shipped transcript.
        return (
            f"Thought: Step {index}. To make progress on the task I will use {tool} next, "
            f"with input {action_input}; its observation should tell me what to try "
            "after that.\n"
            f"Action: {tool}\n"
            f"Action Input: {action_input}\n"
        )

    def _critique(self, prompt: str) -> str:
        self.critique_calls += 1
        key = hashlib.blake2b(prompt.encode(), digest_size=16).hexdigest()
        first = key not in self.critique_seen
        self.critique_seen.add(key)
        no_score, score_draw = draws(2, self.seed, key)
        if first and no_score < NO_SCORE_SHARE:
            return "Justification: The plan is hard to judge from here.\n"
        score = 1 + int(score_draw * 10)
        return f"Justification: The plan rates {score} on progress.\nScore: {score}\n"


class ModelFactory:
    """``run_suite`` backend factory: a fresh model per episode.

    ``run_suite`` calls the factory in the worker thread immediately before
    ``run_episode``, so ``current()`` names the model of the episode running
    on the calling thread.
    """

    def __init__(self, seed: int, object_ids: dict[str, list[str]], **options):
        self.seed = seed
        self.object_ids = object_ids  # world reference -> its object ids
        self.options = options  # StandInModel keyword arguments
        self.models: dict[str, StandInModel] = {}
        self._local = threading.local()

    def __call__(self, task) -> StandInModel:
        goal = task.goal[0]
        model = StandInModel(self.seed, task.id, [goal.object_pattern, goal.receptacle_pattern],
                             self.object_ids[task.world], **self.options)
        self.models[task.id] = model
        self._local.model = model
        return model

    def current(self) -> StandInModel:
        return self._local.model
