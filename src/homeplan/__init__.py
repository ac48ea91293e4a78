"""Deterministic household task-planning benchmark.

Precondition-verified tool execution over a simulated household world,
ReAct-style agents with scripted or remote language-model backends, a
tree-search planner with model critique as its reward signal, and a
command-line harness for suites, metrics, and transcript replay.
"""

__version__ = "0.1.0"

from .formula import parse_precondition, print_precondition
from .grounding import evaluate, unsatisfied
from .sim import check_goal, execute, load_task, load_trace, replay_trace
from .tools import builtin_tool_library
from .world import WorldState, load_world, validate_world

__all__ = [
    "parse_precondition",
    "print_precondition",
    "evaluate",
    "unsatisfied",
    "check_goal",
    "execute",
    "load_task",
    "load_trace",
    "replay_trace",
    "builtin_tool_library",
    "WorldState",
    "load_world",
    "validate_world",
]
