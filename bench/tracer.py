"""In-memory span tracer that wraps homeplan's layer functions from outside.

Every layer function is patched at each binding a caller looks it up
through (``homeplan.agent.execute`` as well as ``homeplan.sim.execute``):
any attribute of a loaded ``homeplan`` module that is the function object
itself. So one call records exactly one span. A span keeps its name, start, end,
parent span and episode id; a layer's self time is its span's duration
minus the time its child spans cover. Nothing under ``src/`` is changed:
``install`` swaps module attributes and ``restore`` puts them back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module path, function name, span name): each function is looked up where
# it is defined, and every homeplan module attribute bound to that same
# function object is patched, so a new ``from .sim import execute`` in some
# module is traced without a change here. A function that a refactor
# removes is skipped; the expected-layer check then reports its layer.
FUNCTIONS = (
    ("homeplan.suite", "run_episode", "suite.run_episode"),
    ("homeplan.suite", "resolve_world", "suite.resolve_world"),
    ("homeplan.world", "world_from_dict", "world.world_from_dict"),
    ("homeplan.sim", "execute", "sim.execute"),
    ("homeplan.sim", "refresh_visibility", "sim.refresh_visibility"),
    ("homeplan.sim", "check_goal", "sim.check_goal"),
    ("homeplan.grounding", "evaluate", "grounding.evaluate"),
    ("homeplan.grounding", "unsatisfied", "grounding.unsatisfied"),
    ("homeplan.agent", "build_scratchpad", "agent.build_scratchpad"),
    ("homeplan.llm", "render_prompt", "llm.render_prompt"),
    ("homeplan.llm", "load_template", "llm.load_template"),
    ("homeplan.llm", "parse_react", "llm.parse_react"),
    ("homeplan.llm", "parse_critique", "llm.parse_critique"),
    ("homeplan.mcts", "select", "mcts.select"),
)
# (module:class, method name, span name): methods are looked up through
# the class, so patching the class attribute covers every caller.
METHODS = (
    ("homeplan.mcts:MctsPlanner", "plan", "mcts.plan"),
    ("homeplan.mcts:MctsPlanner", "expand", "mcts.expand"),
    ("homeplan.mcts:MctsPlanner", "critique", "mcts.critique"),
    ("standin:StandInModel", "complete", "model.complete"),
)

SETUP_FUNCTIONS = (
    ("homeplan.formula", "parse_precondition", "formula.parse_precondition"),
)


def _resolve(path: str):
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def _bindings(functions, methods) -> list[tuple]:
    """(owner, attribute, span name) for every binding to patch."""
    originals = [(_resolve(path).__dict__.get(attribute), name)
                 for path, attribute, name in functions]
    homeplan_modules = [module for key, module in list(sys.modules.items())
                        if key == "homeplan" or key.startswith("homeplan.")]
    found = []
    for original, name in originals:
        if original is None:
            continue
        found += [(module, key, name) for module in homeplan_modules
                  for key, value in vars(module).items() if value is original]
    for path, attribute, name in methods:
        owner = _resolve(path)
        if attribute in owner.__dict__:
            found.append((owner, attribute, name))
    return found


class Tracer:
    """Collects spans and per-layer counts; thread-safe for worker pools."""

    def __init__(self, record_spans: bool = True):
        self.record_spans = record_spans
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, episode)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._threads: list[dict] = []  # per-thread {name: {counter: value}}
        self._lock = threading.Lock()
        self._patched: list[tuple] = []

    # -- per-thread state ---------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.episode = None
            local.stats = defaultdict(lambda: defaultdict(float))
            with self._lock:
                self._threads.append(local.stats)
        return local

    def count(self, name: str, key: str, amount: float = 1) -> None:
        self._state().stats[name][key] += amount

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        """Return fn wrapped in a span; observe(tracer, args, result, error)
        may add layer counters once the call returns."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = tracer._state()
            stack = local.stack
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            frame = [span_id, 0.0, name]  # id, time covered by children, name
            if name == "suite.run_episode":
                local.episode = args[0].id
            stack.append(frame)
            result = error = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                stats = local.stats[name]
                stats["calls"] += 1
                stats["total_s"] += duration
                stats["self_s"] += duration - frame[1]
                if name == "model.complete" and parent is not None:
                    local.stats[parent[2]]["model_calls"] += 1
                if tracer.record_spans:
                    tracer.spans.append(
                        (span_id, name, start, end, parent[0] if parent else None,
                         local.episode)
                    )
                if observe is not None:
                    observe(tracer, args, result, error)
                if name == "suite.run_episode":
                    local.episode = None

        return traced

    def install(self, functions=FUNCTIONS, methods=METHODS) -> None:
        wrapped = {}  # one wrapper per original function
        for owner, attribute, name in _bindings(functions, methods):
            original = owner.__dict__[attribute]
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(name, original, OBSERVERS.get(name))
            self._patched.append((owner, attribute, original))
            setattr(owner, attribute, wrapped[id(original)])

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    # -- results -------------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Merged per-layer counters: calls, self_s and observer counters;
        a layer or counter never recorded reads 0."""
        merged: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        with self._lock:
            for stats in self._threads:
                for name, counters in stats.items():
                    for key, value in counters.items():
                        merged[name][key] += value
        return merged

    def write_spans(self, path) -> int:
        """Write spans as gzipped JSON lines, times in microseconds from the
        first span's start; returns the number written."""
        spans = sorted(self.spans)
        origin = min((span[2] for span in spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, episode in spans:
                handle.write(json.dumps({
                    "id": span_id,
                    "name": name,
                    "start_us": round((start - origin) * 1e6, 1),
                    "end_us": round((end - origin) * 1e6, 1),
                    "parent": parent,
                    "episode": episode,
                }) + "\n")
        return len(spans)


# -- layer counters measured where the work happens ---------------------------


def _observe_execute(tracer, args, result, error):
    rejected = error is not None or not result[1].success
    tracer.count("sim.execute", "rejected", int(rejected))


def _observe_expand(tracer, args, result, error):
    tracer.count("mcts.expand", "kept", len(result) if result is not None else 0)


OBSERVERS = {
    "sim.execute": _observe_execute,
    "mcts.expand": _observe_expand,
}
