"""Task-suite generation, batch episode execution, and metric reports.

The easy-suite generator samples pick-and-place triples from world fixtures
with a counter-keyed generator, so the same seed always yields the same
suite. Reports render both as human tables and as stable JSON; episodes
are reported by task id, then by repetition, whatever the worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache
from pathlib import Path

from .agent import OUTCOME_FAILURE, AgentConfig, EpisodeRecord, run_episode
from .errors import (
    DATA,
    HomeplanError,
    InputFormatError,
    InsufficientObjectsError,
    check_fields,
    read_input,
)
from .sim import GoalAtom, TaskSpec, task_from_dict, task_to_dict
from .tools import builtin_tool_library, seeded_draw
from .world import WorldState, category_of, load_world

SKILL_ORDER = ("locate", "move", "perceive", "manipulate", "place")
# A run keeps every episode's record until its report is written, about 16 KB
# for a 30-step episode, so a loaded suite may hold at most this many episodes.
MAX_EPISODES = 100_000


@dataclass(frozen=True)
class SuiteSpec:
    name: str
    seed: int
    tasks: tuple[TaskSpec, ...]
    repetitions: int = 1

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "tasks": [task_to_dict(task) for task in self.tasks],
        }


_SUITE_FIELDS = {"name": str, "tasks": (list, dict)}
_SUITE_OPTIONAL = {"seed": int, "repetitions": int}


def suite_from_dict(data: dict) -> SuiteSpec:
    check_fields(data, "suite", _SUITE_FIELDS, _SUITE_OPTIONAL)
    tasks = tuple(task_from_dict(entry) for entry in data["tasks"])
    if not tasks:
        raise InputFormatError("suite has no tasks")
    seen = set()
    for task in tasks:
        if task.world is None:
            raise InputFormatError(f"task {task.id}: a suite task needs a world")
        if task.id in seen:
            raise InputFormatError(f"task {task.id}: the id repeats")
        seen.add(task.id)
    repetitions = data.get("repetitions", 1)
    if repetitions < 1:
        raise InputFormatError("repetitions must be at least 1")
    if len(tasks) > MAX_EPISODES:
        raise InputFormatError(f"a suite may hold at most {MAX_EPISODES} tasks "
                               f"({len(tasks)} given)")
    if len(tasks) * repetitions > MAX_EPISODES:
        raise InputFormatError(f"repetitions must be at most {MAX_EPISODES // len(tasks)} "
                               f"for {len(tasks)} tasks ({MAX_EPISODES} episodes a run)")
    return SuiteSpec(
        name=data["name"],
        seed=data.get("seed", 0),
        tasks=tasks,
        repetitions=repetitions,
    )


def load_suite(path: str | Path) -> SuiteSpec:
    return suite_from_dict(read_input(path))


def save_suite(suite: SuiteSpec, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(suite.to_dict(), handle, indent=2, ensure_ascii=False)
        handle.write("\n")


def resolve_world(ref: str, base_dir: str | Path | None = None) -> WorldState:
    """Resolve a task's world reference: absolute path, relative to the
    suite file, or shipped package data."""
    candidate = Path(ref)
    if candidate.is_absolute() and candidate.exists():
        return load_world(candidate)
    if base_dir is not None and (Path(base_dir) / ref).exists():
        return load_world(Path(base_dir) / ref)
    if DATA.joinpath(ref).is_file():
        return load_world(DATA.joinpath(ref))
    raise InputFormatError(f"world fixture not found: {ref!r}")


# ---------------------------------------------------------------------------
# Easy-suite generation


_WORD_START = re.compile(r"(?<!^)(?=[A-Z])")


@lru_cache(maxsize=None)
def _spaced_category(object_id: str) -> str:
    return _WORD_START.sub(" ", category_of(object_id)).lower()


def generate_easy_suite(
    seed: int,
    count: int,
    world_refs: list[str],
    name: str = "easy",
) -> SuiteSpec:
    """Sample pick-and-place rearrangement tasks across the given worlds.
    Each world's sorted ids are split once into its movable objects and its
    fixed receptacles; a world short of either fails when a task draws it.
    A destination never already holds its target, at any depth, so no task
    starts with its goal met."""
    if count < 1:
        raise InputFormatError("count must be at least 1")
    if count > MAX_EPISODES:
        raise InputFormatError(f"count must be at most {MAX_EPISODES}, "
                               "the most tasks a suite may hold")
    if not world_refs:
        raise InputFormatError("no world to sample tasks from")
    pools = []
    for ref in world_refs:
        world = resolve_world(ref)
        objects = sorted(world.objects.items())
        movable = [oid for oid, info in objects
                   if info.pickupable and world.parent_of(oid) is not None]
        fixed = [oid for oid, info in objects if info.receptacle and not info.pickupable]
        pools.append((ref, world, movable, fixed))

    tasks = []
    for index in range(count):
        ref, world, movable, fixed = pools[index % len(pools)]
        if not movable:
            raise InsufficientObjectsError(f"{ref}: no pickupable objects on receptacles")
        target = movable[seeded_draw(seed, "task", index, "object") % len(movable)]
        source = world.parent_of(target)
        ancestors = world.ancestors_of(target)
        destinations = [oid for oid in fixed if oid not in ancestors]  # the target is not fixed
        if not destinations:
            raise InsufficientObjectsError(f"{ref}: no destination receptacles")
        destination = destinations[seeded_draw(seed, "task", index, "dest") % len(destinations)]

        preposition = "in" if world.objects[destination].openable else "on"
        instruction = (
            f"The agent should pick up the {_spaced_category(target)} that is on the "
            f"{_spaced_category(source)} and place it {preposition} the "
            f"{_spaced_category(destination)}."
        )
        tasks.append(
            TaskSpec(
                id=f"{name}-{index + 1:03d}",
                difficulty="easy",
                instruction=instruction,
                goal=(GoalAtom("containment", target, receptacle_pattern=destination),),
                max_steps=50,
                world=ref,
            )
        )
    return SuiteSpec(name=name, seed=seed, tasks=tuple(tasks))


# ---------------------------------------------------------------------------
# Suite execution


@dataclass
class MetricsReport:
    suite_name: str
    config_label: str
    seed: int
    episodes: list[dict]
    errors: list[str] = field(default_factory=list)

    @property
    def completion_rate(self) -> float | None:
        """The percentage of episodes that succeeded; None with no episode."""
        if not self.episodes:
            return None
        return 100 * sum(e["success"] for e in self.episodes) / len(self.episodes)

    def per_difficulty(self) -> dict[str, dict]:
        groups: dict[str, list[dict]] = {}
        for episode in self.episodes:
            groups.setdefault(episode["difficulty"], []).append(episode)
        result = {}
        for difficulty in sorted(groups):
            members = groups[difficulty]
            successes = sum(e["success"] for e in members)
            result[difficulty] = {
                "successes": successes,
                "total": len(members),
                "rate_percent": render_rate(100 * successes / len(members)),
            }
        return result

    def to_dict(self) -> dict:
        return {
            "suite": self.suite_name,
            "config": self.config_label,
            "seed": self.seed,
            "episodes": self.episodes,
            "completion_rate_percent": render_rate(self.completion_rate),
            "per_difficulty": self.per_difficulty(),
            "stepwise": stepwise_from_episodes(self.episodes).to_dict(),
            "errors": self.errors,
        }

    def serialize(self) -> str:
        return json.dumps(self.to_dict(), indent=2, ensure_ascii=False)

    def render_text(self) -> str:
        lines = [
            f"suite: {self.suite_name}   config: {self.config_label}   seed: {self.seed}",
            f"task completion: {with_percent_sign(render_rate(self.completion_rate))} "
            f"({sum(e['success'] for e in self.episodes)}/{len(self.episodes)})",
        ]
        for difficulty, row in self.per_difficulty().items():
            lines.append(
                f"  {difficulty:<10} {row['rate_percent']}% "
                f"({row['successes']}/{row['total']})"
            )
        table = stepwise_from_episodes(self.episodes)
        lines.append("")
        lines.append(table.render_text())
        for error in self.errors:
            lines.append(f"error: {error}")
        return "\n".join(lines)


_REPORT_FIELDS = {"suite": str, "config": str, "seed": int, "episodes": (list, dict)}
# errors, and the fields serialize derives, which load_report recomputes
_REPORT_OPTIONAL = {"errors": (list, str), "completion_rate_percent": str,
                    "per_difficulty": dict, "stepwise": dict}
_EPISODE_FIELDS = {"difficulty": str, "success": bool}
_EPISODE_OPTIONAL = {"id": str, "outcome": str, "steps": int, "llm_calls": int,
                     "actions": (list, dict)}
_ACTION_FIELDS = {"action": str, "ok": bool}


def load_report(path: str | Path) -> MetricsReport:
    """Read back a report file that ``homeplan run`` wrote."""
    data = check_fields(read_input(path), "report", _REPORT_FIELDS, _REPORT_OPTIONAL)
    for index, episode in enumerate(data["episodes"], start=1):
        where = f"report episode {index}"
        check_fields(episode, where, _EPISODE_FIELDS, _EPISODE_OPTIONAL)
        for action in episode.get("actions", ()):
            check_fields(action, f"{where} action", _ACTION_FIELDS)
    return MetricsReport(data["suite"], data["config"], data["seed"], data["episodes"],
                         data.get("errors", []))


def render_rate(value: float | None) -> str:
    """One-decimal percentage with trailing .0 dropped (35.0 -> "35"), or
    "n/a" for a rate over nothing (None)."""
    return "n/a" if value is None else f"{round(value, 1):g}"


def with_percent_sign(rate: str) -> str:
    """A rendered rate as text: "35%", but "n/a" as it is."""
    return rate if rate == "n/a" else f"{rate}%"


def config_hash(config: AgentConfig, suite: SuiteSpec, backend: str,
                messages: str | None) -> str:
    """Report-file key: a hash of every agent and planner field (the template
    directory as its path), the backend spec (a script as its path), the
    messages path, and the suite's name and seed. No file is read for it: the
    tasks, worlds, script entries and template and message texts are not
    hashed, so two runs that differ only in those share a key."""
    payload = json.dumps(
        {
            "config": asdict(config),
            "backend": backend,
            "messages": messages,
            "suite": suite.name,
            "seed": suite.seed,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def run_suite(
    suite: SuiteSpec,
    config: AgentConfig,
    backend_factory,
    base_dir: str | Path | None = None,
    workers: int = 1,
    seed_override: int | None = None,
    messages=None,
) -> tuple[MetricsReport, list[EpisodeRecord]]:
    """Execute every episode; backend_factory(task) supplies each backend
    (pass a plain backend object to share one across episodes). Returns the
    report and one record per episode, by task id, then by repetition: the
    order they also run in at one worker. A HomeplanError (an input that does
    not load, a backend or script fault) fails only its episodes, one error
    line each; any other exception is a bug and propagates."""
    if workers < 1:
        raise ValueError(f"workers must be at least 1, not {workers}")

    jobs = [(task, task.id if suite.repetitions == 1 else f"{task.id}#{repetition}")
            for task in sorted(suite.tasks, key=lambda task: task.id)
            for repetition in range(1, suite.repetitions + 1)]

    # Each distinct world is resolved once per run and shared by its episodes;
    # a fixture error is kept and raised in each of them.
    worlds: dict[str, WorldState | HomeplanError] = {}
    for ref in dict.fromkeys(task.world for task in suite.tasks):
        try:
            world = resolve_world(ref, base_dir)
            if seed_override is not None:
                world = replace(world, agent=replace(world.agent, rng_seed=seed_override))
        except HomeplanError as exc:
            world = exc
        worlds[ref] = world

    def run_one(job) -> tuple[EpisodeRecord, HomeplanError | None]:
        """The episode's record and, for an infrastructure failure (a failed
        record with no steps), the exception; program bugs propagate."""
        task, _ = job
        world = worlds[task.world]
        try:
            if isinstance(world, HomeplanError):
                raise world.with_traceback(None)  # not one frame more per episode
            backend = backend_factory(task) if callable(backend_factory) else backend_factory
            return run_episode(task, config, backend, world, messages=messages), None
        except HomeplanError as exc:
            return EpisodeRecord(task_id=task.id, config_label=config.label(), steps=[],
                                 outcome=OUTCOME_FAILURE, llm_call_count=0, error=str(exc)), exc

    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = list(map(run_one, jobs))

    report = MetricsReport(suite.name, config.label(),
                           suite.seed if seed_override is None else seed_override, episodes=[])
    for (task, episode_id), (record, exc) in zip(jobs, results):
        report.episodes.append(record.report_entry(episode_id, task.difficulty))
        if exc is not None:
            report.errors.append(f"{episode_id}: {exc}")
    return report, [record for record, _ in results]


# ---------------------------------------------------------------------------
# Step-wise success reporting


@dataclass(frozen=True)
class StepwiseRow:
    skill: str
    successes: int
    failures: int
    reported_ssr: float | None = None

    @property
    def total(self) -> int:
        return self.successes + self.failures

    @property
    def ssr(self) -> float:
        # One division of integers: no count is too large for it.
        return 100 * self.successes / self.total if self.total else 0.0

    @property
    def ssr_display(self) -> int:
        return int(self.ssr)  # truncated integer percent


@dataclass
class StepwiseTable:
    rows: list[StepwiseRow]

    @property
    def product_estimate(self) -> float | None:
        """The product of the SSRs of the attempted skills, in percent; None
        when no skill was attempted."""
        ratios = [row.successes / row.total for row in self.rows if row.total]
        return 100.0 * math.prod(ratios) if ratios else None

    def flags(self) -> list[str]:
        notes = []
        for row in self.rows:
            if row.reported_ssr is None:
                continue
            if int(row.reported_ssr) != row.ssr_display:
                notes.append(
                    f"{row.skill}: computed {row.ssr:.1f}% vs reported "
                    f"{render_rate(row.reported_ssr)}%"
                )
        return notes

    def to_dict(self) -> dict:
        return {
            "rows": [
                {
                    "skill": row.skill,
                    "successes": row.successes,
                    "failures": row.failures,
                    "total": row.total,
                    "ssr_percent": row.ssr_display,
                    **(
                        {"reported_ssr": row.reported_ssr}
                        if row.reported_ssr is not None
                        else {}
                    ),
                }
                for row in self.rows
            ],
            "product_estimate_percent": render_rate(self.product_estimate),
            "flags": self.flags(),
        }

    def render_text(self) -> str:
        lines = ["skill         success  failures  total  SSR"]
        for row in self.rows:
            lines.append(
                f"{row.skill:<14}{row.successes:>7}{row.failures:>10}"
                f"{row.total:>7}  {row.ssr_display}%"
            )
        lines.append("product-of-SSRs estimate: "
                     + with_percent_sign(render_rate(self.product_estimate)))
        for flag in self.flags():
            lines.append(f"flag: {flag}")
        return "\n".join(lines)


_COUNTS_FIELDS = {"rows": (list, dict)}
_ROW_FIELDS = {"skill": str, "successes": int, "failures": int}
_ROW_OPTIONAL = {"reported_ssr": int | float}


def stepwise_from_counts(rows: list[dict]) -> StepwiseTable:
    """Build a step-wise table from injected per-skill counts, none
    negative, each with an optional reported SSR from 0 to 100."""
    table = StepwiseTable(rows=[])
    for index, data in enumerate(rows, start=1):
        where = f"counts row {index}"
        row = StepwiseRow(**check_fields(data, where, _ROW_FIELDS, _ROW_OPTIONAL))
        if row.successes < 0 or row.failures < 0:
            raise InputFormatError(f"{where} ({row.skill}): a count is negative")
        if row.reported_ssr is not None and not 0 <= row.reported_ssr <= 100:
            raise InputFormatError(f"{where} ({row.skill}): reported_ssr is not from 0 to 100")
        table.rows.append(row)
    return table


def load_stepwise_counts(path: str | Path) -> StepwiseTable:
    """Tabulate a per-skill counts file: ``{"rows": [{skill, successes,
    failures, reported_ssr?}]}``."""
    counts = check_fields(read_input(path), "counts", _COUNTS_FIELDS)
    return stepwise_from_counts(counts["rows"])


def stepwise_from_episodes(episodes: list[dict]) -> StepwiseTable:
    """Aggregate per-skill attempt outcomes over executed actions. A tool
    name outside the built-in library (a hallucinated call) counts as a
    manipulation attempt."""
    library = builtin_tool_library()
    tally: dict[str, list[int]] = {}
    for episode in episodes:
        for action in episode.get("actions", ()):
            name = action["action"]
            skill = library[name].skill if name in library else "manipulate"
            bucket = tally.setdefault(skill, [0, 0])
            bucket[0 if action["ok"] else 1] += 1
    rows = [
        StepwiseRow(skill=skill, successes=tally[skill][0], failures=tally[skill][1])
        for skill in SKILL_ORDER
        if skill in tally
    ]
    return StepwiseTable(rows=rows)


def completion_rates(groups: dict[str, tuple[int, int]]) -> dict[str, str]:
    """Success-rate row from injected (successes, total) pairs per group,
    plus a pooled overall rate, whose key no group may take; a rate over a
    total of 0 is "n/a"."""
    if "overall" in groups:
        raise ValueError("completion counts label 'overall' is the pooled rate's key")
    result = {}
    total_successes = 0
    total_count = 0
    for label, (successes, total) in groups.items():
        result[label] = render_rate(100 * successes / total if total else None)
        total_successes += successes
        total_count += total
    result["overall"] = render_rate(
        100 * total_successes / total_count if total_count else None
    )
    return result
