"""Task-suite generation, batch episode execution, and metric reports.

The easy-suite generator samples pick-and-place triples from world fixtures
with a counter-keyed generator, so the same seed always yields the same
suite. Reports render both as human tables and as stable JSON; episode
ordering in a report is by task id regardless of worker completion order.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

from .agent import AgentConfig, EpisodeRecord, run_episode
from .errors import HomeplanError, InsufficientObjectsError, SuiteFormatError
from .sim import GoalAtom, TaskSpec, task_from_dict
from .tools import builtin_tool_library
from .world import WorldState, load_world

SKILL_ORDER = ("locate", "move", "perceive", "manipulate", "place")


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
            "tasks": [
                {
                    "id": task.id,
                    "difficulty": task.difficulty,
                    "instruction": task.instruction,
                    "goal": [_goal_atom_to_dict(atom) for atom in task.goal],
                    "maxSteps": task.max_steps,
                    "world": task.world,
                }
                for task in self.tasks
            ],
        }


def _goal_atom_to_dict(atom: GoalAtom) -> dict:
    data: dict = {"type": atom.kind, "object": atom.object_pattern}
    if atom.kind == "attribute":
        data["attribute"] = atom.attribute
        data["value"] = atom.value
    elif atom.kind == "containment":
        data["receptacle"] = atom.receptacle_pattern
    return data


def suite_from_dict(data: dict) -> SuiteSpec:
    tasks = tuple(task_from_dict(entry) for entry in data["tasks"])
    if not tasks:
        raise SuiteFormatError("suite has no tasks")
    return SuiteSpec(
        name=data["name"],
        seed=int(data.get("seed", 0)),
        tasks=tasks,
        repetitions=int(data.get("repetitions", 1)),
    )


def load_suite(path: str | Path) -> SuiteSpec:
    with open(path, encoding="utf-8") as handle:
        return suite_from_dict(json.load(handle))


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
    packaged = resources.files("homeplan.data").joinpath(ref)
    if packaged.is_file():
        from .world import world_from_dict

        return world_from_dict(json.loads(packaged.read_text("utf-8")))
    raise SuiteFormatError(f"world fixture not found: {ref!r}")


# ---------------------------------------------------------------------------
# Easy-suite generation


def _rand(seed: int, *labels) -> int:
    key = "|".join(str(label) for label in labels)
    return int.from_bytes(hashlib.sha256(f"{seed}|{key}".encode()).digest()[:8], "big")


def _spaced_category(object_id: str) -> str:
    from .world import category_of
    import re

    return re.sub(r"(?<!^)(?=[A-Z])", " ", category_of(object_id)).lower()


def generate_easy_suite(
    seed: int,
    count: int,
    world_refs: list[str],
    base_dir: str | Path | None = None,
    name: str = "easy",
) -> SuiteSpec:
    """Sample pick-and-place rearrangement tasks across the given worlds."""
    if count < 1:
        raise SuiteFormatError("count must be at least 1")
    worlds = [(ref, resolve_world(ref, base_dir)) for ref in world_refs]

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
        target = movable[_rand(seed, "task", index, "object") % len(movable)]
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
        destination = destinations[_rand(seed, "task", index, "dest") % len(destinations)]

        preposition = "in" if world.objects[destination].attributes.openable else "on"
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
    def completion_rate(self) -> float:
        if not self.episodes:
            return 0.0
        return 100.0 * sum(e["success"] for e in self.episodes) / len(self.episodes)

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
                "rate_percent": render_rate(100.0 * successes / len(members)),
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
            f"task completion: {render_rate(self.completion_rate)}% "
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


def render_rate(value: float) -> str:
    """One-decimal percentage with trailing .0 dropped (35.0 -> "35")."""
    return f"{round(value, 1):g}"


def config_hash(config: AgentConfig, suite: SuiteSpec) -> str:
    payload = json.dumps(
        {"config": config.label(), "suite": suite.name, "seed": suite.seed},
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
    (pass a plain backend object to share one across episodes)."""

    def factory(task):
        return backend_factory(task) if callable(backend_factory) else backend_factory

    jobs = []
    for task in suite.tasks:
        for repetition in range(suite.repetitions):
            jobs.append((task, repetition))

    def episode_id(job) -> str:
        task, repetition = job
        return task.id if suite.repetitions == 1 else f"{task.id}#{repetition + 1}"

    def run_one(job) -> EpisodeRecord | str:
        """The episode's record, or the error line of an infrastructure
        failure (counted as a task failure); program bugs propagate."""
        task, _ = job
        try:
            world = resolve_world(task.world, base_dir)
            if seed_override is not None:
                world = replace(world, agent=replace(world.agent, rng_seed=seed_override))
            return run_episode(task, config, factory(task), world, messages=messages)
        except (HomeplanError, OSError, json.JSONDecodeError) as exc:
            return f"{episode_id(job)}: {exc}"

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, jobs))
    else:
        results = [run_one(job) for job in jobs]

    episodes = []
    records = []
    errors = []
    ordered = sorted(zip(jobs, results), key=lambda item: (item[0][0].id, item[0][1]))
    for job, record in ordered:
        task = job[0]
        if isinstance(record, str):
            errors.append(record)
            episodes.append(
                {
                    "id": episode_id(job),
                    "difficulty": task.difficulty,
                    "outcome": "failure",
                    "success": False,
                    "steps": 0,
                    "llm_calls": 0,
                    "actions": [],
                }
            )
            continue
        records.append(record)
        episodes.append(
            {
                "id": episode_id(job),
                "difficulty": task.difficulty,
                "outcome": record.outcome,
                "success": record.success,
                "steps": len(record.steps),
                "llm_calls": record.llm_call_count,
                "actions": [
                    {
                        "action": step.action,
                        "ok": step.observation.startswith("Tool Completed Successfully"),
                    }
                    for step in record.steps
                    if step.action is not None
                ],
            }
        )
    report = MetricsReport(
        suite_name=suite.name,
        config_label=config.label(),
        seed=suite.seed if seed_override is None else seed_override,
        episodes=episodes,
        errors=errors,
    )
    return report, records


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
        return 100.0 * self.successes / self.total if self.total else 0.0

    @property
    def ssr_display(self) -> int:
        return int(self.ssr)  # truncated integer percent


@dataclass
class StepwiseTable:
    rows: list[StepwiseRow]

    @property
    def product_estimate(self) -> float:
        product = 1.0
        for row in self.rows:
            if row.total:
                product *= row.successes / row.total
        return 100.0 * product

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
        lines.append(f"product-of-SSRs estimate: {render_rate(self.product_estimate)}%")
        for flag in self.flags():
            lines.append(f"flag: {flag}")
        return "\n".join(lines)


def stepwise_from_counts(rows: list[dict]) -> StepwiseTable:
    """Build a step-wise table from injected per-skill counts."""
    return StepwiseTable(
        rows=[
            StepwiseRow(
                skill=row["skill"],
                successes=int(row["successes"]),
                failures=int(row["failures"]),
                reported_ssr=row.get("reported_ssr"),
            )
            for row in rows
        ]
    )


def stepwise_from_episodes(episodes: list[dict]) -> StepwiseTable:
    """Aggregate per-skill attempt outcomes over executed actions. A tool
    name outside the built-in library (a hallucinated call) counts as a
    manipulation attempt."""
    library = builtin_tool_library()
    tally: dict[str, list[int]] = {}
    for episode in episodes:
        for action in episode.get("actions", ()):
            name = action["action"]
            skill = library.get(name).skill if name in library else "manipulate"
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
    plus a pooled overall rate."""
    result = {}
    total_successes = 0
    total_count = 0
    for label, (successes, total) in groups.items():
        result[label] = render_rate(100.0 * successes / total if total else 0.0)
        total_successes += successes
        total_count += total
    result["overall"] = render_rate(
        100.0 * total_successes / total_count if total_count else 0.0
    )
    return result
