"""homeplan benchmark: offline suite runs with end-to-end and per-layer metrics.

    python3 bench/run.py --workload react-suite --seed 1 --seconds 15 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md`` next to this file)
through ``suite.run_suite`` with a bench-side stand-in model, checks the
outputs, and prints every metric by name and unit. The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--trace 0`` reports the end-to-end metrics from untraced passes;
``--trace 1`` reports the per-layer metrics from traced passes.

Exit status: 0 when the outputs are correct, 1 when a check failed (the
result line is still printed), 2 when the checkout holds no homeplan
sources or the arguments are invalid (no result line).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from hostclock import HostClock
from workloads import (
    ROOT,
    WORKLOADS,
    MissingProgramError,
    Workload,
    build_config,
    build_suite,
    use_checkout_sources,
)

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 7  # measured fresh-process set-ups per run, after one warm-up
TRACED_SETUP_PROBES = 3
# Set-up is reported in units of the standard-library import reference of
# setup_probe.py, scaled by this constant (near the reference's time on a
# 2-core Xeon VM) so that it reads in seconds. Only ratios between runs
# matter.
SETUP_REFERENCE_S = 0.12
CANARY_STEPS = 150
CANARY_DIGEST = "97f7276bfc2fea35dd33e9af9c7ddb9bb8443a062747aae504eaaaa8a0af608a"

# Layers timed by the traced run: each reports <name>.calls and <name>.self_ms.
TIMED_LAYERS = (
    "sim.execute",
    "sim.refresh_visibility",
    "grounding.evaluate",
    "grounding.unsatisfied",
    "sim.check_goal",
    "suite.resolve_world",
    "world.world_from_dict",
    "agent.build_scratchpad",
    "llm.render_prompt",
    "llm.load_template",
    "llm.parse_react",
    "llm.parse_critique",
    "mcts.plan",
    "mcts.select",
    "mcts.expand",
    "mcts.critique",
    "formula.parse_precondition",
)
# Layers that run only in planning mode; every other span must record calls
# on every workload.
PLANNING_LAYERS = ("llm.parse_critique", "mcts.plan", "mcts.select", "mcts.expand",
                   "mcts.critique")
EXPECTED_LAYERS = TIMED_LAYERS + ("suite.run_episode", "model.complete")


# ---------------------------------------------------------------------------
# One pass of run_suite


@dataclass
class Pass:
    """What one run_suite pass produced, reduced to the figures the metrics
    need; ``outputs`` keeps (report, records, models) only when asked."""

    wall_s: float  # on the pass's HostClock
    workers: int
    digest: str
    episodes: int
    errors: list[str]
    steps: int
    llm_calls: int
    episode_s: float  # summed episode wall time
    prompt_chars: int
    model_calls: int
    model_wait_s: float
    critique_calls: int
    critique_distinct: int
    intervals_ms: list[float]  # step-clock gaps within each episode
    raw_wall_s: float  # wall time as measured, without the host sampling
    host_factor: float  # mean slowdown, see hostclock.py
    outputs: tuple | None = None


def output_digest(report, records) -> str:
    """Digest of the serialized report and every serialized episode record."""
    hasher = hashlib.sha256(report.serialize().encode())
    for record in records:
        hasher.update(b"\n")
        hasher.update(record.serialize().encode())
    return hasher.hexdigest()


def run_pass(workload: Workload, suite, config, seed: int, object_ids, *, workers: int,
             delay_s: float, timed: bool = False, keep_outputs: bool = False) -> Pass:
    """One run_suite pass. A timed pass keeps a step clock and, when no model
    delay sets its pace, samples the host's speed as it runs: its times are
    then read on the reference-speed clock of hostclock.py."""
    from homeplan.suite import run_suite
    from standin import ModelFactory

    clock = HostClock(sample=timed and not delay_s)
    factory = ModelFactory(
        seed,
        object_ids,
        delay_s=delay_s,
        final_share=workload.final_share,
        focus_share=workload.focus_share,
        clock=clock,
        stamp_calls=timed and not workload.planning,
    )
    unstamp = stamp_commits(factory, clock) if timed and workload.planning else None
    try:
        started, wall_started = clock.now(), time.perf_counter()
        report, records = run_suite(suite, config, factory, workers=workers,
                                    seed_override=seed)
        wall, raw_wall = clock.now() - started, time.perf_counter() - wall_started
    finally:
        if unstamp is not None:
            unstamp()
    models = factory.models.values()
    return Pass(
        wall_s=wall,
        workers=workers,
        digest=output_digest(report, records),
        episodes=len(report.episodes),
        errors=list(report.errors),
        steps=sum(len(record.steps) for record in records),
        llm_calls=sum(episode["llm_calls"] for episode in report.episodes),
        episode_s=sum(record.wall_clock for record in records),
        prompt_chars=sum(m.prompt_chars for m in models),
        model_calls=sum(m.calls for m in models),
        model_wait_s=sum(m.wait_s for m in models),
        critique_calls=sum(m.critique_calls for m in models),
        critique_distinct=sum(len(m.critique_seen) for m in models),
        intervals_ms=[(b - a) * 1e3 for m in models for a, b in zip(m.stamps, m.stamps[1:])],
        raw_wall_s=raw_wall - clock.spent,
        host_factor=clock.mean_factor(),
        outputs=(report, records, dict(factory.models)) if keep_outputs else None,
    )


def stamp_commits(factory, clock):
    """Step clock for planning episodes: a planner decision spans many model
    calls, so stamp each committed action instead (the agent's execute)."""
    import homeplan.agent as agent

    original = agent.execute

    def execute(*args, **kwargs):
        factory.current().stamps.append(clock.now())
        return original(*args, **kwargs)

    agent.execute = execute

    def restore():
        agent.execute = original

    return restore


# ---------------------------------------------------------------------------
# Output checks


def check_reference(suite, seed: int, ref: Pass) -> list[str]:
    """Problems found in the reference pass's outputs (empty when correct)."""
    from homeplan.errors import MalformedArgsError, UnknownToolError
    from homeplan.sim import FAIL_PREFIX, check_goal, execute, refresh_visibility
    from homeplan.suite import resolve_world

    _, records, models = ref.outputs
    problems = []
    if ref.errors:
        problems.append(f"{len(ref.errors)} episode(s) ended in a harness error: {ref.errors[:3]}")
    if ref.episodes != len(suite.tasks):
        problems.append(f"report has {ref.episodes} episodes for {len(suite.tasks)} tasks")
    tasks = {task.id: task for task in suite.tasks}
    for record in records:
        task = tasks[record.task_id]
        model = models[record.task_id]
        if record.llm_call_count != model.calls:
            problems.append(f"{task.id}: record counts {record.llm_call_count} model calls, "
                            f"the model answered {model.calls}")
        if len(record.steps) > task.max_steps:
            problems.append(f"{task.id}: {len(record.steps)} steps exceed the budget")
        # Re-execute the committed actions: every recorded observation must
        # be what the simulator says, and success must match the goal check.
        world = resolve_world(task.world)
        world = replace(world, agent=replace(world.agent, rng_seed=seed))
        state = refresh_visibility(world)
        for index, step in enumerate(record.steps, start=1):
            if step.action is None:
                expected = f"{FAIL_PREFIX}could not parse a valid action"
                if step.observation != expected:
                    problems.append(f"{task.id} step {index}: unexpected {step.observation!r}")
                continue
            args = step.args if isinstance(step.args, dict) else None
            try:
                state, observation = execute(state, step.action, args, True)
                actual = observation.message
            except MalformedArgsError:
                actual = f"{FAIL_PREFIX}malformed action input"
            except UnknownToolError as exc:
                actual = f"{FAIL_PREFIX}unknown tool {exc.name!r}"
            if actual != step.observation:
                problems.append(f"{task.id} step {index}: recorded {step.observation!r}, "
                                f"simulator gives {actual!r}")
                break
        if check_goal(state, task) != record.success:
            problems.append(f"{task.id}: success={record.success} but the goal check disagrees")
    return problems


def sim_canary_digest() -> str:
    """Digest of the observations for a fixed stream of stand-in proposals,
    parsed and executed straight through the simulator on every shipped
    world, with grounding on and off. It does not depend on the seed, the
    agent or the planner, so it pins the simulator's output bytes."""
    from homeplan.errors import MalformedArgsError, MalformedCompletionError, UnknownToolError
    from homeplan.llm import parse_react
    from homeplan.sim import execute, refresh_visibility
    from homeplan.suite import resolve_world
    from homeplan.tools import builtin_tool_library
    from standin import StandInModel
    from workloads import ALL_WORLDS

    library = builtin_tool_library()
    hasher = hashlib.sha256()
    for ref in ALL_WORLDS:
        for grounding in (True, False):
            world = resolve_world(ref)
            model = StandInModel(0, f"canary {ref}", ["Apple_1", "Fridge_1"], world.object_ids(),
                                 final_share=0.0, focus_share=0.0, clock=HostClock(sample=False))
            state = refresh_visibility(world)
            for _ in range(CANARY_STEPS):
                try:
                    step = parse_react(model.complete("canary"), library)
                    args = step.action_input if isinstance(step.action_input, dict) else None
                    state, observation = execute(state, step.action, args, grounding)
                    text = observation.message
                except (MalformedCompletionError, MalformedArgsError, UnknownToolError) as exc:
                    text = type(exc).__name__
                hasher.update(text.encode() + b"\n")
    return hasher.hexdigest()


def check_sim_canary() -> list[str]:
    digest = sim_canary_digest()
    if digest != CANARY_DIGEST:
        return [f"simulator canary digest {digest[:16]} differs from the recorded "
                f"{CANARY_DIGEST[:16]}: an observation changed"]
    return []


def check_repeat(ref: Pass, other: Pass, label: str) -> list[str]:
    problems = []
    if other.digest != ref.digest:
        problems.append(f"{label}: output digest {other.digest[:16]} differs from "
                        f"reference {ref.digest[:16]}")
    if other.prompt_chars != ref.prompt_chars:
        problems.append(f"{label}: {other.prompt_chars} prompt characters, "
                        f"reference {ref.prompt_chars}")
    return problems


# ---------------------------------------------------------------------------
# Set-up probes


def probe_setup(workload: Workload, seed: int, count: int, trace: bool) -> list[dict]:
    """Run the set-up probe in fresh processes; the first is a warm-up.
    Untraced, each set-up probe is followed by a reference probe, whose time
    is added to its result as ``reference_s``."""
    probe = [sys.executable, str(BENCH_DIR / "setup_probe.py")]

    def run_probe(*args: str) -> dict:
        done = subprocess.run(probe + list(args), cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    results = []
    for _ in range(count + 1):
        if trace:
            results.append(run_probe(workload.name, str(seed), "--trace"))
        else:
            results.append({**run_probe(workload.name, str(seed)), **run_probe("--reference")})
    return results[1:]


# ---------------------------------------------------------------------------
# Metrics


def samples_beyond(count: int, percentile: float) -> int:
    return count - math.ceil(percentile / 100 * count)


def nearest_rank(values: list[float], percentile: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(percentile / 100 * len(ordered)) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(workload: Workload, setups: list[dict], passes: list[Pass]):
    """Metrics from the timed passes. Step times are read on each pass's
    HostClock: at the reference host's speed on CPU-bound workloads, as
    measured on mcts-remote, whose host is not sampled (see hostclock.py).
    Set-up, mostly importing in a fresh process, is divided by the import
    reference that ran next to it (see setup_probe.py)."""
    gaps = [gap for p in passes for gap in p.intervals_ms]
    per_pass = len(passes[0].intervals_ms)
    steps = sum(p.steps for p in passes)
    episodes = sum(p.episodes for p in passes)
    errors = sum(len(p.errors) for p in passes)
    factors = [p.host_factor for p in passes]
    notes = [
        f"timed passes: {len(passes)}",
        f"step intervals: n={len(gaps)} ({per_pass} per pass), "
        f"tail percentile p{workload.tail_percentile:g}",
        f"error_share: {errors}/{episodes} episodes ended in a harness error",
        f"mean host factor per pass: {min(factors):.3f}-{max(factors):.3f}",
        f"as measured: steps_per_s "
        f"{statistics.median(p.steps / p.raw_wall_s for p in passes):.6g}, set-up median "
        f"{statistics.median(s['setup_s'] for s in setups):.4f} s, import reference median "
        f"{statistics.median(s['reference_s'] for s in setups):.4f} s",
    ]
    problems = []
    if samples_beyond(per_pass, workload.tail_percentile) < 10:
        problems.append(f"a pass has {per_pass} step intervals, fewer than ten "
                        f"beyond p{workload.tail_percentile:g}")
    metrics = {
        "setup_s": metric(statistics.median(s["setup_s"] / s["reference_s"] for s in setups)
                          * SETUP_REFERENCE_S, "s"),
        "steps_per_s": metric(statistics.median(p.steps / p.wall_s for p in passes), "1/s"),
        "step_p50_ms": metric(statistics.median(gaps), "ms"),
        "step_tail_ms": metric(nearest_rank(gaps, workload.tail_percentile), "ms"),
        "llm_calls_per_step": metric(sum(p.llm_calls for p in passes) / steps, "count"),
        "prompt_kchars_per_step": metric(
            sum(p.prompt_chars for p in passes) / 1e3 / steps, "kchars"),
        "ok_episode_share": metric(1 - errors / episodes, "ratio"),
    }
    return metrics, notes, problems


def per_layer_metrics(traced: list[tuple], untraced: list[Pass]) -> dict:
    """traced: (Pass, per-layer counters) for each traced pass."""

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def median_of(value) -> float:
        return statistics.median(value(p, counters) for p, counters in traced)

    first, counters = traced[0]
    layers = {}
    for name in TIMED_LAYERS:
        layers[f"{name}.calls"] = metric(int(counters[name]["calls"]), "count")
        layers[f"{name}.self_ms"] = metric(
            median_of(lambda p, c: c[name]["self_s"]) * 1e3, "ms")
    execute, expand = counters["sim.execute"], counters["mcts.expand"]
    layers["sim.execute.rejected_ratio"] = metric(
        ratio(execute["rejected"], execute["calls"]), "ratio")
    layers["mcts.expand.useful_ratio"] = metric(
        ratio(expand["kept"], expand["model_calls"]), "ratio")
    layers["mcts.critique.distinct_ratio"] = metric(
        ratio(first.critique_distinct, first.critique_calls), "ratio")
    layers["model.calls"] = metric(first.model_calls, "count")
    layers["model.wait_ms"] = metric(median_of(lambda p, c: p.model_wait_s) * 1e3, "ms")
    layers["model.prompt_kchars"] = metric(first.prompt_chars / 1e3, "kchars")
    layers["model.wait_share"] = metric(
        median_of(lambda p, c: ratio(p.model_wait_s, p.episode_s)), "ratio")
    layers["suite.worker_busy_share"] = metric(
        median_of(lambda p, c: p.episode_s / (p.workers * p.wall_s)), "ratio")
    layers["trace.overhead_ms"] = metric(
        (median_of(lambda p, c: p.wall_s)
         - statistics.median(p.wall_s for p in untraced)) * 1e3, "ms")
    return layers


def time_shares(traced: list[tuple]) -> list[tuple[str, float, float]]:
    """(span name, self share, inclusive share) of the time spent inside
    ``suite.run_episode`` spans, medians over the traced passes, largest self
    share first. The self time of ``suite.run_episode`` is the agent loop
    outside every other span."""
    names = {name for _, counters in traced for name in counters
             if name != "formula.parse_precondition"}

    def share(name: str, key: str) -> float:
        return statistics.median(c[name][key] / c["suite.run_episode"]["total_s"]
                                 for _, c in traced)

    return sorted(((name, share(name, "self_s"), share(name, "total_s")) for name in names),
                  key=lambda item: -item[1])


def missing_layers(workload: Workload, counters: dict) -> list[str]:
    return [f"expected layer {name} recorded no calls" for name in EXPECTED_LAYERS
            if not counters[name]["calls"] and (workload.planning or name not in PLANNING_LAYERS)]


# ---------------------------------------------------------------------------
# Entry point


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def src_line_count() -> int:
    """Lines of the package's Python sources; reported, not gated."""
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in (ROOT / "src" / "homeplan").glob("*.py"))


def timed_passes(deadline: float, run_one) -> list:
    """Repeat run_one until the deadline has passed; at least once."""
    results = [run_one()]
    while time.perf_counter() < deadline:
        results.append(run_one())
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_sources()
    except MissingProgramError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = args.seed

    setups = probe_setup(workload, seed, TRACED_SETUP_PROBES if args.trace else SETUP_PROBES,
                         bool(args.trace))

    from homeplan.suite import resolve_world

    suite, skipped = build_suite(workload, seed)
    config = build_config(workload)
    object_ids = {ref: resolve_world(ref).object_ids() for ref in workload.worlds}

    def one_pass(timed=False, workers=workload.workers, delay_s=workload.delay_s,
                 keep_outputs=False):
        return run_pass(workload, suite, config, seed, object_ids, workers=workers,
                        delay_s=delay_s, timed=timed, keep_outputs=keep_outputs)

    # The reference pass (one worker, no model delay) fixes the expected
    # outputs; for CPU-bound workloads it also warms caches before timing.
    reference = one_pass(workers=1, delay_s=0.0, keep_outputs=True)
    problems = check_sim_canary() + check_reference(suite, seed, reference)
    reference.outputs = None

    deadline = time.perf_counter() + args.seconds
    notes = [f"workload {workload.name}: {len(suite.tasks)} tasks, seed {seed}",
             f"generated tasks skipped because their goal already held: {skipped}",
             f"output digest {reference.digest}",
             f"src lines (informational): {src_line_count()}"]
    if args.trace == 0:
        passes = timed_passes(deadline, lambda: one_pass(timed=True))
        for index, p in enumerate(passes, start=1):
            problems += check_repeat(reference, p, f"timed pass {index}")
        metrics, extra, issues = end_to_end_metrics(workload, setups, passes)
        notes += extra
        problems += issues
    else:
        from tracer import Tracer

        untraced, traced = [], []
        # The parser runs only while the tool library is built, in set-up.
        setup_parse = {
            "calls": setups[0]["parse_calls"],
            "self_s": statistics.median(s["parse_self_s"] for s in setups),
        }

        def traced_pass():
            tracer = Tracer(record_spans=not traced)
            tracer.install()
            try:
                p = one_pass()
            finally:
                tracer.restore()
            if not traced:
                OUT_DIR.mkdir(exist_ok=True)
                spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl.gz"
                notes.append(f"{tracer.write_spans(spans_path)} spans written to "
                             f"{spans_path.relative_to(ROOT)}")
            counters = tracer.layers()
            counters["formula.parse_precondition"] = setup_parse
            traced.append((p, counters))
            untraced.append(one_pass())
            return p

        passes = timed_passes(deadline, traced_pass)
        for index, (p, _) in enumerate(traced, start=1):
            problems += check_repeat(reference, p, f"traced pass {index}")
        for index, p in enumerate(untraced, start=1):
            problems += check_repeat(reference, p, f"untraced pass {index}")
        problems += missing_layers(workload, traced[0][1])
        metrics = per_layer_metrics(traced, untraced)
        notes.append("share of episode time, self (inclusive): " + ", ".join(
            f"{name} {own:.1%} ({total:.1%})" for name, own, total in time_shares(traced)
            if own >= 0.005))

    attempted = sum(p.episodes for p in passes)
    failed = sum(len(p.errors) for p in passes)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "digest": reference.digest, "problems": problems,
                    "passes": len(passes), "notes": notes}, indent=2) + "\n",
        encoding="utf-8")

    for line in notes:
        print(line)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    for name, entry in metrics.items():
        print(f"{name:<36} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
