"""Command-line harness: suites, runs, comparisons, and replay checks.

Exit codes: 0 clean run, 1 infrastructure error during episodes, a replay
mismatch or a stdout closed before the output ends (a pipe into ``head``;
files already written stay), 2 configuration error: bad flags, an output
that cannot be written, or an input file that cannot be read, decoded or
parsed (except a suite task's world, whose fault is one error line per
episode of that world). A prompt template with a stray brace or a slot its
prompt does not fill cannot be parsed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .agent import AgentConfig
from .errors import DATA, HomeplanError, InputFormatError, OutputError, read_input
from .grounding import MessageTable
from .llm import TEMPLATE_SLOTS, RemoteBackend, ScriptedBackend, load_template
from .mcts import PlannerConfig
from .precondgen import compare_fixture
from .sim import load_trace, replay_trace
from .suite import (
    completion_rates,
    config_hash,
    generate_easy_suite,
    load_report,
    load_stepwise_counts,
    load_suite,
    resolve_world,
    run_suite,
    save_suite,
    with_percent_sign,
)

EXIT_OK = 0
EXIT_INFRA = 1
EXIT_CONFIG = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homeplan",
        description="Household task-planning benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-suite", help="generate a pick-and-place task suite")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument(
        "--worlds",
        required=True,
        help="comma-separated world fixture references",
    )
    gen.add_argument("--out", required=True, help="suite file to write")
    gen.add_argument("--name", default="easy")

    run = sub.add_parser("run", help="run a suite and write a metrics report")
    run.add_argument("--suite", required=True)
    run.add_argument("--mode", choices=["react", "mcts"], default="react")
    run.add_argument("--grounding", choices=["on", "off"], default="on")
    run.add_argument("--expansions", type=int, default=5)
    run.add_argument("--seed", type=int, default=None, help="override world seeds")
    run.add_argument(
        "--backend",
        required=True,
        help="'scripted:<script.json>' (fresh per episode) or 'remote'",
    )
    run.add_argument("--out", default=".", help="directory for report files")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument("--max-steps", type=int, default=None,
                     help="cap every task's step budget")
    run.add_argument("--messages", default=None,
                     help="feedback message-table JSON override")
    run.add_argument("--templates", default=None,
                     help="prompt-template directory override")

    cmp = sub.add_parser(
        "compare-preconds",
        help="compare generated vs ground-truth preconditions on the shipped fixture",
    )
    cmp.add_argument("--fixture", default=None, help="alternative labeled-pairs file")
    cmp.add_argument("--out", default=None, help="also write the report as JSON")

    replay = sub.add_parser("replay-trace", help="re-execute a recorded transcript")
    replay.add_argument("--trace", default=None, help="trace fixture (default: shipped)")
    replay.add_argument("--world", default=None, help="override the trace's world fixture")
    replay.add_argument("--grounding", choices=["on", "off"], default="on")
    replay.add_argument("--messages", default=None,
                        help="feedback message-table JSON override")

    report = sub.add_parser("report", help="render reports from stored inputs")
    report.add_argument("--records", default=None, help="metrics report JSON to render")
    report.add_argument(
        "--stepwise-counts", default=None, help="per-skill counts JSON to tabulate"
    )
    report.add_argument(
        "--completion-counts",
        default=None,
        help="per-group outcome counts, e.g. 'moderate=7/20,hard=3/20'",
    )
    return parser


@contextmanager
def _writing(path: str):
    """The output path; a write under it that fails is an OutputError."""
    try:
        yield Path(path)
    except OSError as exc:
        raise OutputError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


def _cmd_gen_suite(args) -> int:
    worlds = [ref.strip() for ref in args.worlds.split(",") if ref.strip()]
    suite = generate_easy_suite(args.seed, args.count, worlds, name=args.name)
    with _writing(args.out) as out:
        save_suite(suite, out)
    print(f"wrote {len(suite.tasks)} tasks to {args.out}")
    return EXIT_OK


def _make_backend_factory(spec: str):
    """The factory of each episode's backend, and the call that closes what
    the backends it made hold open."""
    if spec == "remote":
        backend = RemoteBackend()
        return (lambda task: backend), backend.close
    if spec.startswith("scripted:"):
        script_data = read_input(spec.split(":", 1)[1])
        ScriptedBackend.from_dict(script_data)  # a malformed script fails before any episode
        return (lambda task: ScriptedBackend.from_dict(script_data)), lambda: None
    raise ValueError(f"unknown backend spec: {spec!r}")


def _cmd_run(args) -> int:
    suite = load_suite(args.suite)
    factory, close_backends = _make_backend_factory(args.backend)
    config = AgentConfig(
        mode="react" if args.mode == "react" else "react+mcts",
        grounding_enabled=args.grounding == "on",
        planner=PlannerConfig(expansion_budget=args.expansions),
        step_cap=args.max_steps,
        template_dir=args.templates,
    )
    messages = MessageTable.load(args.messages) if args.messages else None
    if args.templates is not None:  # a bad directory fails before any episode
        for name in TEMPLATE_SLOTS:
            load_template(name, args.templates)
    if args.workers < 1:  # as run_suite would, but before --out is made
        raise ValueError(f"workers must be at least 1, not {args.workers}")
    with _writing(args.out) as out_dir:  # and so does an --out that cannot be made
        out_dir.mkdir(parents=True, exist_ok=True)
    try:  # no backend opens a connection before the run
        report, records = run_suite(
            suite,
            config,
            factory,
            base_dir=Path(args.suite).parent,
            workers=args.workers,
            seed_override=args.seed,
            messages=messages,
        )
    finally:
        close_backends()
    stem = f"{config_hash(config, suite, args.backend, args.messages)}_{report.seed}"
    with _writing(args.out) as out_dir:
        (out_dir / f"{stem}.json").write_text(report.serialize() + "\n", encoding="utf-8")
        (out_dir / f"{stem}.txt").write_text(report.render_text() + "\n", encoding="utf-8")
        (out_dir / f"{stem}.episodes.jsonl").write_text(
            "".join(json.dumps({"id": entry["id"], **record.to_dict()}, ensure_ascii=False) + "\n"
                    for entry, record in zip(report.episodes, records)),
            encoding="utf-8",
        )
    print(report.render_text())
    print(f"\nreport written to {out_dir / (stem + '.json')}")
    return EXIT_INFRA if report.errors else EXIT_OK


def _cmd_compare_preconds(args) -> int:
    report = compare_fixture(args.fixture)
    if args.out:  # written first, so that a failed write prints no report
        with _writing(args.out) as out:
            out.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    print(report.render_text())
    return EXIT_OK


def _cmd_replay_trace(args) -> int:
    # A trace's world is found from the directory above the trace's, as in DATA.
    if args.trace is None:
        trace, base_dir = load_trace(DATA.joinpath("traces/clear_table.json")), None
    else:
        trace, base_dir = load_trace(args.trace), Path(args.trace).parent.parent
    world = resolve_world(args.world or trace.world, base_dir)
    messages = MessageTable.load(args.messages) if args.messages else None
    _, results = replay_trace(trace, world, grounding_enabled=args.grounding == "on",
                              messages=messages)
    mismatches = 0
    for result in results:
        status = "ok" if result.ok else "MISMATCH"
        print(f"step {result.index:>3}  {result.action:<28} {status}")
        if not result.ok:
            mismatches += 1
            print(f"  expected: {result.expected!r}")
            print(f"  actual:   {result.actual!r}")
    print(f"\n{len(results) - mismatches}/{len(results)} observations reproduced")
    return EXIT_OK if mismatches == 0 else EXIT_INFRA


def _cmd_report(args) -> int:
    did_anything = False
    if args.records:
        print(load_report(args.records).render_text())
        did_anything = True
    if args.stepwise_counts:
        print(load_stepwise_counts(args.stepwise_counts).render_text())
        did_anything = True
    if args.completion_counts:
        groups = {}
        for part in args.completion_counts.split(","):
            label, _, fraction = part.partition("=")
            successes, _, total = fraction.partition("/")
            label, where = label.strip(), f"completion counts part {part!r}"
            try:
                counts = int(successes), int(total)
            except ValueError:
                counts = None
            if counts is None or not label:
                raise InputFormatError(f"{where}: not label=successes/total")
            if label in groups:
                raise InputFormatError(f"{where}: label {label!r} repeats")
            if not 0 <= counts[0] <= counts[1]:
                raise InputFormatError(f"{where}: successes must be from 0 to total")
            groups[label] = counts
        for label, rate in completion_rates(groups).items():
            print(f"{label}: {with_percent_sign(rate)}")
        did_anything = True
    if not did_anything:
        raise ValueError("report: provide --records, --stepwise-counts, or --completion-counts")
    return EXIT_OK


_COMMANDS = {
    "gen-suite": _cmd_gen_suite,
    "run": _cmd_run,
    "compare-preconds": _cmd_compare_preconds,
    "replay-trace": _cmd_replay_trace,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so that a closed pipe is met here, not at exit
        return code
    except (HomeplanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # As in the signal module's docs: the flush at exit writes to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INFRA


if __name__ == "__main__":
    sys.exit(main())
