"""The console. Each check of one command's exit code, output and files is a
row of CONSOLE, run in-process through cli.main; the tests after the table
each hold logic of their own."""

import hashlib
import json
import shlex
import subprocess
import sys
from contextlib import redirect_stdout
from importlib import resources
from io import StringIO

import pytest

from homeplan import cli, suite
from homeplan.cli import main
from homeplan.errors import InputFormatError
from homeplan.grounding import MessageTable
from homeplan.suite import generate_easy_suite

from .test_suite import (
    REFERENCE_STEPWISE_ROWS,
    RUNS_OUT_AFTER_ONE_STEP,
    card_to_sink_data,
    card_to_sink_suite,
)

# ---------------------------------------------------------------------------
# Input files of the table


def _packaged(name):
    return resources.files("homeplan.data").joinpath(name).read_text(encoding="utf-8")


def _json(data, edit=None):
    """data as JSON text, after edit(data) changed it in place."""
    if edit is not None:
        edit(data)
    return json.dumps(data)


def _card(suite=None, script=None):
    """card_to_sink_data as suite.json and script.json, each edited in place."""
    suite_data, script_data = card_to_sink_data()
    return {"suite.json": _json(suite_data, suite), "script.json": _json(script_data, script)}


def _messages(edit):
    return {"messages.json": _json(json.loads(_packaged("messages.json")), edit)}


def _generated(tmp):
    """The suite of gen-suite --seed 1 --count 3 --worlds worlds/kitchen.json."""
    return _json(generate_easy_suite(1, 3, ["worlds/kitchen.json"]).to_dict())


LOOK = "Thought: look\nAction: Randomly Explore\nAction Input: None"


def _cyclic(completion):
    """A script whose every completion is this one."""
    return {"suite.json": _generated,
            "script.json": _json({"cyclic": True, "entries": [{"completion": completion}]})}


def _keyed(score="Score: 5", proposal=LOOK):
    """A script that answers every critique with score and every other prompt
    with proposal."""
    return {"suite.json": _generated, "script.json": _json({"mode": "keyed", "entries": [
        {"completion": score, "match": "Score the quality", "uses": -1},
        {"completion": proposal, "uses": -1}]})}


def _counts(rows):
    return {"counts.json": _json({"rows": rows})}


def _ssr(reported):  # raw JSON text, so that 1e400 and NaN are written as given
    return {"counts.json": '{"rows": [{"skill": "Move", "successes": 2, "failures": 0},'
                           ' {"skill": "Place", "successes": 1, "failures": 1,'
                           f' "reported_ssr": {reported}}}]}}'}


TEMPLATES = {f"templates/{name}": _packaged(f"templates/{name}")
             for name in ("expansion.txt", "critique.txt")}
ONES, NINES = "1" * 400, "9" * 400
HEADER = "skill         success  failures  total  SSR\n"
STEPWISE_TEXT = HEADER + """\
Locate             22         8     30  73%
Move               22         0     22  100%
Percept.           18         4     22  81%
Manip.             19         2     21  90%
Locate2            13         6     19  68%
Move2              13         0     13  100%
Place               6         7     13  46%
product-of-SSRs estimate: 17.1%
flag: Place: computed 46.2% vs reported 40%
"""
# successes, failures and totals too long for a float, and for their columns
HUGE_TEXT = (f"{HEADER}Move          {ONES}         0{ONES}  100%\n"
             f"Place         {ONES}{'8' * 400}{NINES}  11%\nproduct-of-SSRs estimate: 11.1%\n")

# ---------------------------------------------------------------------------
# Checks on the files a command leaves


def _report(check=lambda report, lines: True):
    """reports/ holds one report, its text and its transcript, whose lines
    carry the report's episode ids in report order; check(the report's path,
    the transcript's lines) holds."""
    def after(tmp):
        (report,), (_,), (transcript,) = (list(tmp.glob(f"reports/*{suffix}"))
                                          for suffix in (".json", ".txt", ".episodes.jsonl"))
        lines = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines()]
        episodes = json.loads(report.read_text(encoding="utf-8"))["episodes"]
        assert [line["id"] for line in lines] == [episode["id"] for episode in episodes]
        return check(report, lines)
    return after


def _rate(percent):
    return _report(lambda report, lines: json.loads(report.read_text())[
        "completion_rate_percent"] == percent)


def _no_estimate(report, lines):
    """The text and report --records both give the estimate as n/a."""
    rendered = StringIO()
    with redirect_stdout(rendered):
        assert main(["report", "--records", str(report)]) == 0
    line = "product-of-SSRs estimate: n/a"
    return (line in report.with_suffix(".txt").read_text().splitlines()
            and line in rendered.getvalue().splitlines())


def _absent(name):
    return lambda tmp: not (tmp / name).exists()


def _preconds_json(tmp):
    data = json.loads((tmp / "report.json").read_text())
    return (data["accuracy_percent"], data["recall_percent"]) == ("97.4%", "88.1%")


NO_REPORTS = _absent("reports")

# ---------------------------------------------------------------------------
# The table: (id, argv, files, exit code, stdout, stderr, after).
#
# files are written into the working directory first: text, a function of
# the directory giving text, or None for an empty directory. stdout is exact
# text, or lines that must appear, with no other "error:" line. stderr is
# exact: one "error:" line, or nothing. after(tmp), when given, checks the
# files the command left. A row that exits 2 must run no episode, and an
# exception that escapes main fails its row.

RUN = "run --suite suite.json --backend scripted:script.json --out reports"

CONSOLE = [
    # Commands on the shipped data.
    ("compare-preconds", "compare-preconds --out report.json", {}, 0,
     ["computed: 37 correct / 38 generated / 42 ground truth",
      "accuracy (correct generated / total generated): 97.4%",
      "recall (correct generated / total ground truth): 88.1%"], "", _preconds_json),
    ("replay-trace", "replay-trace", {}, 0, ["35/35 observations reproduced"], "", None),
    # Runs on a generated 3-task suite, three steps a task.
    ("react-cyclic", f"{RUN} --max-steps 3", _cyclic(LOOK), 0, [], "", _report()),
    ("mcts-keyed", f"{RUN} --mode mcts --max-steps 3", _keyed(), 0, [], "", _report()),
    ("mcts-keyed-grounding-off", f"{RUN} --mode mcts --grounding off --max-steps 3", _keyed(), 0,
     [], "", _report()),
    ("object-id-of-5000-digits", f"{RUN} --max-steps 3", _cyclic(
        "Thought: grab\nAction: Pick Up Object\nAction Input: {'object_id': 'Apple_%s'}"
        % ("1" * 5000)), 0, [], "", _report()),
    ("action-input-of-100000-terms", f"{RUN} --max-steps 3", _cyclic(
        "Thought: add\nAction: Pick Up Object\nAction Input: " + "1+" * 99999 + "1"), 0, [], "",
     _report()),
    ("critique-score-of-5000-digits", f"{RUN} --mode mcts --max-steps 3",
     _keyed(score="Score: " + "5" * 5000), 0, [], "", _report()),
    ("all-final-answers", f"{RUN} --max-steps 3",
     _cyclic("Thought: nothing to do\nFinal Answer: done"), 0, [], "", _report(_no_estimate)),
    ("mcts-text-action-input", f"{RUN} --mode mcts --max-steps 3", _keyed(
        proposal="Thought: list\nAction: Get Discovered Objects\nAction Input: everything"), 0,
     [], "", _report(lambda report, lines: {  # the transcript has steps, each with this text
         step["args"] for line in lines for step in line["steps"]} == {"everything"})),
    # Runs on the card suite.
    ("card-run", RUN, _card(), 0, ["task completion: 50% (1/2)"], "", _rate("50")),
    ("card-step-cap", f"{RUN} --max-steps 2", _card(), 0, ["task completion: 0% (0/2)"], "",
     _rate("0")),
    ("card-template-override", f"{RUN} --templates templates", {**_card(), **TEMPLATES}, 0,
     ["task completion: 50% (1/2)"], "", _rate("50")),
    ("script-runs-out", RUN, {**_card(), "script.json": _json(
        {"entries": [{"completion": text} for text in RUNS_OUT_AFTER_ONE_STEP]})}, 1,
     [f"error: {episode}: ordered script exhausted" for episode in ("demo-001", "demo-002")],
     "", _rate("0")),
    ("messages-missing-text-at-run", f"{RUN} --messages messages.json",
     {**_card(), **_messages(lambda m: m["atoms"].pop("visible"))}, 1,
     [f"error: {episode}: messages: visible has no required_true text"
      for episode in ("demo-001", "demo-002")], "", _rate("0")),
    # Runs refused before any episode.
    ("missing-suite", "run --suite nope.json --backend scripted:x.json --out reports", {}, 2, "",
     "error: nope.json: No such file or directory", NO_REPORTS),
    ("unknown-backend", "run --suite suite.json --backend bogus --out reports", _card(), 2, "",
     "error: unknown backend spec: 'bogus'", NO_REPORTS),
    ("zero-expansions", f"{RUN} --expansions 0 --mode mcts", _card(), 2, "",
     "error: planner expansion_budget must be at least 1", NO_REPORTS),
    ("zero-max-steps", f"{RUN} --max-steps 0", _card(), 2, "",
     "error: step cap must be at least 1", NO_REPORTS),
    ("zero-workers", f"{RUN} --workers 0", _card(), 2, "",
     "error: workers must be at least 1, not 0", NO_REPORTS),
    ("negative-workers", f"{RUN} --workers -1", _card(), 2, "",
     "error: workers must be at least 1, not -1", NO_REPORTS),
    ("no-repetitions", RUN, _card(suite=lambda s: s.update(repetitions=0)), 2, "",
     "error: repetitions must be at least 1", NO_REPORTS),
    ("task-without-world", RUN, _card(suite=lambda s: s["tasks"][1].pop("world")), 2, "",
     "error: task demo-002: a suite task needs a world", NO_REPORTS),
    ("unknown-goal-attribute", RUN, _card(suite=lambda s: s["tasks"][1].update(goal=[
        {"type": "attribute", "object": "Apple", "attribute": "isopen", "value": True}])), 2, "",
     "error: task demo-002: goal atom attribute: unknown attribute 'isopen'", NO_REPORTS),
    ("repeated-task-id", RUN, _card(suite=lambda s: s["tasks"][1].update(id="demo-001")), 2, "",
     "error: task demo-001: the id repeats", NO_REPORTS),
    ("task-world-number", RUN, _card(suite=lambda s: s["tasks"][1].update(world=5)), 2, "",
     "error: task: world must be a string or null", NO_REPORTS),
    ("task-goal-string", RUN, _card(suite=lambda s: s["tasks"][1].update(goal="ab")), 2, "",
     "error: task: goal must be an array of objects", NO_REPORTS),
    ("empty-cyclic-script", RUN, {**_card(), "script.json": _json({"entries": [], "cyclic": True})},
     2, "", "error: script: a cyclic ordered script needs an entry with uses other than 0",
     NO_REPORTS),
    ("keyed-cyclic-script", RUN, _card(script=lambda s: s.update(cyclic=True)), 2, "",
     "error: script: a keyed script cannot be cyclic", NO_REPORTS),
    *[(f"script-uses-{uses}", RUN, _card(script=lambda s, uses=uses: s["entries"][0].update(
        uses=uses)), 2, "", "error: script: an entry's uses must be -1 (unlimited) or at least 0",
       NO_REPORTS) for uses in (-2, -7)],
    # A slot message() does not fill (KeyError), a positional slot (IndexError)
    # and a single brace (ValueError) would each fail mid-run.
    *[(f"messages-{case}", f"{RUN} --messages messages.json",
       {**_card(), **_messages(lambda m, key=key, text=text: m.update({key: text}))}, 2, "",
       f"error: messages: {key} may hold no slot but {{formula}}", NO_REPORTS)
      for case, key, text in [("named-slot", "exists", "no object satisfies {form}"),
                              ("positional-slot", "exists", "{0} holds for no object"),
                              ("stray-brace", "fallback", "condition not met: formula}")]],
    *[(f"empty-template-dir-{mode}", f"{RUN} --mode {mode} --templates templates",
       {**_card(), "templates": None}, 2, "",
       "error: templates/expansion.txt: No such file or directory", NO_REPORTS)
      for mode in ("react", "mcts")],
    ("template-unknown-slot", f"{RUN} --templates templates",
     {**_card(), **TEMPLATES, "templates/expansion.txt": TEMPLATES[
         "templates/expansion.txt"].replace("{input}", "{goal_text}")}, 2, "",
     "error: templates/expansion.txt: the expansion template may hold no slot but {tools}, "
     "{tool_names}, {input}, {agent_scratchpad}", NO_REPORTS),
    ("template-stray-brace", f"{RUN} --templates templates",
     {**_card(), **TEMPLATES, "templates/critique.txt": "Score {plan_steps} }\n"}, 2, "",
     "error: templates/critique.txt: a stray '}'; write '}}' for the brace", NO_REPORTS),
    ("out-is-a-file", "run --suite suite.json --backend scripted:script.json --out suite.json",
     _card(), 2, "", "error: cannot write suite.json: File exists", None),
    # An input that is a directory, an output that cannot be written.
    *[(f"directory-{case}", argv, _card(), 2, "", "error: .: Is a directory", None)
      for case, argv in [("suite", "run --suite . --backend remote"),
                         ("script", "run --suite suite.json --backend scripted:."),
                         ("run-messages", f"{RUN} --messages ."),
                         ("trace", "replay-trace --trace ."),
                         ("replay-messages", "replay-trace --messages ."),
                         ("records", "report --records ."),
                         ("counts", "report --stepwise-counts ."),
                         ("fixture", "compare-preconds --fixture .")]],
    ("gen-suite-into-a-directory", "gen-suite --seed 1 --count 2 --worlds worlds/kitchen.json "
     "--out .", {}, 2, "", "error: cannot write .: Is a directory", None),
    ("compare-preconds-into-a-directory", "compare-preconds --out .", {}, 2, "",
     "error: cannot write .: Is a directory", None),
    ("gen-suite-without-worlds", "gen-suite --seed 1 --count 2 --worlds , --out suite.json", {},
     2, "", "error: no world to sample tasks from", _absent("suite.json")),
    ("messages-missing-text-at-replay", "replay-trace --messages messages.json",
     _messages(lambda m: m["atoms"].pop("visible")), 2, "",
     "error: messages: visible has no required_true text", None),
    # Reports.
    ("stepwise-counts", "report --stepwise-counts counts.json", _counts(REFERENCE_STEPWISE_ROWS),
     0, STEPWISE_TEXT, "", None),
    ("stepwise-counts-of-400-digits", "report --stepwise-counts counts.json",
     _counts([{"skill": "Move", "successes": int(ONES), "failures": 0}]), 0,
     ["product-of-SSRs estimate: 100%"], "", None),
    ("stepwise-counts-past-a-float", "report --stepwise-counts counts.json", _counts([
        {"skill": "Move", "successes": int(ONES), "failures": 0, "reported_ssr": 100},
        {"skill": "Place", "successes": int(ONES), "failures": 8 * int(ONES)}]), 0,
     HUGE_TEXT, "", None),
    ("records-episodes-number", "report --records input.json",
     {"input.json": _json({"suite": "s", "config": "c", "seed": 1, "episodes": 5})}, 2, "",
     "error: report: episodes must be an array of objects", None),
    ("rows-of-numbers", "report --stepwise-counts counts.json", _counts([5]), 2, "",
     "error: counts: rows must be an array of objects", None),
    ("count-text", "report --stepwise-counts counts.json",
     _counts([{"skill": "Move", "successes": "2", "failures": 0}]), 2, "",
     "error: counts row 1: successes must be an integer", None),
    ("negative-successes", "report --stepwise-counts counts.json",
     _counts([{"skill": "Move", "successes": 2, "failures": 0},
              {"skill": "Place", "successes": -3, "failures": 1}]), 2, "",
     "error: counts row 2 (Place): a count is negative", None),
    ("negative-failures", "report --stepwise-counts counts.json",
     _counts([{"skill": "Move", "successes": 2, "failures": -1}]), 2, "",
     "error: counts row 1 (Move): a count is negative", None),
    *[(f"reported-ssr-{case}", "report --stepwise-counts counts.json", _ssr(reported), 2, "",
       "error: counts row 2 (Place): reported_ssr is not from 0 to 100", None)
      for case, reported in [("infinity", "Infinity"), ("1e400", "1e400"), ("400-digits", ONES),
                             ("nan", "NaN"), ("negative", "-1"), ("over-100", "100.5")]],
    ("completion-counts", "report --completion-counts moderate=7/20,hard=3/20", {}, 0,
     "moderate: 35%\nhard: 15%\noverall: 25%\n", "", None),
    ("completion-counts-of-400-digits",
     f"report --completion-counts a={ONES}/{NINES},b={NINES}/{NINES}", {}, 0,
     "a: 11.1%\nb: 100%\noverall: 55.6%\n", "", None),
    ("completion-over-no-episode", "report --completion-counts easy=0/0", {}, 0,
     "easy: n/a\noverall: n/a\n", "", None),
    ("completion-over-no-episode-and-some", "report --completion-counts easy=0/0,hard=1/2", {}, 0,
     "easy: n/a\nhard: 50%\noverall: 50%\n", "", None),
    ("records-of-no-episode", "report --records empty.json",
     {"empty.json": _json({"suite": "s", "config": "c", "seed": 1, "episodes": []})}, 0,
     ["task completion: n/a (0/0)"], "", None),
    *[(f"completion-counts-{case}", f"report --completion-counts {shlex.quote(counts)}", {}, 2, "",
       f"error: completion counts {error}", None) for case, counts, error in [
        ("over-total", "moderate=25/20",
         "part 'moderate=25/20': successes must be from 0 to total"),
        ("negative", "moderate=7/20,hard=-1/20",
         "part 'hard=-1/20': successes must be from 0 to total"),
        ("repeated-label", "a=1/2,a=2/2", "part 'a=2/2': label 'a' repeats"),
        ("repeated-after-strip", "a=1/2, a =2/2", "part ' a =2/2': label 'a' repeats"),
        ("no-equals", "moderate7/20", "part 'moderate7/20': not label=successes/total"),
        ("no-slash", "moderate=7", "part 'moderate=7': not label=successes/total"),
        ("two-slashes", "moderate=7/20/3", "part 'moderate=7/20/3': not label=successes/total"),
        ("empty-label", "=3/4,a=1/4", "part '=3/4': not label=successes/total"),
        # a group named overall would lose its row to the pooled rate
        ("overall-label", "overall=1/2,hard=1/1", "label 'overall' is the pooled rate's key")]],
    ("report-without-inputs", "report", {}, 2, "",
     "error: report: provide --records, --stepwise-counts, or --completion-counts", None),
]


@pytest.mark.parametrize("argv, files, code, stdout, stderr, after",
                         [row[1:] for row in CONSOLE], ids=[row[0] for row in CONSOLE])
def test_console_command(tmp_path, monkeypatch, capsys, argv, files, code, stdout, stderr, after):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        if text is None:
            path.mkdir()
        else:
            path.write_text(text if isinstance(text, str) else text(tmp_path), encoding="utf-8")
    episodes, run_episode = [], suite.run_episode
    monkeypatch.setattr(suite, "run_episode", lambda *args, **kwargs: (
        episodes.append(args) or run_episode(*args, **kwargs)))
    assert main(shlex.split(argv)) == code
    out, err = capsys.readouterr()
    if isinstance(stdout, str):
        assert out == stdout
    else:
        lines = out.splitlines()
        assert [line for line in stdout if line not in lines] == []
        assert [line for line in lines if line.startswith("error:")] == [
            line for line in stdout if line.startswith("error:")]
    assert err == (stderr and stderr + "\n")
    assert not (code == 2 and episodes)
    assert after is None or after(tmp_path)


# ---------------------------------------------------------------------------
# Checks with logic of their own


def test_compare_preconds_outputs_are_pinned(tmp_path, capsys):
    # The shipped table's report, byte for byte: stdout and the --out JSON.
    out_file = tmp_path / "report.json"
    assert main(["compare-preconds", "--out", str(out_file)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "5ce4187a22ccf87f1b30c02d7e4b3c2e50949b25f46199de7545b232369c23ea")
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "8f33ee7e0462c7241a371d7839c6369f31d62f1951bdffb029f6c8396f0dc039")


def test_gen_suite_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["gen-suite", "--seed", "7", "--count", "12",
            "--worlds", "worlds/kitchen.json,worlds/kitchen_b.json,worlds/kitchen_c.json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    assert len(json.loads(a.read_text())["tasks"]) == 12


def test_run_is_byte_deterministic(tmp_path, capsys):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    out_a = tmp_path / "ra"
    out_b = tmp_path / "rb"
    for out_dir in (out_a, out_b):
        assert main(
            [
                "run",
                "--suite", str(suite_path),
                "--backend", f"scripted:{script_path}",
                "--out", str(out_dir),
            ]
        ) == 0
    capsys.readouterr()
    file_a = next(out_a.glob("*.json"))
    file_b = next(out_b.glob("*.json"))
    assert file_a.read_bytes() == file_b.read_bytes()


@pytest.mark.parametrize("mode", ["react", "mcts"])
def test_run_writes_one_transcript_line_per_report_episode(tmp_path, capsys, mode):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    suite_data = json.loads(suite_path.read_text())
    suite_data["tasks"].append({**suite_data["tasks"][0], "id": "demo-003",
                                "world": "worlds/nonexistent.json"})
    suite_path.write_text(json.dumps(suite_data))
    transcripts = []
    for workers in ("1", "4"):
        out_dir = tmp_path / f"workers-{workers}"
        code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                     "--mode", mode, "--expansions", "2", "--max-steps", "4",
                     "--workers", workers, "--out", str(out_dir)])
        assert code == 1  # demo-003's world is missing
        (report_path,) = out_dir.glob("*.json")
        transcripts.append(report_path.with_suffix(".episodes.jsonl").read_bytes())
    capsys.readouterr()
    assert transcripts[0] == transcripts[1]
    episodes = json.loads(report_path.read_text())["episodes"]
    lines = [json.loads(line) for line in transcripts[0].decode("utf-8").splitlines()]
    assert [(line["id"], line["task_id"], line["outcome"], len(line["steps"]),
             line["llm_call_count"]) for line in lines] == [
        (episode["id"], episode["id"], episode["outcome"], episode["steps"], episode["llm_calls"])
        for episode in episodes
    ]
    assert [line["error"] for line in lines] == [
        None, None, "world fixture not found: 'worlds/nonexistent.json'"
    ]
    assert lines[0]["steps"][0]["action"] == episodes[0]["actions"][0]["action"]


def test_transcript_lines_of_a_repeated_task_carry_their_episode_ids(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({
        "name": "repeated", "seed": 1, "repetitions": 2,
        "tasks": [{"id": "a", "difficulty": "easy", "instruction": "anything",
                   "goal": [{"type": "empty", "object": "GarbageCan_1"}], "maxSteps": 2,
                   "world": "worlds/kitchen_b.json"}],
    }))
    script_path = tmp_path / "script.json"
    script_path.write_text(json.dumps({"entries": [{
        "completion": "Thought: look\nAction: Randomly Explore\nAction Input: {'input': None}",
        "uses": -1,
    }]}))
    out_dir = tmp_path / "reports"
    assert main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    (transcript,) = out_dir.glob("*.episodes.jsonl")
    lines = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines()]
    assert [(line["id"], line["task_id"]) for line in lines] == [("a#1", "a"), ("a#2", "a")]


def test_runs_differing_only_in_expansions_write_two_reports(tmp_path, capsys):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    out_dir = tmp_path / "reports"
    for expansions in ("2", "3"):
        main(
            [
                "run",
                "--suite", str(suite_path),
                "--backend", f"scripted:{script_path}",
                "--mode", "mcts",
                "--expansions", expansions,
                "--max-steps", "1",
                "--out", str(out_dir),
            ]
        )
    capsys.readouterr()
    assert len(list(out_dir.glob("*.json"))) == 2


def test_report_renders_the_records_that_run_wrote(tmp_path, capsys):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
          "--out", str(tmp_path / "reports")])
    run_text = capsys.readouterr().out.split("\n\nreport written to")[0]
    (records,) = (tmp_path / "reports").glob("*.json")
    assert main(["report", "--records", str(records)]) == 0
    assert capsys.readouterr().out == run_text + "\n"


def test_a_key_error_inside_a_command_is_a_bug_and_propagates(monkeypatch):
    def mistyped_key(args):
        return {}["x"]

    monkeypatch.setitem(cli._COMMANDS, "report", mistyped_key)
    with pytest.raises(KeyError):
        main(["report"])


def test_a_closed_stdout_ends_a_command_with_exit_1_and_no_traceback(tmp_path):
    # About 900 kB of table, past any pipe buffer, so a write meets the closed pipe.
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"rows": [{"skill": "Move", "successes": 1, "failures": 0}]
                                  * 20_000}))
    with subprocess.Popen([sys.executable, "-m", "homeplan.cli", "report", "--stepwise-counts",
                           str(counts)], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        assert proc.stdout.readline() == HEADER
        proc.stdout.close()
        assert (proc.stderr.read(), proc.wait(timeout=60)) == ("", 1)


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "homeplan.cli", "compare-preconds"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "97.4%" in result.stdout


def test_replay_with_message_override_reports_mismatches(tmp_path, capsys):
    reworded = {
        "atoms": {
            name: {
                "required_true": f"{name} must hold",
                "required_false": f"{name} must not hold",
            }
            for name in [
                "moveable", "breakable", "canFillWithLiquid", "isToggled",
                "pickupable", "isOpen", "isBroken", "visible", "receptacle",
                "openable", "isPickedUp", "toggleable", "isFilledWithLiquid",
                "cookable", "isCooked", "isWaterSource", "isHoldingObject",
            ]
        },
        "exists": "none matches {formula}",
        "fallback": "failed: {formula}",
        "special": {"not_discovered": "target unknown"},
    }
    messages_path = tmp_path / "messages.json"
    messages_path.write_text(json.dumps(reworded))
    code = main(["replay-trace", "--messages", str(messages_path)])
    out = capsys.readouterr().out
    assert code == 1  # recorded observations carry the default wording
    assert "MISMATCH" in out


@pytest.mark.parametrize("special", [None, {}], ids=["missing", "empty"])
def test_a_message_table_without_a_not_discovered_text_fails_at_load(tmp_path, capsys, special):
    data = json.loads(resources.files("homeplan.data").joinpath("messages.json").read_text())
    if special is None:
        del data["special"]
    else:
        data["special"] = special
    with pytest.raises(InputFormatError, match="^messages"):
        MessageTable(data)
    messages_path = tmp_path / "messages.json"
    messages_path.write_text(json.dumps(data))
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--messages", str(messages_path), "--out", str(tmp_path / "reports")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: messages")
    assert captured.out == ""  # no episode ran and no report was written
    assert not (tmp_path / "reports").exists()
