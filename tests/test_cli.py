import hashlib
import json
import subprocess
import sys
from importlib import resources

import pytest

from homeplan import cli
from homeplan.cli import main
from homeplan.errors import InputFormatError
from homeplan.grounding import MessageTable

from .test_suite import REFERENCE_STEPWISE_ROWS, RUNS_OUT_AFTER_ONE_STEP, card_to_sink_suite


def test_compare_preconds_stdout(capsys):
    assert main(["compare-preconds"]) == 0
    out = capsys.readouterr().out
    assert "accuracy (correct generated / total generated): 97.4%" in out
    assert "recall (correct generated / total ground truth): 88.1%" in out
    assert "37 correct / 38 generated / 42 ground truth" in out


def test_compare_preconds_writes_json(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    assert main(["compare-preconds", "--out", str(out_file)]) == 0
    capsys.readouterr()
    data = json.loads(out_file.read_text())
    assert data["accuracy_percent"] == "97.4%"
    assert data["recall_percent"] == "88.1%"


def test_compare_preconds_outputs_are_pinned(tmp_path, capsys):
    # The shipped table's report, byte for byte: stdout and the --out JSON.
    out_file = tmp_path / "report.json"
    assert main(["compare-preconds", "--out", str(out_file)]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == (
        "5ce4187a22ccf87f1b30c02d7e4b3c2e50949b25f46199de7545b232369c23ea")
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "8f33ee7e0462c7241a371d7839c6369f31d62f1951bdffb029f6c8396f0dc039")


def test_replay_trace_default(capsys):
    assert main(["replay-trace"]) == 0
    out = capsys.readouterr().out
    assert "35/35 observations reproduced" in out


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


def test_run_scripted_suite(tmp_path, capsys):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    out_dir = tmp_path / "reports"
    code = main(
        [
            "run",
            "--suite", str(suite_path),
            "--backend", f"scripted:{script_path}",
            "--out", str(out_dir),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "task completion: 50% (1/2)" in out
    reports = sorted(out_dir.glob("*.json"))
    assert len(reports) == 1
    data = json.loads(reports[0].read_text())
    assert data["completion_rate_percent"] == "50"
    assert (out_dir / reports[0].name.replace(".json", ".txt")).exists()


def test_run_whose_script_runs_out_exits_with_an_error_per_episode(tmp_path, capsys):
    suite_path, _, _ = card_to_sink_suite(tmp_path)
    script_path = tmp_path / "short.json"
    script_path.write_text(json.dumps(
        {"entries": [{"completion": text} for text in RUNS_OUT_AFTER_ONE_STEP]}
    ))
    code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--out", str(tmp_path / "reports")])
    out = capsys.readouterr().out
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("error:")] == [
        f"error: {episode}: ordered script exhausted" for episode in ("demo-001", "demo-002")
    ]


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


def test_run_missing_suite_is_config_error(tmp_path, capsys):
    code = main(
        ["run", "--suite", str(tmp_path / "nope.json"), "--backend", "scripted:x.json"]
    )
    capsys.readouterr()
    assert code == 2


def test_run_bad_backend_spec_is_config_error(tmp_path, capsys):
    suite_path, _, _ = card_to_sink_suite(tmp_path)
    code = main(["run", "--suite", str(suite_path), "--backend", "telepathy"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("flags", [["--expansions", "0", "--mode", "mcts"], ["--max-steps", "0"],
                                   ["--workers", "0"], ["--workers", "-1"]],
                         ids=["expansions", "max-steps", "workers", "negative-workers"])
def test_run_with_a_zero_budget_flag_is_config_error(tmp_path, capsys, flags):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--out", str(tmp_path / "reports"), *flags])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize(
    "edit, error",
    [(lambda suite: suite.update(repetitions=0), "repetitions must be at least 1"),
     (lambda suite: suite["tasks"][1].pop("world"), "task demo-002: a suite task needs a world"),
     (lambda suite: suite["tasks"][1].update(goal=[
         {"type": "attribute", "object": "Apple", "attribute": "isopen", "value": True}]),
      "task demo-002: goal atom attribute: unknown attribute 'isopen'"),
     (lambda suite: suite["tasks"][1].update(id="demo-001"), "task demo-001: the id repeats")],
    ids=["no-repetitions", "task-without-world", "unknown-goal-attribute", "repeated-task-id"],
)
def test_run_with_a_malformed_suite_is_config_error(tmp_path, capsys, edit, error):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    suite_data = json.loads(suite_path.read_text())
    edit(suite_data)
    suite_path.write_text(json.dumps(suite_data))
    code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--out", str(tmp_path / "reports")])
    captured = capsys.readouterr()
    assert code == 2
    assert (captured.out, captured.err) == ("", f"error: {error}\n")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize(
    "edit",
    [lambda task: task.update(world=5), lambda task: task.update(goal="ab")],
    ids=["world-number", "goal-string"],
)
def test_run_on_a_task_field_of_the_wrong_json_type_exits_2_without_a_traceback(tmp_path, edit):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    suite_data = json.loads(suite_path.read_text())
    edit(suite_data["tasks"][1])
    suite_path.write_text(json.dumps(suite_data))
    result = subprocess.run(
        [sys.executable, "-m", "homeplan.cli", "run", "--suite", str(suite_path),
         "--backend", f"scripted:{script_path}", "--out", str(tmp_path / "reports")],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("error: task: ")
    assert "Traceback" not in result.stderr


def test_run_with_an_empty_cyclic_script_is_config_error(tmp_path, capsys):
    suite_path, _, _ = card_to_sink_suite(tmp_path)
    script_path = tmp_path / "empty.json"
    script_path.write_text(json.dumps({"entries": [], "cyclic": True}))
    code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--out", str(tmp_path / "reports")])
    capsys.readouterr()
    assert code == 2


def test_run_with_a_keyed_cyclic_script_is_config_error(tmp_path, capsys):
    # A keyed script is never refilled, so "cyclic" could not take effect.
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    script = json.loads(script_path.read_text())
    script_path.write_text(json.dumps({**script, "cyclic": True}))
    out_dir = tmp_path / "reports"
    code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--out", str(out_dir)])
    assert capsys.readouterr().err == "error: script: a keyed script cannot be cyclic\n"
    assert code == 2
    assert not out_dir.exists()


@pytest.mark.parametrize("uses", [-2, -7])
def test_run_with_a_script_entry_below_unlimited_uses_is_config_error(tmp_path, capsys, uses):
    # -1 is the one unlimited value; an entry below it is malformed.
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    script = json.loads(script_path.read_text())
    script["entries"][0]["uses"] = uses
    script_path.write_text(json.dumps(script))
    out_dir = tmp_path / "reports"
    code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--out", str(out_dir)])
    assert capsys.readouterr().err == (
        "error: script: an entry's uses must be -1 (unlimited) or at least 0\n")
    assert code == 2
    assert not out_dir.exists()


def test_report_stepwise_counts(tmp_path, capsys):
    counts = tmp_path / "counts.json"
    counts.write_text(json.dumps({"rows": REFERENCE_STEPWISE_ROWS}))
    assert main(["report", "--stepwise-counts", str(counts)]) == 0
    out = capsys.readouterr().out
    for value in ("73%", "100%", "81%", "90%", "68%"):
        assert value in out
    assert "flag: Place: computed 46.2% vs reported 40%" in out


@pytest.mark.parametrize(
    "flag, data, error",
    [
        ("--records", {"suite": "s", "config": "c", "seed": 1, "episodes": 5},
         "report: episodes must be an array of objects"),
        ("--stepwise-counts", {"rows": [5]}, "counts: rows must be an array of objects"),
        ("--stepwise-counts", {"rows": [{"skill": "Move", "successes": "2", "failures": 0}]},
         "counts row 1: successes must be an integer"),
        ("--stepwise-counts", {"rows": [{"skill": "Move", "successes": 2, "failures": 0},
                                        {"skill": "Place", "successes": -3, "failures": 1}]},
         "counts row 2 (Place): a count is negative"),
        ("--stepwise-counts", {"rows": [{"skill": "Move", "successes": 2, "failures": -1}]},
         "counts row 1 (Move): a count is negative"),
    ],
    ids=["episodes-number", "rows-of-numbers", "count-text", "negative-successes",
         "negative-failures"],
)
def test_report_on_a_malformed_input_is_config_error(tmp_path, capsys, flag, data, error):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert main(["report", flag, str(path)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("reported", ["Infinity", "1e400", "1" * 400, "NaN", "-1", "100.5"],
                         ids=["infinity", "1e400", "400-digits", "nan", "negative", "over-100"])
def test_report_on_a_reported_ssr_outside_0_to_100_is_config_error(tmp_path, capsys, reported):
    path = tmp_path / "counts.json"
    path.write_text('{"rows": [{"skill": "Move", "successes": 2, "failures": 0},'
                    ' {"skill": "Place", "successes": 1, "failures": 1,'
                    f' "reported_ssr": {reported}}}]}}')
    assert main(["report", "--stepwise-counts", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: counts row 2 (Place): reported_ssr is not from 0 to 100\n")


def test_report_renders_counts_too_large_for_a_float(tmp_path, capsys):
    path = tmp_path / "counts.json"
    ones = int("1" * 400)
    path.write_text(json.dumps({"rows": [
        {"skill": "Move", "successes": ones, "failures": 0, "reported_ssr": 100},
        {"skill": "Place", "successes": ones, "failures": 8 * ones},
    ]}))
    assert main(["report", "--stepwise-counts", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in out[1:3]] == ["100%", "11%"]
    assert out[3:] == ["product-of-SSRs estimate: 11.1%"]
    nines = "9" * 400
    assert main(["report", "--completion-counts", f"a={ones}/{nines},b={nines}/{nines}"]) == 0
    assert capsys.readouterr().out == "a: 11.1%\nb: 100%\noverall: 55.6%\n"


def test_report_renders_the_records_that_run_wrote(tmp_path, capsys):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
          "--out", str(tmp_path / "reports")])
    run_text = capsys.readouterr().out.split("\n\nreport written to")[0]
    (records,) = (tmp_path / "reports").glob("*.json")
    assert main(["report", "--records", str(records)]) == 0
    assert capsys.readouterr().out == run_text + "\n"


def test_a_run_with_no_executed_action_reports_no_product_estimate(tmp_path, capsys):
    suite_path, _, _ = card_to_sink_suite(tmp_path)
    script_path = tmp_path / "done.json"
    entry = {"completion": "Thought: nothing to do\nFinal Answer: done"}
    script_path.write_text(json.dumps({"cyclic": True, "entries": [entry]}))
    assert main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--out", str(tmp_path / "reports")]) == 0
    capsys.readouterr()
    (text,) = (tmp_path / "reports").glob("*.txt")
    assert "product-of-SSRs estimate: n/a" in text.read_text().splitlines()
    assert main(["report", "--records", str(text.with_suffix(".json"))]) == 0
    assert "product-of-SSRs estimate: n/a" in capsys.readouterr().out.splitlines()


def test_report_completion_counts(capsys):
    assert main(["report", "--completion-counts", "moderate=7/20,hard=3/20"]) == 0
    out = capsys.readouterr().out
    assert "moderate: 35%" in out
    assert "hard: 15%" in out
    assert "overall: 25%" in out


def test_report_gives_a_rate_over_no_episode_as_na(tmp_path, capsys):
    assert main(["report", "--completion-counts", "easy=0/0"]) == 0
    assert capsys.readouterr().out == "easy: n/a\noverall: n/a\n"
    assert main(["report", "--completion-counts", "easy=0/0,hard=1/2"]) == 0
    assert capsys.readouterr().out == "easy: n/a\nhard: 50%\noverall: 50%\n"
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"suite": "s", "config": "c", "seed": 1, "episodes": []}))
    assert main(["report", "--records", str(path)]) == 0
    assert "task completion: n/a (0/0)" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "counts, error",
    [
        ("moderate=25/20", "part 'moderate=25/20': successes must be from 0 to total"),
        ("moderate=7/20,hard=-1/20", "part 'hard=-1/20': successes must be from 0 to total"),
        ("a=1/2,a=2/2", "part 'a=2/2': label 'a' repeats"),
        ("a=1/2, a =2/2", "part ' a =2/2': label 'a' repeats"),
        ("moderate7/20", "part 'moderate7/20': not label=successes/total"),
        ("moderate=7", "part 'moderate=7': not label=successes/total"),
        ("moderate=7/20/3", "part 'moderate=7/20/3': not label=successes/total"),
        ("=3/4,a=1/4", "part '=3/4': not label=successes/total"),
        # a group named overall would lose its row to the pooled rate
        ("overall=1/2,hard=1/1", "label 'overall' is the pooled rate's key"),
    ],
    ids=["over-total", "negative", "repeated-label", "repeated-after-strip", "no-equals",
         "no-slash", "two-slashes", "empty-label", "overall-label"],
)
def test_report_on_out_of_range_completion_counts_is_config_error(capsys, counts, error):
    assert main(["report", "--completion-counts", counts]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: completion counts {error}\n"


def test_report_without_inputs_is_config_error(capsys):
    assert main(["report"]) == 2


def test_a_key_error_inside_a_command_is_a_bug_and_propagates(monkeypatch):
    def mistyped_key(args):
        return {}["x"]

    monkeypatch.setitem(cli._COMMANDS, "report", mistyped_key)
    with pytest.raises(KeyError):
        main(["report"])


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


# A slot message() does not fill (KeyError), a positional slot (IndexError)
# and a single brace (ValueError) would each fail mid-run.
@pytest.mark.parametrize("key, template", [
    ("exists", "no object satisfies {form}"),
    ("exists", "{0} holds for no object"),
    ("fallback", "condition not met: formula}"),
], ids=["named", "positional", "stray-brace"])
def test_a_message_table_with_a_bad_slot_exits_2_before_any_episode(tmp_path, capsys,
                                                                    monkeypatch, key, template):
    monkeypatch.setattr("homeplan.cli.run_suite", _no_run_suite)
    data = json.loads(resources.files("homeplan.data").joinpath("messages.json").read_text())
    data[key] = template
    messages_path = tmp_path / "messages.json"
    messages_path.write_text(json.dumps(data))
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--messages", str(messages_path), "--out", str(tmp_path / "reports")])
    assert code == 2
    assert capsys.readouterr().err == f"error: messages: {key} may hold no slot but {{formula}}\n"
    assert not (tmp_path / "reports").exists()


def test_run_with_step_cap(tmp_path, capsys):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    code = main(
        [
            "run",
            "--suite", str(suite_path),
            "--backend", f"scripted:{script_path}",
            "--max-steps", "2",
            "--out", str(tmp_path / "capped"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "task completion: 0% (0/2)" in out


def test_run_with_template_dir_override(tmp_path, capsys):
    import shutil

    template_dir = tmp_path / "templates"
    template_dir.mkdir()
    source = resources.files("homeplan.data").joinpath("templates")
    for name in ("expansion.txt", "critique.txt"):
        shutil.copy(str(source.joinpath(name)), template_dir / name)
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    code = main(
        [
            "run",
            "--suite", str(suite_path),
            "--backend", f"scripted:{script_path}",
            "--templates", str(template_dir),
            "--out", str(tmp_path / "tmpl"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "task completion: 50% (1/2)" in out


def _no_run_suite(*args, **kwargs):
    raise AssertionError("run_suite was called")


@pytest.mark.parametrize("mode", ["react", "mcts"])
def test_run_with_an_empty_template_dir_exits_2_before_any_episode(tmp_path, capsys, monkeypatch,
                                                                   mode):
    monkeypatch.setattr("homeplan.cli.run_suite", _no_run_suite)
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    template_dir, out_dir = tmp_path / "templates", tmp_path / "reports"
    template_dir.mkdir()
    code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--mode", mode, "--templates", str(template_dir), "--out", str(out_dir)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {template_dir / 'expansion.txt'}: No such file or directory\n")
    assert not out_dir.exists()


def test_run_with_an_out_that_is_a_file_exits_2_before_any_model_call(tmp_path, capsys,
                                                                       monkeypatch):
    monkeypatch.setattr("homeplan.cli.run_suite", _no_run_suite)
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    out = tmp_path / "taken"
    out.write_text("")
    code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: File exists\n"


def test_gen_suite_with_no_world_is_config_error(tmp_path, capsys):
    out_file = tmp_path / "suite.json"
    assert main(["gen-suite", "--seed", "1", "--count", "2", "--worlds", ",",
                 "--out", str(out_file)]) == 2
    assert capsys.readouterr().err == "error: no world to sample tasks from\n"
    assert not out_file.exists()


@pytest.mark.parametrize(
    "command",
    [["run", "--suite", "{dir}", "--backend", "remote"],
     ["run", "--suite", "{suite}", "--backend", "scripted:{dir}"],
     ["run", "--suite", "{suite}", "--backend", "scripted:{script}", "--messages", "{dir}"],
     ["replay-trace", "--trace", "{dir}"],
     ["replay-trace", "--messages", "{dir}"],
     ["report", "--records", "{dir}"],
     ["report", "--stepwise-counts", "{dir}"],
     ["compare-preconds", "--fixture", "{dir}"]],
    ids=["suite", "script", "run-messages", "trace", "replay-messages", "records", "counts",
         "fixture"],
)
def test_an_input_that_is_a_directory_is_config_error(tmp_path, capsys, command):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    directory = tmp_path / "inputs"
    directory.mkdir()
    args = [part.format(dir=directory, suite=suite_path, script=script_path) for part in command]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {directory}: Is a directory\n"


# A directory cannot be written as a file, nor a file made a directory.
@pytest.mark.parametrize(
    "command, taken, reason",
    [(["gen-suite", "--seed", "1", "--count", "2", "--worlds", "worlds/kitchen.json"],
      "directory", "Is a directory"),
     (["compare-preconds"], "directory", "Is a directory"),
     (["run", "--suite", "{suite}", "--backend", "scripted:{script}"], "file", "File exists")],
    ids=["gen-suite", "compare-preconds", "run"],
)
def test_an_output_that_cannot_be_written_is_config_error(tmp_path, capsys, command, taken,
                                                          reason):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    out = tmp_path / "taken"
    if taken == "directory":
        out.mkdir()
    else:
        out.write_text("")
    args = [part.format(suite=suite_path, script=script_path) for part in command]
    assert main(args + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"


def test_run_on_a_suite_directory_exits_2_without_a_traceback(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "homeplan.cli", "run", "--suite", str(tmp_path),
         "--backend", "remote"],
        capture_output=True, text=True,
    )
    assert result.returncode == 2
    assert result.stderr == f"error: {tmp_path}: Is a directory\n"


def _messages_without_visible(tmp_path):
    data = json.loads(resources.files("homeplan.data").joinpath("messages.json").read_text())
    del data["atoms"]["visible"]
    path = tmp_path / "messages.json"
    path.write_text(json.dumps(data))
    return path


def test_replay_with_a_message_table_missing_a_needed_text_is_config_error(tmp_path, capsys):
    code = main(["replay-trace", "--messages", str(_messages_without_visible(tmp_path))])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "error: messages: visible has no required_true text\n"


def test_run_with_a_message_table_missing_a_needed_text_gives_an_error_per_episode(
        tmp_path, capsys):
    suite_path, script_path, _ = card_to_sink_suite(tmp_path)
    code = main(["run", "--suite", str(suite_path), "--backend", f"scripted:{script_path}",
                 "--messages", str(_messages_without_visible(tmp_path)),
                 "--out", str(tmp_path / "reports")])
    out = capsys.readouterr().out
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("error:")] == [
        f"error: {episode}: messages: visible has no required_true text"
        for episode in ("demo-001", "demo-002")
    ]
