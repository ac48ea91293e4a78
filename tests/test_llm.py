import ast
import dataclasses
import json
import os
import re
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, suppress
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan.agent import AgentConfig
from homeplan.errors import (
    BackendUnavailableError,
    HomeplanError,
    InputFormatError,
    MalformedCompletionError,
    NoScoreError,
    ScriptExhaustedError,
    ScriptMismatchError,
    UnknownToolError,
)
from homeplan import cli, llm, mcts, tools
from homeplan.llm import (
    RETRY_CEILING_S,
    TEMPLATE_SLOTS,
    FinalAnswer,
    PromptTemplate,
    ReactStep,
    RemoteBackend,
    ScriptedBackend,
    ScriptEntry,
    StepRecord,
    format_step,
    load_template,
    parse_critique,
    parse_react,
    render_prompt,
)
from homeplan.cli import main
from homeplan.suite import generate_easy_suite, run_suite, save_suite
from homeplan.tools import builtin_tool_library

from .conftest import examples


def test_critique_template_renders():
    template = load_template("critique")
    text = render_prompt(template, {"goal": "Clear the table", "plan_steps": "1. explore"})
    assert text.startswith("Score the quality the plan and provide a justification")
    assert "Goal: Clear the table" in text
    assert "Plan: 1. explore" in text
    assert '{"Tool Names": str}' in text  # escaped literal braces survive
    assert "{goal}" not in text


def test_expansion_template_slots():
    template = load_template("expansion")
    fills = {"tools": "<T>", "tool_names": "<N>", "input": "<I>", "agent_scratchpad": "<S>"}
    text = render_prompt(template, fills)
    assert [text.count(fill) for fill in fills.values()] == [1, 1, 1, 1]
    assert "{" not in text and "}" not in text
    with pytest.raises(KeyError) as missing:
        render_prompt(
            template, {"tools": "t", "tool_names": "a, b", "input": "task"}
        )
    assert missing.value.args == ("agent_scratchpad",)


def test_render_rejects_stray_brace():
    template = PromptTemplate(body="hello { there")
    with pytest.raises(InputFormatError, match=r"^a stray '\{'; write '\{\{' for the brace$"):
        render_prompt(template, {})


def test_rendered_expansion_has_no_placeholders():
    template = load_template("expansion")
    lib = builtin_tool_library()
    text = render_prompt(
        template,
        {
            "tools": "\n".join(f"{name}: {spec.description}" for name, spec in lib.items()),
            "tool_names": ", ".join(lib),
            "input": "Clear off the dining room table.",
            "agent_scratchpad": "",
        },
    )
    assert "{tools}" not in text
    assert "Randomly Explore:" in text


FIRST_STEP_COMPLETION = """Thought: To clear off the dining room table, I need to identify all objects currently on the table and then pick them up one by one. First, I'll randomly explore to find the dining room table and other objects.
Action: Randomly Explore
Action Input: {'input': None}
Observation: this hallucinated tail should be ignored
Thought: fake future step
Action: Get Discovered Objects
"""


def test_parse_react_first_triple_only():
    step = parse_react(FIRST_STEP_COMPLETION, builtin_tool_library())
    assert isinstance(step, ReactStep)
    assert step.thought.startswith("To clear off the dining room table")
    assert step.action == "Randomly Explore"
    assert step.action_input == {"input": None}


def test_parse_react_final_answer():
    result = parse_react(
        "Thought: all done\nFinal Answer: The dining room table has been successfully "
        "cleared of all objects."
    )
    assert isinstance(result, FinalAnswer)
    assert result.text.startswith("The dining room table")


def test_parse_react_prose_is_malformed():
    with pytest.raises(MalformedCompletionError):
        parse_react("I am not sure what to do next, sorry.")


def test_parse_react_unknown_tool_names_the_action():
    with pytest.raises(UnknownToolError, match="'Levitate Object'") as excinfo:
        parse_react(
            "Thought: hmm\nAction: Levitate Object\nAction Input: {'object_id': 'Mug_1'}",
            builtin_tool_library(),
        )
    assert excinfo.value.name == "Levitate Object"


def test_parse_react_object_id_args():
    step = parse_react(
        "Thought: grab it\nAction: Pick Up Object\nAction Input: {'object_id': 'Knife_1'}",
        builtin_tool_library(),
    )
    assert step.action_input == {"object_id": "Knife_1"}


def test_parse_react_round_trips_format_step():
    for step in [
        ReactStep("think", "Pick Up Object", {"object_id": "Knife_1"}),
        ReactStep("", "Randomly Explore", {"input": None}),
        ReactStep("t", "Get Discovered Objects", None),
    ]:
        record = StepRecord(step.thought, step.action, step.action_input, "ok")
        parsed = parse_react(format_step(record), builtin_tool_library())
        assert parsed == step


# The reference's own line patterns: each label anchored at a line start.
_REFERENCE_ACTION = re.compile(r"^Action\s*:\s*(.*)$", re.MULTILINE)
_REFERENCE_ACTION_INPUT = re.compile(r"^Action Input\s*:\s*(.*)$", re.MULTILINE)
_REFERENCE_FINAL = re.compile(r"^Final Answer\s*:\s*(.*)$", re.MULTILINE | re.DOTALL)
_REFERENCE_THOUGHT = re.compile(r"^Thought\s*:\s*(.*)$", re.MULTILINE)


def unguarded_parse_react(completion, library=None):
    """Reference: parse_react as line-anchored searches of the completion,
    with the Final Answer pattern searched on every completion, whether or
    not it holds the text "Final Answer"."""
    action_match = _REFERENCE_ACTION.search(completion)
    final_match = _REFERENCE_FINAL.search(completion)
    if final_match and (not action_match or final_match.start() < action_match.start()):
        return FinalAnswer(final_match.group(1).strip())
    if not action_match:
        raise MalformedCompletionError("no Action or Final Answer found")
    action = action_match.group(1).strip()
    input_match = _REFERENCE_ACTION_INPUT.search(completion, action_match.end())
    action_input = llm._parse_action_input(input_match.group(1)) if input_match else None
    thought = ""
    for match in _REFERENCE_THOUGHT.finditer(completion, 0, action_match.start()):
        thought = match.group(1).strip()
    if library is not None and action not in library:
        raise UnknownToolError(action)
    return ReactStep(thought=thought, action=action, action_input=action_input)


def _parse_outcome(parse, completion, library):
    try:
        return parse(completion, library)
    except HomeplanError as exc:
        return type(exc), str(exc)


# A completion is a run of lines "<label><separator><value><line end>"; a
# separator ending in a line break leaves the value on the next line.
_react_lines = st.lists(
    st.tuples(
        st.sampled_from(["Thought", "Action", "Action Input", "Final Answer", "Final  Answer",
                         "final answer", "Final", "Observation", " Action", ""]),
        st.sampled_from([":", " :", ": ", ":\n", ":\r\n", " "]),
        st.sampled_from(["", "look around", "Pick Up Object", "Levitate Object",
                         "{'object_id': 'Knife_1'}", "{'input': None}", "{'object_id': ",
                         "{'object_id': 'Apple_1'}", "{'object_id': 'Cabinet_4', 'input': None}",
                         "step 3. Action: Place Object", "I will use Action Input: x",
                         "done. Final Answer: no", "Final Answer: yes", "Answer: x"]),
        st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\n\r\n", "\r\n\r\n", ""]),
    ).map("".join),
    max_size=8,
).map("".join)


@settings(derandomize=True, max_examples=examples(1000), deadline=None)
@given(_react_lines, st.sampled_from([None, builtin_tool_library()]))
def test_parse_react_matches_the_unguarded_reference(completion, library):
    assert (_parse_outcome(parse_react, completion, library)
            == _parse_outcome(unguarded_parse_react, completion, library))


# A completion in the three-line form format_step writes, which parse_react
# reads by one match when each value starts visibly: values padded with
# whitespace or empty, labels inside the thought, a tool name with trailing
# spaces, and a line after the three. Three paddings in four are empty.
_padding = st.sampled_from(["", " ", "\t", "\r", "\x0c", "\x85", "\u2028"] + [""] * 18)


def _padded(values):
    return st.tuples(_padding, values, _padding).map("".join)


_step_lines = st.builds(
    "Thought: {}{end}Action: {}{end}Action Input: {}{}".format,
    _padded(st.sampled_from(["", "look around", "done. Final Answer: no",
                             "step 3. Action: Place Object", "use Action Input: x"])),
    _padded(st.sampled_from(["", "Pick Up Object", "Pick Up Object  ", "Levitate Object",
                             "Randomly Explore", "Final Answer: yes"])),
    _padded(st.sampled_from(["", "None", "{'object_id': 'Apple_1'}", "{'input': None}",
                             "{'object_id': ", "{'object_id': 'Cabinet_4', 'input': None}"])),
    st.sampled_from(["", "\n", "\nObservation: ok", "\nAction: Close Object",
                     "\nAction Input: None", "\nThought: again", "\nFinal Answer: yes"]),
    end=st.sampled_from(["\n", "\r\n"]),
)


@settings(derandomize=True, max_examples=examples(1000), deadline=None)
@given(_step_lines, st.sampled_from([None, builtin_tool_library()]))
def test_parse_react_reads_the_written_form_as_the_reference_does(completion, library):
    assert (_parse_outcome(parse_react, completion, library)
            == _parse_outcome(unguarded_parse_react, completion, library))


class _NoLineSearch:
    def search(self, *args):
        raise AssertionError("a completion in the written form was read by line searches")

    finditer = search


def test_every_tool_step_as_written_is_read_by_one_match(monkeypatch):
    """The form format_step writes, for each built-in tool with its example
    input, is read without the line searches, as the reference reads it."""
    library = builtin_tool_library()
    steps = [ReactStep(f"I will use {tool.name}", tool.name,
                       {"input": None} if tool.example is None else {"object_id": tool.example})
             for tool in tools._TOOLS]
    assert [step.action for step in steps] == list(library)
    for name in ("_ACTION_RE", "_ACTION_INPUT_RE", "_FINAL_RE", "_THOUGHT_RE"):
        monkeypatch.setattr(llm, name, _NoLineSearch())
    for step in steps:
        for observation in (None, "ok"):
            completion = format_step(
                StepRecord(step.thought, step.action, step.action_input, observation))
            for given_library in (None, library):
                assert parse_react(completion, given_library) == step
                assert unguarded_parse_react(completion, given_library) == step


_REFERENCE_SCORE = re.compile(r"^Score\s*:\s*(-?\d+)\s*$", re.MULTILINE)
_REFERENCE_JUSTIFICATION = re.compile(r"^Justification\s*:\s*(.*)$", re.MULTILINE)


def line_anchored_parse_critique(completion):
    """Reference: parse_critique as line-anchored searches of the completion."""
    scores = list(_REFERENCE_SCORE.finditer(completion))
    if not scores:
        raise NoScoreError("no Score: line in critique completion")
    score = int(scores[-1].group(1))
    if not 1 <= score <= 10:
        raise NoScoreError(f"critique score {score} outside 1..10")
    justification = ""
    for match in _REFERENCE_JUSTIFICATION.finditer(completion, 0, scores[-1].start()):
        justification = match.group(1).strip()
    return llm.CritiqueResult(justification=justification, score=score)


_critique_lines = st.lists(
    st.tuples(
        st.sampled_from(["Score", "Justification", " Score", "score", "Final Score", ""]),
        st.sampled_from([":", " :", ": ", ":\n", ":\r\n", " "]),
        st.sampled_from(["", "7", "10", "11", "0", "-3", "5 ", "5 \t", "5/10", "07",
                         "The plan rates 4 on progress.", "fine. Score: 6", "Justification: x"]),
        st.sampled_from(["\n", "\r\n", "\r", "\n\n", " \n", ""]),
    ).map("".join),
    max_size=6,
).map("".join)


@settings(derandomize=True, max_examples=examples(500), deadline=None)
@given(_critique_lines)
def test_parse_critique_matches_the_line_anchored_reference(completion):
    assert (_parse_outcome(lambda text, _: parse_critique(text), completion, None)
            == _parse_outcome(lambda text, _: line_anchored_parse_critique(text), completion, None))


def literal_action_input(raw):
    """Reference: the Action Input parse with literal_eval alone."""
    raw = raw.strip()
    if not raw or raw == "None":
        return None
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError, TypeError):
        return raw
    return value if isinstance(value, dict) else raw


_input_pieces = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["'", '"', "\\", "\r", "\n", "\x00", "\t", " ", "None", "\u00e9", "\u4e2d",
                     "\x0c", "\x85", "\u2028", "\ud800", "\\n", "\\x41"]),
)
_input_text = st.lists(_input_pieces, max_size=4).map("".join)


# literal_eval warns on invalid escapes such as "\\x" before it rejects them.
@pytest.mark.filterwarnings("ignore::DeprecationWarning", "ignore::SyntaxWarning")
@settings(max_examples=500)
@given(
    st.one_of(
        _input_text,
        st.builds("{{'{}': '{}'}}".format, _input_text, _input_text),
        st.builds("{{'{}': None}}".format, _input_text),
        st.builds("{}{{'{}': None}}{}".format, _input_text, _input_text, _input_text),
    )
)
def test_action_input_fast_path_matches_literal_eval(raw):
    expected = literal_action_input(raw)
    parsed = llm._parse_action_input(raw)
    assert parsed == expected
    assert type(parsed) is type(expected)
    if isinstance(parsed, dict):
        assert [type(v) for v in parsed.values()] == [type(v) for v in expected.values()]


def test_transcript_action_inputs_skip_literal_eval(monkeypatch, clear_table_trace):
    def no_literal_eval(raw):
        raise AssertionError(f"literal_eval called on {raw!r}")

    monkeypatch.setattr(llm.ast, "literal_eval", no_literal_eval)
    for step in clear_table_trace.steps:
        parsed = parse_react(format_step(step))
        assert parsed.action_input == step.args


# An unhashable key (TypeError), and inputs nested deeper than Python's parser
# goes: a long chain of sums (RecursionError) and of unary minuses (MemoryError).
@pytest.mark.parametrize("raw", [
    "{{'a'}: 1}",
    "1+" * 99_999 + "1",
    "{'object_id': " + "-" * 50_000 + "1}",
], ids=["unhashable-key", "deep-sum", "deep-minus"])
def test_an_action_input_literal_eval_cannot_read_is_kept_as_text(raw):
    step = parse_react(f"Thought: t\nAction: Pick Up Object\nAction Input: {raw}")
    assert step.action_input == raw


def test_parse_critique_basic():
    result = parse_critique("Justification: efficient plan\nScore: 8")
    assert result == type(result)(justification="efficient plan", score=8)


def test_parse_critique_out_of_range():
    with pytest.raises(NoScoreError, match="^critique score 11 outside 1..10$"):
        parse_critique("Justification: x\nScore: 11")


def test_parse_critique_uses_last_score_line():
    result = parse_critique(
        "Justification: first pass\nScore: 3\nJustification: on reflection\nScore: 7"
    )
    assert result.score == 7
    assert result.justification == "on reflection"


def test_parse_critique_score_longer_than_int_reads():
    with pytest.raises(NoScoreError, match="^critique score has too many digits$"):
        parse_critique("Justification: x\nScore: " + "5" * 5000)


def test_parse_critique_no_score():
    with pytest.raises(NoScoreError):
        parse_critique("Great plan, ten out of ten!")


def test_scripted_ordered_sequence_and_exhaustion():
    backend = ScriptedBackend.ordered(["first", "second"])
    assert backend.complete("p1") == "first"
    assert backend.complete("p2") == "second"
    with pytest.raises(ScriptExhaustedError):
        backend.complete("p3")


@pytest.mark.parametrize("mode", ["ordered", "keyed"])
def test_a_script_that_has_run_out_stays_exhausted(mode):
    backend = ScriptedBackend([ScriptEntry("a"), ScriptEntry("b", match="p")], mode=mode)
    assert [backend.complete("p"), backend.complete("p")] == ["a", "b"]
    for _ in range(2):
        with pytest.raises(ScriptExhaustedError):
            backend.complete("p")


def test_scripted_cyclic_wraps():
    backend = ScriptedBackend.ordered(["a", "b"], cyclic=True)
    assert [backend.complete("p") for _ in range(5)] == ["a", "b", "a", "b", "a"]


@pytest.mark.parametrize("entries", [[], [ScriptEntry("a", uses=0), ScriptEntry("b", uses=0)]],
                         ids=["no-entries", "all-used-up"])
def test_a_cyclic_script_that_can_never_answer_is_rejected_when_built(entries):
    # Either would loop forever or fail with IndexError at the first call.
    with pytest.raises(ValueError):
        ScriptedBackend(entries, cyclic=True)


def test_scripted_ordered_matcher_mismatch():
    backend = ScriptedBackend([ScriptEntry(completion="x", match="expected text")])
    with pytest.raises(ScriptMismatchError):
        backend.complete("something else entirely")


def test_scripted_keyed_branches_on_prompt():
    backend = ScriptedBackend(
        [
            ScriptEntry(completion="recover", match="not visible", uses=-1),
            ScriptEntry(completion="default", uses=-1),
        ],
        mode="keyed",
    )
    assert backend.complete("Observation: Tool Failed: the target object is not visible, ") == "recover"
    assert backend.complete("Observation: Tool Completed Successfully: done") == "default"
    assert backend.complete("still not visible here") == "recover"


def test_scripted_keyed_respects_uses():
    backend = ScriptedBackend(
        [ScriptEntry(completion="once", match="go", uses=1),
         ScriptEntry(completion="fallback", uses=-1)],
        mode="keyed",
    )
    assert backend.complete("go") == "once"
    assert backend.complete("go") == "fallback"


def test_scripted_determinism():
    script = {
        "mode": "ordered",
        "entries": [{"completion": "a"}, {"completion": "b"}],
    }
    first = ScriptedBackend.from_dict(script)
    second = ScriptedBackend.from_dict(script)
    prompts = ["p1", "p2"]
    assert [first.complete(p) for p in prompts] == [second.complete(p) for p in prompts]


class _StubHandler(BaseHTTPRequestHandler):
    """Replies with queued (status, payload[, extra headers]) entries, a
    payload of bytes as it is and any other as JSON; the entries left over
    tell how many requests the client made, and the server's ``ports``, the
    client port of each request, over how many connections. Over HTTP/1.0
    the server closes the connection after every reply."""

    responses: list = []
    timeout = 10  # a connection idle this long is closed

    def do_POST(self):
        self.server.ports.append(self.client_address[1])
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        status, payload, *extra = self.responses.pop(0)
        if callable(payload):
            payload = payload(body)
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class _KeepAliveStubHandler(_StubHandler):
    """The stub over HTTP/1.1, which keeps a connection open between replies
    until the client closes it. The server's ``closed`` gets the client port
    of each connection once it has ended."""

    protocol_version = "HTTP/1.1"

    def handle(self):
        super().handle()
        with suppress(OSError):  # the client sees the end before it is recorded
            self.request.shutdown(socket.SHUT_WR)
        self.server.closed.append(self.client_address[1])


class _ClosingStubHandler(_KeepAliveStubHandler):
    """An HTTP/1.1 server that closes the connection after every reply
    without saying so in a header."""

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


@contextmanager
def _serving(handler):
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    # Each server records its own connections, so a connection of an earlier
    # test that ends late is not counted here.
    server.ports, server.closed = [], []
    # A short poll interval keeps shutdown() from waiting the default 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture(params=[_StubHandler, _KeepAliveStubHandler], ids=["http1.0", "http1.1"])
def stub_server(request):
    with _serving(request.param) as server:
        yield server


def test_remote_backend_round_trip(stub_server):
    _StubHandler.responses = [
        (
            200,
            lambda body: {
                "choices": [
                    {"message": {"content": f"echo: {body['messages'][0]['content']}"}}
                ]
            },
        )
    ]
    backend = RemoteBackend(
        endpoint=f"http://127.0.0.1:{stub_server.server_port}/v1/chat/completions",
        api_key="test-key",
        model="test-model",
    )
    assert backend.complete("hello", temperature=0.2) == "echo: hello"


def test_remote_backend_retries_then_succeeds(stub_server):
    _StubHandler.responses = [
        (500, {"error": "boom"}),
        (200, {"choices": [{"message": {"content": "recovered"}}]}),
    ]
    backend = RemoteBackend(
        endpoint=f"http://127.0.0.1:{stub_server.server_port}/v1/chat/completions",
        api_key=None,
        model="m",
        max_retries=3,
    )
    assert backend.complete("x") == "recovered"


OK_BODY = {"choices": [{"message": {"content": "recovered"}}]}


def _stub_backend(server) -> RemoteBackend:
    return RemoteBackend(
        endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
        model="m",
        max_retries=3,
    )


def test_remote_backend_fails_at_once_on_401(stub_server):
    _StubHandler.responses = [(401, {"error": "bad key"}), (200, OK_BODY)]
    with pytest.raises(BackendUnavailableError, match="401"):
        _stub_backend(stub_server).complete("x")
    assert len(_StubHandler.responses) == 1  # exactly one request made


# A reply with no choices, and one whose completion is null (as a refusal or
# a reply of tool calls only may be).
NULL_BODY = {"choices": [{"message": {"role": "assistant", "content": None}}]}


@pytest.mark.parametrize("body", [{"choices": []}, NULL_BODY], ids=["no-choices", "null"])
def test_remote_backend_fails_at_once_on_malformed_200(stub_server, body):
    _StubHandler.responses = [(200, body), (200, OK_BODY)]
    with pytest.raises(BackendUnavailableError, match="^malformed completion body: "):
        _stub_backend(stub_server).complete("x")
    assert len(_StubHandler.responses) == 1


def test_a_null_completion_fails_each_episode_with_one_error(stub_server):
    suite = generate_easy_suite(seed=1, count=2, world_refs=["worlds/kitchen.json"])
    _StubHandler.responses = [(200, NULL_BODY)] * 2
    report, _ = run_suite(suite, AgentConfig(), _stub_backend(stub_server))
    assert [error.split(": ", 1) for error in report.errors] == [
        [task.id, f"malformed completion body: {json.dumps(NULL_BODY)}"] for task in suite.tasks]
    assert _StubHandler.responses == []


def test_a_completion_body_nested_deeper_than_json_reads_fails_its_episode_once(stub_server):
    suite = generate_easy_suite(seed=1, count=1, world_refs=["worlds/kitchen.json"])
    deep = b"[" * 100_000 + b"]" * 100_000  # json.loads raises RecursionError
    _StubHandler.responses = [(200, deep), (200, OK_BODY)]
    report, _ = run_suite(suite, AgentConfig(), _stub_backend(stub_server))
    assert report.errors == [f"{suite.tasks[0].id}: malformed completion body: {'[' * 200}"]
    assert len(_StubHandler.responses) == 1  # no retry


def _record_waits(monkeypatch) -> list:
    waits: list = []
    monkeypatch.setattr(llm, "time", SimpleNamespace(sleep=waits.append))
    return waits


def test_remote_backend_honours_retry_after_on_429(stub_server, monkeypatch):
    waits = _record_waits(monkeypatch)
    _StubHandler.responses = [
        (429, {"error": "slow down"}, {"Retry-After": "0"}),
        (200, OK_BODY),
    ]
    assert _stub_backend(stub_server).complete("x") == "recovered"
    assert _StubHandler.responses == []  # two requests made
    assert waits == [0]  # Retry-After replaced the 1 s backoff


def test_remote_backend_waits_the_ceiling_for_a_retry_after_longer_than_int_reads(
        stub_server, monkeypatch):
    waits = _record_waits(monkeypatch)
    _StubHandler.responses = [
        (429, {"error": "slow down"}, {"Retry-After": "9" * 5000}),
        (200, OK_BODY),
    ]
    assert _stub_backend(stub_server).complete("x") == "recovered"
    assert waits == [RETRY_CEILING_S]


def test_remote_backend_gives_up_after_max_retries(stub_server, monkeypatch):
    waits = _record_waits(monkeypatch)
    _StubHandler.responses = [
        (503, {"error": "down"}, {"Retry-After": "120"}),
        (500, {"error": "down"}),
        (502, {"error": "down"}),
        (200, OK_BODY),
    ]
    with pytest.raises(BackendUnavailableError, match="after 3 attempts: endpoint returned 502"):
        _stub_backend(stub_server).complete("x")
    assert len(_StubHandler.responses) == 1
    assert waits == [RETRY_CEILING_S, 2]  # Retry-After capped; no wait after the last try


def _wait_until(condition, seconds: float = 5.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_remote_backend_keeps_one_connection_per_thread_until_closed():
    with _serving(_KeepAliveStubHandler) as server:
        _StubHandler.responses = [(200, OK_BODY)] * 7
        backend = _stub_backend(server)
        assert [backend.complete("x") for _ in range(5)] == ["recovered"] * 5
        assert len(set(server.ports)) == 1
        replies: list = []
        other = threading.Thread(target=lambda: replies.append(backend.complete("x")))
        other.start()
        other.join(timeout=10)
        assert not other.is_alive() and replies == ["recovered"]
        connections = set(server.ports)
        assert len(connections) == 2  # the other thread's own
        backend.close()
        _wait_until(lambda: set(server.closed) == connections)
        assert backend.complete("x") == "recovered"  # on a new connection
        backend.close()
        _wait_until(lambda: set(server.closed) == set(server.ports))
    assert len(server.ports) == 7
    assert len(set(server.ports)) == 3


@pytest.mark.parametrize(
    "handler, headers",
    [(_KeepAliveStubHandler, {"Connection": "close"}), (_ClosingStubHandler, {})],
    ids=["declared", "silent"],
)
def test_a_server_that_closes_after_every_reply_costs_no_extra_attempt(
        monkeypatch, handler, headers):
    waits = _record_waits(monkeypatch)
    with _serving(handler) as server:
        _StubHandler.responses = [(200, OK_BODY, headers)] * 3
        backend = _stub_backend(server)
        try:
            for call in range(3):
                assert backend.complete("x") == "recovered"
                _wait_until(lambda: len(server.closed) > call)
        finally:
            backend.close()
    assert _StubHandler.responses == []
    assert len(set(server.ports)) == 3
    assert waits == []


def test_run_with_the_remote_backend_closes_its_connection(tmp_path, monkeypatch, capsys):
    backends: list = []

    class KeptBackend(RemoteBackend):
        """Kept alive by the test, so only close() ends its connection."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            backends.append(self)

    monkeypatch.setattr(cli, "RemoteBackend", KeptBackend)
    suite_path = tmp_path / "suite.json"
    save_suite(generate_easy_suite(seed=1, count=2, world_refs=["worlds/kitchen.json"]),
               suite_path)
    final = {"choices": [{"message": {"content": "Thought: done\nFinal Answer: done"}}]}
    with _serving(_KeepAliveStubHandler) as server:
        monkeypatch.setenv(llm.ENV_ENDPOINT, f"http://127.0.0.1:{server.server_port}/v1")
        _StubHandler.responses = [(200, final)] * 2
        assert main(["run", "--suite", str(suite_path), "--backend", "remote",
                     "--out", str(tmp_path / "reports")]) == 0
        assert _StubHandler.responses == []
        assert len(set(server.ports)) == 1
        _wait_until(lambda: server.closed == server.ports[:1])
    assert len(backends) == 1


@pytest.mark.parametrize(
    "setting, message",
    [({"max_retries": 0}, "max_retries"), ({"max_retries": -1}, "max_retries"),
     ({"timeout": 0}, "timeout"), ({"timeout": -1.0}, "timeout")],
    ids=["no-attempts", "negative-attempts", "zero-timeout", "negative-timeout"],
)
def test_remote_backend_rejects_impossible_settings(setting, message):
    with pytest.raises(ValueError, match=message):
        RemoteBackend(endpoint="http://127.0.0.1:9/v1/chat/completions", **setting)


_NEW_MODULES = """
import sys
before = set(sys.modules)
import homeplan, homeplan.agent, homeplan.suite, homeplan.cli
homeplan.llm.RemoteBackend(endpoint="http://127.0.0.1:9")  # built, never called
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_importing_the_package_loads_neither_requests_nor_a_thread_pool():
    """Offline runs never make an HTTP call or start a worker pool, so set-up
    imports neither, nor does building a remote backend; the remote and
    workers > 1 tests load them on use. The
    new modules are diffed against the process's own start, so site hooks
    that load something first do not matter."""
    src = str(Path(llm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _NEW_MODULES], env=env,
                          capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "homeplan.cli" in loaded
    assert loaded & {"requests", "urllib3", "concurrent.futures"} == set()


# ---------------------------------------------------------------------------
# Compiled templates and template reads

_REFERENCE_SLOT_RE = re.compile(r"\{\{|\}\}|\{([A-Za-z_][A-Za-z0-9_]*)\}|\{|\}")


class _StrayBrace(Exception):
    pass


def reference_render(template, fills):
    """render_prompt before templates were compiled: one regex scan per call,
    stopped by the first stray brace or missing fill in body order."""
    out = []
    pos = 0
    for match in _REFERENCE_SLOT_RE.finditer(template.body):
        out.append(template.body[pos: match.start()])
        pos = match.end()
        token = match.group(0)
        if token == "{{":
            out.append("{")
        elif token == "}}":
            out.append("}")
        elif match.group(1):
            out.append(str(fills[match.group(1)]))
        else:
            raise _StrayBrace(token)
    out.append(template.body[pos:])
    return "".join(out)


def _outcome(render, template, fills):
    try:
        return render(template, fills), None
    except KeyError as exc:
        return None, exc.args


_body_pieces = st.one_of(
    st.sampled_from(["{{", "}}", "{", "}", "{a}", "{b}", "{c_1}", "{missing}", "{1a}",
                     "{ a}", "{a", "a}", "{{a}}", "{{{a}}}", "text", " ", "\n"]),
    st.text(alphabet="ab_1{} \n", max_size=5),
)


@settings(max_examples=examples(500))
@given(
    st.lists(_body_pieces, max_size=10).map("".join),
    st.dictionaries(st.sampled_from(["a", "b", "c_1"]),
                    st.one_of(st.text(alphabet="ab{}", max_size=3), st.integers())),
)
def test_render_prompt_matches_the_regex_reference(body, fills):
    """A body is refused when split exactly when it holds a stray brace, the
    first one named; any other renders as the reference does, a missing fill
    being a KeyError that names the first missing slot."""
    template = PromptTemplate(body=body)
    try:
        reference_render(template, defaultdict(str))  # every slot filled
    except _StrayBrace as exc:
        (stray,) = exc.args
        with pytest.raises(InputFormatError) as refused:
            render_prompt(template, fills)
        assert str(refused.value) == f"a stray {stray!r}; write {stray * 2!r} for the brace"
        return
    expected = _outcome(reference_render, template, fills)
    for _ in range(2):  # the second render reuses the compiled pieces
        assert _outcome(render_prompt, template, fills) == expected


def test_packaged_template_is_one_instance_split_once(monkeypatch):
    scans = []

    class CountingSlotRe:
        def finditer(self, body):
            scans.append(body)
            return _REFERENCE_SLOT_RE.finditer(body)

    monkeypatch.setattr(llm, "_SLOT_RE", CountingSlotRe())
    llm._packaged_template.cache_clear()
    first = load_template("critique")
    fills = {"goal": "g", "plan_steps": "p"}
    assert render_prompt(first, fills) == render_prompt(load_template("critique"), fills)
    assert load_template("critique") is first
    assert scans == [first.body]
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.body = ""


def test_template_directory_override_is_read_on_every_call(tmp_path):
    (tmp_path / "critique.txt").write_text("first {goal}\n")
    assert load_template("critique", directory=tmp_path).body == "first {goal}"
    (tmp_path / "critique.txt").write_text("second {goal}\n")
    assert load_template("critique", directory=tmp_path).body == "second {goal}"


def test_the_declared_template_slots_are_the_ones_the_planner_fills(monkeypatch):
    """Each packaged template holds exactly its declared slots, and the fills
    that MctsPlanner builds for it name exactly those slots."""
    rendered = []
    monkeypatch.setattr(mcts, "render_prompt", lambda template, fills: (
        rendered.append((template, set(fills))) or render_prompt(template, fills)))
    planner = mcts.MctsPlanner(ScriptedBackend.ordered(["Score: 5"]))
    planner.expansion_prompt("goal", "")
    planner.critique([], "goal")
    assert len(rendered) == len(TEMPLATE_SLOTS)  # expansion, then critique
    for name, (template, fills) in zip(TEMPLATE_SLOTS, rendered):
        assert template is load_template(name)
        assert {slot for _, slot in template._pieces[0]} == set(TEMPLATE_SLOTS[name]) == fills


def list_and_join_format_step(step):
    """Reference: format_step as a list of lines joined by newlines."""
    if step.action is None:
        return f"Observation: {step.observation}\n"
    args = step.args if step.args is not None else "None"
    lines = [
        f"Thought: {step.thought}",
        f"Action: {step.action}",
        f"Action Input: {llm.stable_repr(args)}" if isinstance(args, dict)
        else f"Action Input: {args}",
    ]
    if step.observation is not None:
        lines.append(f"Observation: {step.observation}")
    return "\n".join(lines) + "\n"


_step_text = st.text(max_size=6)
_arg_values = st.one_of(st.none(), _step_text, st.integers(),
                        st.sets(_step_text, max_size=3), st.frozensets(_step_text, max_size=3),
                        st.lists(st.sets(_step_text, max_size=2), max_size=2))


@settings(max_examples=examples(500))
@given(st.builds(StepRecord,
                 _step_text,
                 st.one_of(st.none(), st.sampled_from(["Pick Up Object", "Randomly Explore"]),
                           _step_text),
                 st.one_of(st.none(), _step_text,
                           st.dictionaries(_step_text, _arg_values, max_size=3)),
                 st.one_of(st.none(), _step_text)))
def test_format_step_matches_the_list_and_join_reference(step):
    assert format_step(step) == list_and_join_format_step(step)


# ---------------------------------------------------------------------------
# Set-valued Action Inputs

_SET_RENDERING = """
from homeplan.llm import ReactStep, StepRecord, format_step
from homeplan.mcts import SearchNode, _plan_steps

args = {'object_id': {'Apple_1', 'Bread_1', 'Mug_1'}}
step = StepRecord('t', 'Pick Up Object', args, 'o')
print(format_step(step))
print(step.to_dict()['args'])
print(_plan_steps([SearchNode(state=None, proposal=ReactStep('t', 'Pick Up Object', args))]))
"""


def test_set_valued_action_input_renders_the_same_under_every_hash_seed():
    src = str(Path(llm.__file__).resolve().parents[1])
    outputs = set()
    for seed in range(1, 5):
        env = {**os.environ, "PYTHONHASHSEED": str(seed),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", _SET_RENDERING], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(done.stdout)
    assert len(outputs) == 1
    assert outputs.pop().count("{'object_id': {'Apple_1', 'Bread_1', 'Mug_1'}}") == 3


_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                     st.text(alphabet="ab{}'\"\\", max_size=3))
_hashables = st.recursive(_scalars, lambda inner: st.tuples(inner, inner), max_leaves=4)


def _values(with_sets):
    def extend(inner):
        containers = [
            st.lists(inner, max_size=3),
            st.lists(inner, max_size=3).map(tuple),
            st.dictionaries(_hashables, inner, max_size=3),
        ]
        if with_sets:
            containers.append(st.sets(_hashables, max_size=4))
        return st.one_of(containers)

    return st.recursive(_scalars, extend, max_leaves=8)


@given(_values(with_sets=False))
def test_stable_repr_is_repr_without_sets(value):
    assert llm.stable_repr(value) == repr(value)


@given(_values(with_sets=True))
def test_stable_repr_reads_back_as_the_value(value):
    text = llm.stable_repr(value)
    assert ast.literal_eval(text) == value


@given(st.sets(st.text(max_size=3), min_size=1), st.booleans())
def test_stable_repr_sorts_set_elements(elements, frozen):
    value = frozenset(elements) if frozen else elements
    body = "{" + ", ".join(sorted(repr(item) for item in elements)) + "}"
    assert llm.stable_repr(value) == (f"frozenset({body})" if frozen else body)
    assert llm.stable_repr({"k": [value]}) == "{'k': [" + llm.stable_repr(value) + "]}"
