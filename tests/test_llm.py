import ast
import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan.errors import (
    BackendUnavailableError,
    MalformedCompletionError,
    MissingSlotError,
    NoPddlFoundError,
    NoScoreError,
    ScoreOutOfRangeError,
    ScriptExhaustedError,
    ScriptMismatchError,
    UnknownToolError,
)
from homeplan import llm
from homeplan.llm import (
    RETRY_CEILING_S,
    FinalAnswer,
    PromptTemplate,
    ReactStep,
    RemoteBackend,
    ScriptedBackend,
    ScriptEntry,
    extract_pddl_block,
    format_step,
    load_template,
    parse_critique,
    parse_react,
    render_prompt,
)
from homeplan.tools import builtin_tool_library


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
    assert set(template.slots) == {"tools", "tool_names", "input", "agent_scratchpad"}
    with pytest.raises(MissingSlotError):
        render_prompt(
            template, {"tools": "t", "tool_names": "a, b", "input": "task"}
        )


def test_precondition_template_contains_reference_example():
    template = load_template("precondition-generation")
    text = render_prompt(
        template,
        {
            "action_information": '{ "Action Name": "Open Object", '
            '"Action Description": "Open a target object." }'
        },
    )
    assert "Return a list of all items inside or on a target object" in text
    assert '"Action Name": "Open Object"' in text
    assert "MUST" in text  # vocabulary rules section present
    assert "{{" not in text and "}}" not in text


def test_render_rejects_stray_brace():
    template = PromptTemplate(name="x", body="hello { there")
    with pytest.raises(MissingSlotError):
        render_prompt(template, {})


def test_rendered_expansion_has_no_placeholders():
    template = load_template("expansion")
    lib = builtin_tool_library()
    text = render_prompt(
        template,
        {
            "tools": lib.describe(),
            "tool_names": ", ".join(lib.names()),
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


def test_parse_react_unknown_tool_carries_step():
    with pytest.raises(UnknownToolError) as excinfo:
        parse_react(
            "Thought: hmm\nAction: Levitate Object\nAction Input: {'object_id': 'Mug_1'}",
            builtin_tool_library(),
        )
    assert excinfo.value.step.action == "Levitate Object"


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
        parsed = parse_react(format_step(step), builtin_tool_library())
        assert parsed == step


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
        parsed = parse_react(format_step(ReactStep(step.thought, step.action, step.args)))
        assert parsed.action_input == step.args


def test_unhashable_dict_key_is_kept_as_text():
    step = parse_react("Thought: t\nAction: Pick Up Object\nAction Input: {{'a'}: 1}")
    assert step.action_input == "{{'a'}: 1}"


def test_parse_critique_basic():
    result = parse_critique("Justification: efficient plan\nScore: 8")
    assert result == type(result)(justification="efficient plan", score=8)


def test_parse_critique_out_of_range():
    with pytest.raises(ScoreOutOfRangeError):
        parse_critique("Justification: x\nScore: 11")


def test_parse_critique_uses_last_score_line():
    result = parse_critique(
        "Justification: first pass\nScore: 3\nJustification: on reflection\nScore: 7"
    )
    assert result.score == 7
    assert result.justification == "on reflection"


def test_parse_critique_no_score():
    with pytest.raises(NoScoreError):
        parse_critique("Great plan, ten out of ten!")


PART4_EXAMPLE_RESPONSE = """Here is the definition outlining the preconditions and effects of the action.
Preconditions:
```pddl
(and
    (receptacle ?x)
    (visible ?x)
    (when
        (and
            (openable ?x)
        )
        (and
            (isOpen ?x)
        )
    )
    (not (isHoldingObject))
)
```
Justification:
It makes sense that in order to search an object, that object likely must first
be visible.
"""


def test_extract_pddl_fenced_block():
    block = extract_pddl_block(PART4_EXAMPLE_RESPONSE)
    assert block.startswith("(and")
    assert block.endswith(")")
    assert "isHoldingObject" in block


def test_extract_pddl_fallback_sexpr():
    assert extract_pddl_block("sure: (and (visible ?x)) hope that helps") == (
        "(and (visible ?x))"
    )


def test_extract_pddl_none_found():
    with pytest.raises(NoPddlFoundError):
        extract_pddl_block("I cannot produce preconditions today.")


def test_scripted_ordered_sequence_and_exhaustion():
    backend = ScriptedBackend.ordered(["first", "second"])
    assert backend.complete("p1") == "first"
    assert backend.complete("p2") == "second"
    with pytest.raises(ScriptExhaustedError):
        backend.complete("p3")
    assert backend.call_count == 3


def test_scripted_cyclic_wraps():
    backend = ScriptedBackend.ordered(["a", "b"], cyclic=True)
    assert [backend.complete("p") for _ in range(5)] == ["a", "b", "a", "b", "a"]


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
    """Replies with queued (status, payload[, extra headers]) entries; the
    entries left over tell how many requests the client made."""

    responses: list = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        status, payload, *extra = self.responses.pop(0)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in (extra[0] if extra else {}).items():
            self.send_header(name, value)
        self.end_headers()
        if callable(payload):
            payload = payload(body)
        self.wfile.write(json.dumps(payload).encode())

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = HTTPServer(("127.0.0.1", 0), _StubHandler)
    # A short poll interval keeps shutdown() from waiting the default 0.5 s.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    yield server
    server.shutdown()
    server.server_close()


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


def test_remote_backend_fails_at_once_on_malformed_200(stub_server):
    _StubHandler.responses = [(200, {"choices": []}), (200, OK_BODY)]
    with pytest.raises(BackendUnavailableError, match="malformed"):
        _stub_backend(stub_server).complete("x")
    assert len(_StubHandler.responses) == 1


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
