"""Every JSON input loader refuses a malformed input with a HomeplanError.

The property test mutates each shipped input (a world, a suite, a task, the
trace, a scenario script, the message table, the labeled pairs and the two
``homeplan report`` inputs): it replaces one random subtree with another
JSON value, or deletes one key or array member, and runs the result through
that input's loader. The loader must return or raise a HomeplanError, never
any other exception. Every file loader, prompt templates included, also
turns a file that cannot be read, decoded or parsed into an
InputFormatError naming the file.
"""

import copy
import json
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homeplan import grounding, llm, suite, tools
from homeplan.cli import _make_backend_factory
from homeplan.errors import (
    HomeplanError,
    InputFormatError,
    check_fields,
)
from homeplan.grounding import MessageTable
from homeplan.llm import ScriptedBackend, load_template
from homeplan.precondgen import compare_fixture
from homeplan.sim import load_task, load_trace, task_from_dict, trace_from_dict
from homeplan.suite import (
    MetricsReport,
    generate_easy_suite,
    load_report,
    load_stepwise_counts,
    load_suite,
    resolve_world,
    suite_from_dict,
)
from homeplan.tools import load_precondition_pairs
from homeplan.world import load_world, world_from_dict

from .test_suite import REFERENCE_STEPWISE_ROWS

DATA = resources.files("homeplan.data")
WORLD_REFS = ["worlds/kitchen.json", "worlds/kitchen_b.json", "worlds/kitchen_c.json"]


def _shipped(ref: str):
    return json.loads(DATA.joinpath(ref).read_text("utf-8"))


SCENARIOS = [json.loads(path.read_text("utf-8"))
             for path in sorted(Path(str(DATA.joinpath("scenarios"))).glob("*/*.json"))]
REPORT = MetricsReport("demo", "react/grounding=on", 1, [
    {"id": "a", "difficulty": "easy", "outcome": "success", "success": True, "steps": 2,
     "llm_calls": 2, "actions": [{"action": "Randomly Explore", "ok": True},
                                 {"action": "Pick Up Object", "ok": False}]},
    {"id": "b", "difficulty": "hard", "outcome": "failure", "success": False, "steps": 0,
     "llm_calls": 0, "actions": []},
], errors=["b: ordered script exhausted"]).to_dict()


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs") / "input.json"


def _from_file(load):
    """A loader of a file's data, run on data written to that file first."""
    def run(data, path):
        path.write_text(json.dumps(data), encoding="utf-8")
        return load(path)
    return run


# input name -> (loader of (data, scratch file path), shipped documents)
LOADERS = {
    "world": (lambda data, _: world_from_dict(data),
              [_shipped(ref) for ref in WORLD_REFS] + [s["world"] for s in SCENARIOS]),
    "suite": (lambda data, _: suite_from_dict(data),
              [generate_easy_suite(7, 4, WORLD_REFS).to_dict()]),
    "task": (lambda data, _: task_from_dict(data),
             [_shipped("tasks/clear_table.json")] + [s["task"] for s in SCENARIOS]),
    "trace": (lambda data, _: trace_from_dict(data), [_shipped("traces/clear_table.json")]),
    "script": (lambda data, _: ScriptedBackend.from_dict(data), [s["script"] for s in SCENARIOS]),
    "messages": (_from_file(MessageTable.load), [_shipped("messages.json")]),
    "pairs": (_from_file(compare_fixture),
              [_shipped("preconditions/labeled_pairs.json")]),
    "report": (_from_file(load_report), [REPORT]),
    "counts": (_from_file(load_stepwise_counts), [{"rows": REFERENCE_STEPWISE_ROWS}]),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.text("ab_1", max_size=3)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text("ab_1", max_size=3), children, max_size=3),
    max_leaves=5,
)


def _paths(value, path=()):
    """Every path into a JSON value, the empty path (the root) first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def mutations(draw, documents):
    data = copy.deepcopy(draw(st.sampled_from(documents)))
    path = draw(st.sampled_from(list(_paths(data))))
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if path and draw(st.booleans()):
        del parent[path[-1]]
        return data
    replacement = draw(json_values)
    if not path:
        return replacement
    parent[path[-1]] = replacement
    return data


@pytest.mark.parametrize("name", LOADERS)
def test_each_shipped_input_loads(name, input_file):
    load, documents = LOADERS[name]
    for data in documents:
        load(data, input_file)


@pytest.mark.parametrize("name", LOADERS)
def test_a_mutated_input_loads_or_raises_a_homeplan_error(name, input_file):
    load, documents = LOADERS[name]

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(mutations(documents))
    def check(data):
        try:
            load(data, input_file)
        except HomeplanError:
            pass

    check()


@pytest.mark.parametrize("key", ["task", "final_thought", "final_answer"])
@pytest.mark.parametrize("value", [1, ["done"]])
def test_a_trace_value_nothing_reads_is_still_type_checked(key, value):
    data = {**_shipped("traces/clear_table.json"), key: value}
    with pytest.raises(InputFormatError, match=f"^trace: {key} must be a string or null$"):
        trace_from_dict(data)


# ---------------------------------------------------------------------------
# The field check itself

FIELDS = {"name": str, "count": int, "tags": (list, str)}
OPTIONAL = {"note": str | None, "weight": int | float, "flags": (dict, bool)}


@pytest.mark.parametrize(
    "data, message",
    [
        ([], "thing: expected a JSON object"),
        ({"name": "a", "count": 1, "tags": [], "colour": 1}, "thing: unknown keys ['colour']"),
        ({"tags": []}, "thing: missing keys ['count', 'name']"),
        ({"name": 5, "count": 1, "tags": []}, "thing: name must be a string"),
        ({"name": "a", "count": True, "tags": []}, "thing: count must be an integer"),
        ({"name": "a", "count": 1.0, "tags": []}, "thing: count must be an integer"),
        ({"name": "a", "count": 1, "tags": ["x", 2]}, "thing: tags must be an array of strings"),
        ({"name": "a", "count": 1, "tags": [], "note": 3}, "thing: note must be a string or null"),
        ({"name": "a", "count": 1, "tags": [], "weight": False},
         "thing: weight must be an integer or a number"),
        ({"name": "a", "count": 1, "tags": [], "flags": {"x": 0}},
         "thing: flags must be an object of booleans"),
    ],
    ids=["not-an-object", "unknown", "missing", "string", "bool-is-no-integer",
         "float-is-no-integer", "member", "nullable", "number", "dict-members"],
)
def test_check_fields_names_the_first_fault(data, message):
    with pytest.raises(InputFormatError) as raised:
        check_fields(data, "thing", FIELDS, OPTIONAL)
    assert str(raised.value) == message


def test_check_fields_returns_a_good_object_and_leads_with_no_where():
    data = {"name": "a", "count": 1, "tags": ["x"], "note": None, "weight": 0.5,
            "flags": {"x": True}}
    assert check_fields(data, "thing", FIELDS, OPTIONAL) is data
    assert check_fields({}, "", optional=OPTIONAL) == {}
    with pytest.raises(InputFormatError, match="^objects must be an object of objects$"):
        check_fields({"objects": []}, "", {"objects": (dict, dict)})


# ---------------------------------------------------------------------------
# Files that cannot be read, decoded or parsed

def _directory(path):
    path.mkdir()


def _not_utf8(path):
    path.write_bytes(b'{"name": "caf\xe9"}')


def _truncated_json(path):
    path.write_text('{"name": [1, ', encoding="utf-8")


def _too_deep_json(path):  # json.loads raises RecursionError, not a JSONDecodeError
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")


FAULTS = {"directory": _directory, "not-utf8": _not_utf8, "truncated-json": _truncated_json,
          "too-deep-json": _too_deep_json}

# file loader -> (reader of the file at a path, the file's name)
FILE_LOADERS = {
    "world": (load_world, "world.json"),
    "suite-world": (lambda path: resolve_world(path.name, path.parent), "world.json"),
    "task": (load_task, "task.json"),
    "trace": (load_trace, "trace.json"),
    "suite": (load_suite, "suite.json"),
    "report": (load_report, "report.json"),
    "counts": (load_stepwise_counts, "counts.json"),
    "messages": (MessageTable.load, "messages.json"),
    "pairs": (load_precondition_pairs, "pairs.json"),
    "script": (lambda path: _make_backend_factory(f"scripted:{path}"), "script.json"),
    "template": (lambda path: load_template("expansion", path.parent), "expansion.txt"),
}
# A template is text, not JSON.
CASES = [(loader, fault) for loader in FILE_LOADERS for fault in FAULTS
         if loader != "template" or fault in ("directory", "not-utf8")]


def _assert_names_the_file(raised, path):
    message = str(raised.value)
    assert message.startswith(f"{path}: ") and message.count(str(path)) == 1


@pytest.mark.parametrize("loader, fault", CASES, ids=[f"{l}-{f}" for l, f in CASES])
def test_a_file_that_cannot_be_read_decoded_or_parsed_is_its_input_format_error(
        tmp_path, loader, fault):
    load, name = FILE_LOADERS[loader]
    path = tmp_path / name
    FAULTS[fault](path)
    with pytest.raises(InputFormatError) as raised:
        load(path)
    _assert_names_the_file(raised, path)


# name -> (a module, the call that reads its packaged file, the file's name
# under DATA). Each call skips its module's cache, and the test points the
# module's DATA at a scratch directory.
PACKAGED_LOADERS = {
    "messages": (grounding, lambda: grounding._default_table.__wrapped__(), "messages.json"),
    "pairs": (tools, lambda: tools.load_precondition_pairs(), "preconditions/labeled_pairs.json"),
    "template": (llm, lambda: llm._packaged_template.__wrapped__("expansion"),
                 "templates/expansion.txt"),
    "world": (suite, lambda: suite.resolve_world("worlds/kitchen.json"), "worlds/kitchen.json"),
}
PACKAGED_CASES = [(loader, fault) for loader in PACKAGED_LOADERS
                  for fault in ("not-utf8", "truncated-json")
                  if (loader, fault) != ("template", "truncated-json")]


@pytest.mark.parametrize("loader, fault", PACKAGED_CASES,
                         ids=[f"{l}-{f}" for l, f in PACKAGED_CASES])
def test_a_packaged_file_that_cannot_be_decoded_or_parsed_is_its_input_format_error(
        tmp_path, monkeypatch, loader, fault):
    module, read, name = PACKAGED_LOADERS[loader]
    path = tmp_path / name
    path.parent.mkdir(exist_ok=True)
    FAULTS[fault](path)
    monkeypatch.setattr(module, "DATA", tmp_path)
    with pytest.raises(InputFormatError) as raised:
        read()
    _assert_names_the_file(raised, path)
