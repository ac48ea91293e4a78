"""Language-model interface: templates, transcript steps, and backends.

Prompt templates are shipped as text files, ``<name>.txt`` (overridable by
directory), using ``{slot}`` placeholders with ``{{``/``}}`` escapes for
literal braces. A template is checked only where it is read: a file with a
stray brace or a slot its prompt does not fill is refused then, and
rendering only joins its pieces with the fills.
``StepRecord`` is the one recorded transcript step (an agent's step, a
search-tree edge, a replayed trace step); ``format_step`` renders it and
``parse_react`` reads a completion back: a completion in the form
``format_step`` writes by one match, any other text by a search for each
labelled line. The scripted backend replays canned completions for tests and
offline runs; the remote backend speaks the common chat-completion wire
protocol over one reused connection per calling thread.
"""

from __future__ import annotations

import ast
import json
import os
import re
import threading
import time
from collections.abc import Container
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .errors import (
    DATA,
    BackendUnavailableError,
    InputFormatError,
    MalformedCompletionError,
    NoScoreError,
    ScriptExhaustedError,
    ScriptMismatchError,
    UnknownToolError,
    check_fields,
    read_input,
)

ENV_ENDPOINT = "HOMEPLAN_LLM_ENDPOINT"
ENV_API_KEY = "HOMEPLAN_LLM_API_KEY"
ENV_MODEL = "HOMEPLAN_LLM_MODEL"
RETRY_CEILING_S = 8  # longest wait between remote attempts

# Each template by name, read from <name>.txt, and the slots it is rendered
# with (MctsPlanner.expansion_prompt and critique); a template may leave one out.
TEMPLATE_SLOTS = {"expansion": ("tools", "tool_names", "input", "agent_scratchpad"),
                  "critique": ("goal", "plan_steps")}

_SLOT_RE = re.compile(r"\{\{|\}\}|\{([A-Za-z_][A-Za-z0-9_]*)\}|\{|\}")


class cached_attribute:
    """``functools.cached_property`` without the lock that it takes on every
    first use before Python 3.12: the value is stored in the instance dict,
    which later lookups read. Threads racing on a first use compute it twice."""

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


@dataclass(frozen=True)
class PromptTemplate:
    body: str

    @cached_attribute
    def _pieces(self) -> tuple[tuple[tuple[str, str], ...], str]:
        """The body split once for render_prompt: (literal, slot) pairs in
        body order, with escapes undone in the literals, and the literal text
        after the last slot. A stray brace is an InputFormatError."""
        pairs = []
        literal: list[str] = []
        pos = 0
        for match in _SLOT_RE.finditer(self.body):
            literal.append(self.body[pos: match.start()])
            pos = match.end()
            token = match.group(0)
            if token in ("{{", "}}"):
                literal.append(token[0])
            elif match.group(1):
                pairs.append(("".join(literal), match.group(1)))
                literal = []
            else:
                raise InputFormatError(f"a stray {token!r}; write {token * 2!r} for the brace")
        literal.append(self.body[pos:])
        return tuple(pairs), "".join(literal)


def _read_template(name: str, path) -> PromptTemplate:
    """The template in a file; one with a stray brace or a slot its prompt
    does not fill is an InputFormatError naming the file."""
    template = PromptTemplate(body=read_input(path, parse=str).rstrip("\n"))
    try:
        pairs, _ = template._pieces
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from None
    if any(slot not in TEMPLATE_SLOTS[name] for _, slot in pairs):
        slots = ", ".join(f"{{{slot}}}" for slot in TEMPLATE_SLOTS[name])
        raise InputFormatError(f"{path}: the {name} template may hold no slot but {slots}")
    return template


@lru_cache(maxsize=None)  # one entry per name in TEMPLATE_SLOTS
def _packaged_template(name: str) -> PromptTemplate:
    return _read_template(name, DATA.joinpath(f"templates/{name}.txt"))


def load_template(name: str, directory: str | Path | None = None) -> PromptTemplate:
    """Load a template by name. A shipped template is one shared instance,
    read, split into pieces and checked once per process; an override
    directory is read and checked on every call."""
    if name not in TEMPLATE_SLOTS:
        raise KeyError(f"unknown template name: {name!r}")
    if directory is None:
        return _packaged_template(name)
    return _read_template(name, Path(directory, f"{name}.txt"))


def render_prompt(template: PromptTemplate, fills: dict[str, str]) -> str:
    """The template's pieces joined with each slot's fill; the template was
    checked when it was read, and its prompt fills every slot."""
    pairs, tail = template._pieces
    out: list[str] = []
    for literal, slot in pairs:
        out.append(literal)
        out.append(str(fills[slot]))
    out.append(tail)
    return "".join(out)


# ---------------------------------------------------------------------------
# Transcript steps and parsing


# ReactStep, StepRecord and sim's Observation, built for every proposal, write
# the instance dict item by item in __init__; a frozen dataclass's own __init__
# costs an object.__setattr__ per field. Assignment raises FrozenInstanceError.
@dataclass(frozen=True, init=False)
class ReactStep:
    """What parse_react reads from a completion."""

    thought: str
    action: str
    action_input: dict | str | None

    def __init__(self, thought: str, action: str, action_input: dict | str | None):
        fields = self.__dict__
        fields["thought"] = thought
        fields["action"] = action
        fields["action_input"] = action_input


@dataclass(frozen=True, init=False)
class StepRecord:
    """One transcript step: a step an agent took, a search-tree edge, or a
    step of a recorded trace. ``action`` is None for a completion that could
    not be parsed; ``observation`` is None for a proposed final answer."""

    thought: str
    action: str | None
    args: dict | str | None
    observation: str | None

    def __init__(self, thought: str, action: str | None, args: dict | str | None,
                 observation: str | None):
        fields = self.__dict__
        fields["thought"] = thought
        fields["action"] = action
        fields["args"] = args
        fields["observation"] = observation

    @cached_attribute
    def rendered(self) -> str:
        """Scratchpad text of this step; rendered once, on first use."""
        return format_step(self)

    def to_dict(self) -> dict:
        return {
            "thought": self.thought,
            "action": self.action,
            "args": _json_args(self.args),
            "observation": self.observation,
        }


def _json_args(args: dict | str | None) -> dict | str | None:
    """Args as a JSON report can hold them: a parsed dict that strict JSON
    cannot encode (a set value, a tuple key, a non-finite number) is kept as
    the text the scratchpad shows for it."""
    if isinstance(args, dict):
        try:
            json.dumps(args, allow_nan=False)
        except (TypeError, ValueError):
            return stable_repr(args)
    return args


@dataclass(frozen=True)
class FinalAnswer:
    text: str


# The three lines format_step writes, read by one match at the completion's
# start. Each value starts with a visible character, so no "\s*" of the line
# searches below could have run onto the next line: line 1 is the only Thought
# before the Action, line 2 the first Action, line 3 the first Action Input
# after it, and a Final Answer line can only come after these three, so the
# searches would read exactly what the match reads.
_STEP_RE = re.compile(r"Thought: (\S.*)\nAction: (\S.*)\nAction Input: (\S.*)")
# A labelled line is found by searching the completion with a "\n" put in front
# for "\n<label>", which matches where "^<label>" would, at the same offset: a
# search skips ahead to a literal prefix, but tries "^" at every position.
_ACTION_RE = re.compile(r"\nAction\s*:\s*(.*)$", re.MULTILINE)
_ACTION_INPUT_RE = re.compile(r"\nAction Input\s*:\s*(.*)$", re.MULTILINE)
_FINAL_RE = re.compile(r"\nFinal Answer\s*:\s*(.*)$", re.MULTILINE | re.DOTALL)
_THOUGHT_RE = re.compile(r"\nThought\s*:\s*(.*)$", re.MULTILINE)
# The form format_step writes, {'key': 'value'} or {'key': None}, with no
# character that a Python string literal escapes or that its parser rejects;
# literal_eval reads such text as exactly this one-key dict.
_PLAIN = r"'([^'\\\r\n\x00\ud800-\udfff]*)'"
_SIMPLE_INPUT_RE = re.compile(rf"\{{{_PLAIN}: (?:{_PLAIN}|None)\}}")


def _parse_action_input(raw: str) -> dict | str | None:
    raw = raw.strip()
    if not raw or raw == "None":
        return None
    simple = _SIMPLE_INPUT_RE.fullmatch(raw)
    if simple:
        return {simple[1]: simple[2]}
    try:
        value = ast.literal_eval(raw)
    except (ValueError, SyntaxError, TypeError, RecursionError, MemoryError):
        return raw  # TypeError: an unhashable key; the last two: nested too deep
    return value if isinstance(value, dict) else raw


def stable_repr(value) -> str:
    """repr, except that the elements of a set or frozenset, at any depth in
    dicts, lists and tuples, are listed sorted by their own rendering, so the
    text does not depend on the string hash seed."""
    text = repr(value)
    kind = type(value)
    # A set inside anything renders a "{" after the first character.
    if kind is not set and text.find("{", 1) < 0:
        return text
    if kind is dict:
        return "{" + ", ".join(
            f"{stable_repr(key)}: {stable_repr(item)}" for key, item in value.items()
        ) + "}"
    if kind is list:
        return "[" + ", ".join(map(stable_repr, value)) + "]"
    if kind is tuple:
        return "(" + ", ".join(map(stable_repr, value)) + (",)" if len(value) == 1 else ")")
    if (kind is set or kind is frozenset) and value:
        body = "{" + ", ".join(sorted(map(stable_repr, value))) + "}"
        return body if kind is set else f"frozenset({body})"
    return text


def format_step(step: StepRecord) -> str:
    """Scratchpad serialization; parse_react reads back exactly this form."""
    if step.action is None:
        return f"Observation: {step.observation}\n"
    args = stable_repr(step.args) if isinstance(step.args, dict) else step.args  # None: "None"
    observation = "" if step.observation is None else f"Observation: {step.observation}\n"
    return f"Thought: {step.thought}\nAction: {step.action}\nAction Input: {args}\n{observation}"


def parse_react(completion: str,
                library: Container[str] | None = None) -> ReactStep | FinalAnswer:
    """Extract the first Thought/Action/Action Input triple or a final answer.

    A completion that starts with the three lines format_step writes is read
    by one match; any other text by a search for each labelled line, which
    reads that form the same way. Content after the Action Input line is
    ignored (stop-sequence behavior). Given a library, an action missing from
    it raises UnknownToolError; the planner passes none, so the simulator
    alone refuses an unknown tool.
    """
    step = _STEP_RE.match(completion)
    if step:
        thought, action, raw_input = step.groups()
        action = action.strip()
        action_input = _parse_action_input(raw_input)
        if library is not None and action not in library:
            raise UnknownToolError(action)
        return ReactStep(thought.strip(), action, action_input)
    text = "\n" + completion
    action_match = _ACTION_RE.search(text)
    final_match = _FINAL_RE.search(text) if "Final Answer" in completion else None
    if final_match and (not action_match or final_match.start() < action_match.start()):
        return FinalAnswer(final_match.group(1).strip())
    if not action_match:
        raise MalformedCompletionError("no Action or Final Answer found")

    action = action_match.group(1).strip()
    input_match = _ACTION_INPUT_RE.search(text, action_match.end())
    action_input = _parse_action_input(input_match.group(1)) if input_match else None

    thought = ""
    for match in _THOUGHT_RE.finditer(text, 0, action_match.start()):
        thought = match.group(1).strip()

    if library is not None and action not in library:
        raise UnknownToolError(action)
    return ReactStep(thought=thought, action=action, action_input=action_input)


@dataclass(frozen=True)
class CritiqueResult:
    justification: str
    score: int


# Searched for as parse_react searches for its lines.
_SCORE_RE = re.compile(r"\nScore\s*:\s*(-?\d+)\s*$", re.MULTILINE)
_JUSTIFICATION_RE = re.compile(r"\nJustification\s*:\s*(.*)$", re.MULTILINE)


def parse_critique(completion: str) -> CritiqueResult:
    """Last Score: line wins; out-of-range scores are rejected, not clamped."""
    text = "\n" + completion
    scores = list(_SCORE_RE.finditer(text))
    if not scores:
        raise NoScoreError("no Score: line in critique completion")
    score_match = scores[-1]
    try:
        score = int(score_match.group(1))
    except ValueError:  # more digits than int() reads
        raise NoScoreError("critique score has too many digits") from None
    if not 1 <= score <= 10:
        raise NoScoreError(f"critique score {score} outside 1..10")
    justification = ""
    for match in _JUSTIFICATION_RE.finditer(text, 0, score_match.start()):
        justification = match.group(1).strip()
    return CritiqueResult(justification=justification, score=score)


# ---------------------------------------------------------------------------
# Backends


class LlmBackend:
    """Interface: complete(prompt, temperature) -> completion."""

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        raise NotImplementedError


@dataclass
class ScriptEntry:
    completion: str
    match: str | None = None
    uses: int = 1  # -1 means unlimited


_SCRIPT_FIELDS = {"entries": (list, dict)}
_SCRIPT_OPTIONAL = {"mode": str, "cyclic": bool}
_ENTRY_FIELDS = {"completion": str}  # a script entry's keys are ScriptEntry's fields
_ENTRY_OPTIONAL = {"match": str | None, "uses": int}


class ScriptedBackend(LlmBackend):
    """Deterministic canned-completion backend.

    Each call consumes the first entry with uses left. In ``keyed`` mode that
    is the first such entry whose ``match`` occurs in the prompt, so scripts
    can branch on feedback text; in ``ordered`` mode it is the first such
    entry, and its ``match``, when present, must occur in the prompt. With no
    such entry the script is exhausted, an error, unless it is cyclic (only an
    ordered script may be): then every entry's uses are refilled and the scan
    runs once more.
    """

    def __init__(self, entries: list[ScriptEntry], mode: str = "ordered",
                 cyclic: bool = False):
        if mode not in ("ordered", "keyed"):
            raise ValueError(f"unknown script mode: {mode!r}")
        if cyclic and mode == "keyed":
            raise ValueError("a keyed script cannot be cyclic")
        if any(entry.uses < -1 for entry in entries):
            raise ValueError("an entry's uses must be -1 (unlimited) or at least 0")
        if cyclic and all(entry.uses == 0 for entry in entries):
            raise ValueError("a cyclic ordered script needs an entry with uses other than 0")
        self.mode = mode
        self.cyclic = cyclic
        self._entries = entries
        self._remaining = [entry.uses for entry in entries]
        self._lock = threading.Lock()

    @classmethod
    def from_dict(cls, data: dict) -> "ScriptedBackend":
        """A backend from a script file's JSON; any fault is an InputFormatError."""
        check_fields(data, "script", _SCRIPT_FIELDS, _SCRIPT_OPTIONAL)
        entries = [
            ScriptEntry(**check_fields(entry, f"script entry {index}",
                                       _ENTRY_FIELDS, _ENTRY_OPTIONAL))
            for index, entry in enumerate(data["entries"])
        ]
        try:
            return cls(entries, mode=data.get("mode", "ordered"),
                       cyclic=data.get("cyclic", False))
        except ValueError as exc:
            raise InputFormatError(f"script: {exc}") from None

    @classmethod
    def ordered(cls, completions: list[str], cyclic: bool = False) -> "ScriptedBackend":
        return cls([ScriptEntry(completion=c) for c in completions], cyclic=cyclic)

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        with self._lock:
            for refill in (False, True):
                if refill:  # only a cyclic script gets here
                    self._remaining = [entry.uses for entry in self._entries]
                for index, entry in enumerate(self._entries):
                    if self._remaining[index] == 0:
                        continue
                    if entry.match is not None and entry.match not in prompt:
                        if self.mode == "keyed":
                            continue
                        raise ScriptMismatchError(
                            f"script entry {index} expected {entry.match!r} in prompt")
                    if self._remaining[index] > 0:
                        self._remaining[index] -= 1
                    return entry.completion
                if not self.cyclic:
                    break
            if self.mode == "keyed":
                raise ScriptExhaustedError("no keyed script entry matches the prompt")
            raise ScriptExhaustedError("ordered script exhausted")


class RemoteBackend(LlmBackend):
    """Chat-completion client for any endpoint speaking the common protocol.

    Connection errors, timeouts, 429 and 5xx replies are retried up to
    ``max_retries`` attempts in all, waiting 1, 2, 4 ... seconds up to
    ``RETRY_CEILING_S``; a numeric ``Retry-After`` replaces that wait, under
    the same ceiling. Any other status and a malformed 200 body, one whose
    completion is missing or null too, fail at once. Each thread that calls
    ``complete`` keeps one HTTP session, so its connection is reused from call
    to call; ``close`` closes them all.
    """

    def __init__(self, endpoint: str | None = None, api_key: str | None = None,
                 model: str | None = None, timeout: float = 60.0, max_retries: int = 3):
        self.endpoint = endpoint or os.environ.get(ENV_ENDPOINT)
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY)
        self.model = model or os.environ.get(ENV_MODEL, "")
        self.timeout = timeout
        self.max_retries = max_retries
        if max_retries < 1:
            raise ValueError("remote max_retries must be at least 1")
        if timeout <= 0:
            raise ValueError("remote timeout must be positive")
        if not self.endpoint:
            raise BackendUnavailableError(
                f"no endpoint configured (set {ENV_ENDPOINT} or pass endpoint=)"
            )
        self._local = threading.local()
        self._sessions: list = []
        self._sessions_lock = threading.Lock()

    def close(self) -> None:
        """Close every session this backend opened; a later call opens a new one."""
        with self._sessions_lock:
            sessions, self._sessions = self._sessions, []
            self._local = threading.local()
        for session in sessions:
            session.close()

    def complete(self, prompt: str, temperature: float = 0.0) -> str:
        import requests  # imported here so that offline runs never load it

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        session = getattr(self._local, "session", None)
        if session is None:  # this thread's first call
            session = self._local.session = requests.Session()
            with self._sessions_lock:
                self._sessions.append(session)
        last_error = ""
        for attempt in range(self.max_retries):
            delay = min(2 ** attempt, RETRY_CEILING_S)
            try:
                response = session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
            except (requests.ConnectionError, requests.Timeout) as exc:
                last_error = str(exc)
            except requests.RequestException as exc:
                raise BackendUnavailableError(f"remote request failed: {exc}") from exc
            else:
                status = response.status_code
                if status == 200:
                    try:
                        content = response.json()["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError, RecursionError):
                        content = None
                    if isinstance(content, str):
                        return content
                    raise BackendUnavailableError(
                        f"malformed completion body: {response.text[:200]}")
                last_error = f"endpoint returned {status}: {response.text[:200]}"
                if status != 429 and status < 500:
                    raise BackendUnavailableError(last_error)
                retry_after = response.headers.get("Retry-After", "").strip()
                if retry_after.isdecimal():
                    try:
                        delay = min(int(retry_after), RETRY_CEILING_S)
                    except ValueError:  # more digits than int() reads: over the ceiling
                        delay = RETRY_CEILING_S
            if attempt + 1 < self.max_retries:
                time.sleep(delay)
        raise BackendUnavailableError(
            f"remote completion failed after {self.max_retries} attempts: {last_error}"
        )
