"""Language-model interface: templates, transcript parsing, and backends.

Prompt templates are shipped as text files (overridable by directory) using
``{slot}`` placeholders with ``{{``/``}}`` escapes for literal braces. The
scripted backend replays canned completions for tests and offline runs; the
remote backend speaks the common chat-completion wire protocol.
"""

from __future__ import annotations

import ast
import json
import re
import threading
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import requests

from .errors import (
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
from .tools import ToolLibrary

ENV_ENDPOINT = "HOMEPLAN_LLM_ENDPOINT"
ENV_API_KEY = "HOMEPLAN_LLM_API_KEY"
ENV_MODEL = "HOMEPLAN_LLM_MODEL"
RETRY_CEILING_S = 8  # longest wait between remote attempts

TEMPLATE_FILES = {
    "expansion": ("expansion.txt",),
    "critique": ("critique.txt",),
    "precondition-generation": (
        "precondition_part1.txt",
        "precondition_part2.txt",
        "precondition_part3.txt",
        "precondition_part4.txt",
    ),
}

_SLOT_RE = re.compile(r"\{\{|\}\}|\{([A-Za-z_][A-Za-z0-9_]*)\}|\{|\}")


@dataclass(frozen=True)
class PromptTemplate:
    name: str
    body: str

    @property
    def slots(self) -> tuple[str, ...]:
        found = []
        for match in _SLOT_RE.finditer(self.body):
            slot = match.group(1)
            if slot and slot not in found:
                found.append(slot)
        return tuple(found)


def load_template(name: str, directory: str | Path | None = None) -> PromptTemplate:
    """Load a shipped template by name; parts are joined with blank lines."""
    try:
        filenames = TEMPLATE_FILES[name]
    except KeyError:
        raise KeyError(f"unknown template name: {name!r}") from None
    parts = []
    for filename in filenames:
        if directory is not None:
            text = Path(directory, filename).read_text(encoding="utf-8")
        else:
            text = (
                resources.files("homeplan.data")
                .joinpath(f"templates/{filename}")
                .read_text("utf-8")
            )
        parts.append(text.rstrip("\n"))
    return PromptTemplate(name=name, body="\n\n".join(parts))


def render_prompt(template: PromptTemplate, fills: dict[str, str]) -> str:
    """Substitute every slot; unknown or leftover braces are errors."""
    out: list[str] = []
    pos = 0
    for match in _SLOT_RE.finditer(template.body):
        out.append(template.body[pos: match.start()])
        pos = match.end()
        token = match.group(0)
        if token == "{{":
            out.append("{")
        elif token == "}}":
            out.append("}")
        elif match.group(1):
            slot = match.group(1)
            if slot not in fills:
                raise MissingSlotError(slot)
            out.append(str(fills[slot]))
        else:
            raise MissingSlotError(token)  # stray unescaped brace
    out.append(template.body[pos:])
    return "".join(out)


# ---------------------------------------------------------------------------
# Transcript parsing


@dataclass(frozen=True)
class ReactStep:
    thought: str
    action: str
    action_input: dict | str | None
    observation: str | None = None


@dataclass(frozen=True)
class FinalAnswer:
    text: str


_ACTION_RE = re.compile(r"^Action\s*:\s*(.*)$", re.MULTILINE)
_ACTION_INPUT_RE = re.compile(r"^Action Input\s*:\s*(.*)$", re.MULTILINE)
_FINAL_RE = re.compile(r"^Final Answer\s*:\s*(.*)$", re.MULTILINE | re.DOTALL)
_THOUGHT_RE = re.compile(r"^Thought\s*:\s*(.*)$", re.MULTILINE)
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
    except (ValueError, SyntaxError, TypeError):  # TypeError: unhashable key
        return raw
    return value if isinstance(value, dict) else raw


def format_step(step: ReactStep) -> str:
    """Scratchpad serialization; parse_react reads back exactly this form."""
    action_input = step.action_input if step.action_input is not None else "None"
    lines = [
        f"Thought: {step.thought}",
        f"Action: {step.action}",
        f"Action Input: {action_input!r}" if isinstance(action_input, dict)
        else f"Action Input: {action_input}",
    ]
    if step.observation is not None:
        lines.append(f"Observation: {step.observation}")
    return "\n".join(lines) + "\n"


def parse_react(completion: str, library: ToolLibrary | None = None) -> ReactStep | FinalAnswer:
    """Extract the first Thought/Action/Action Input triple or a final answer.

    Content after the Action Input line is ignored (stop-sequence behavior).
    An action missing from the library raises UnknownToolError carrying the
    parsed step, so callers can keep it as recoverable feedback.
    """
    action_match = _ACTION_RE.search(completion)
    final_match = _FINAL_RE.search(completion)
    if final_match and (not action_match or final_match.start() < action_match.start()):
        return FinalAnswer(final_match.group(1).strip())
    if not action_match:
        raise MalformedCompletionError("no Action or Final Answer found")

    action = action_match.group(1).strip()
    input_match = _ACTION_INPUT_RE.search(completion, action_match.end())
    action_input = _parse_action_input(input_match.group(1)) if input_match else None

    thought = ""
    for match in _THOUGHT_RE.finditer(completion, 0, action_match.start()):
        thought = match.group(1).strip()

    step = ReactStep(thought=thought, action=action, action_input=action_input)
    if library is not None and action not in library:
        raise UnknownToolError(action, step=step)
    return step


@dataclass(frozen=True)
class CritiqueResult:
    justification: str
    score: int


_SCORE_RE = re.compile(r"^Score\s*:\s*(-?\d+)\s*$", re.MULTILINE)
_JUSTIFICATION_RE = re.compile(r"^Justification\s*:\s*(.*)$", re.MULTILINE)


def parse_critique(completion: str) -> CritiqueResult:
    """Last Score: line wins; out-of-range scores are rejected, not clamped."""
    scores = list(_SCORE_RE.finditer(completion))
    if not scores:
        raise NoScoreError("no Score: line in critique completion")
    score_match = scores[-1]
    score = int(score_match.group(1))
    if not 1 <= score <= 10:
        raise ScoreOutOfRangeError(score)
    justification = ""
    for match in _JUSTIFICATION_RE.finditer(completion, 0, score_match.start()):
        justification = match.group(1).strip()
    return CritiqueResult(justification=justification, score=score)


_PDDL_FENCE_RE = re.compile(r"```pddl\s*\n(.*?)```", re.DOTALL)


def extract_pddl_block(completion: str) -> str:
    """First ```pddl fence, else the first balanced top-level s-expression."""
    match = _PDDL_FENCE_RE.search(completion)
    if match:
        return match.group(1).strip()
    start = completion.find("(")
    if start == -1:
        raise NoPddlFoundError("no pddl block or s-expression in completion")
    depth = 0
    for i in range(start, len(completion)):
        if completion[i] == "(":
            depth += 1
        elif completion[i] == ")":
            depth -= 1
            if depth == 0:
                return completion[start: i + 1]
    raise NoPddlFoundError("unbalanced s-expression in completion")


# ---------------------------------------------------------------------------
# Backends


class LlmBackend:
    """Interface: complete(prompt, temperature, max_tokens) -> completion."""

    def complete(self, prompt: str, temperature: float = 0.0,
                 max_tokens: int | None = None) -> str:
        raise NotImplementedError


@dataclass
class ScriptEntry:
    completion: str
    match: str | None = None
    uses: int = 1  # -1 means unlimited


class ScriptedBackend(LlmBackend):
    """Deterministic canned-completion backend.

    In ``ordered`` mode entries are consumed front to back and a ``match``
    string, when present, is asserted against the prompt. In ``keyed`` mode
    the first entry with remaining uses whose matcher occurs in the prompt is
    consumed, so scripts can branch on feedback text. Exhaustion is an error
    unless the script is cyclic.
    """

    def __init__(self, entries: list[ScriptEntry], mode: str = "ordered",
                 cyclic: bool = False):
        if mode not in ("ordered", "keyed"):
            raise ValueError(f"unknown script mode: {mode!r}")
        self.mode = mode
        self.cyclic = cyclic
        self._entries = entries
        self._remaining = [entry.uses for entry in entries]
        self._cursor = 0
        self._lock = threading.Lock()
        self.call_count = 0
        self.prompts: list[str] = []

    @classmethod
    def from_dict(cls, data: dict) -> "ScriptedBackend":
        entries = [
            ScriptEntry(
                completion=entry["completion"],
                match=entry.get("match"),
                uses=int(entry.get("uses", 1)),
            )
            for entry in data["entries"]
        ]
        return cls(entries, mode=data.get("mode", "ordered"),
                   cyclic=bool(data.get("cyclic", False)))

    @classmethod
    def load(cls, path: str | Path) -> "ScriptedBackend":
        with open(path, encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    @classmethod
    def ordered(cls, completions: list[str], cyclic: bool = False) -> "ScriptedBackend":
        return cls([ScriptEntry(completion=c) for c in completions], cyclic=cyclic)

    def complete(self, prompt: str, temperature: float = 0.0,
                 max_tokens: int | None = None) -> str:
        with self._lock:
            self.call_count += 1
            self.prompts.append(prompt)
            if self.mode == "ordered":
                return self._next_ordered(prompt)
            return self._next_keyed(prompt)

    def _next_ordered(self, prompt: str) -> str:
        while True:
            if self._cursor >= len(self._entries):
                if self.cyclic:
                    self._cursor = 0
                    self._remaining = [entry.uses for entry in self._entries]
                else:
                    raise ScriptExhaustedError("ordered script exhausted")
            entry = self._entries[self._cursor]
            remaining = self._remaining[self._cursor]
            if remaining == 0:
                self._cursor += 1
                continue
            if entry.match is not None and entry.match not in prompt:
                raise ScriptMismatchError(
                    f"script entry {self._cursor} expected {entry.match!r} in prompt"
                )
            if remaining > 0:
                self._remaining[self._cursor] -= 1
            return entry.completion

    def _next_keyed(self, prompt: str) -> str:
        for index, entry in enumerate(self._entries):
            if self._remaining[index] == 0:
                continue
            if entry.match is not None and entry.match not in prompt:
                continue
            if self._remaining[index] > 0:
                self._remaining[index] -= 1
            return entry.completion
        raise ScriptExhaustedError("no keyed script entry matches the prompt")


class RemoteBackend(LlmBackend):
    """Chat-completion client for any endpoint speaking the common protocol.

    Connection errors, timeouts, 429 and 5xx replies are retried up to
    ``max_retries`` attempts in all, waiting 1, 2, 4 ... seconds up to
    ``RETRY_CEILING_S``; a numeric ``Retry-After`` replaces that wait, under
    the same ceiling. Any other status and a malformed 200 body fail at once.
    """

    def __init__(self, endpoint: str | None = None, api_key: str | None = None,
                 model: str | None = None, timeout: float = 60.0, max_retries: int = 3):
        import os

        self.endpoint = endpoint or os.environ.get(ENV_ENDPOINT)
        self.api_key = api_key if api_key is not None else os.environ.get(ENV_API_KEY)
        self.model = model or os.environ.get(ENV_MODEL, "")
        self.timeout = timeout
        self.max_retries = max_retries
        if not self.endpoint:
            raise BackendUnavailableError(
                f"no endpoint configured (set {ENV_ENDPOINT} or pass endpoint=)"
            )

    def complete(self, prompt: str, temperature: float = 0.0,
                 max_tokens: int | None = None) -> str:
        payload: dict = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
        }
        if max_tokens is not None:
            payload["max_tokens"] = max_tokens
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"

        last_error = ""
        for attempt in range(self.max_retries):
            delay = min(2 ** attempt, RETRY_CEILING_S)
            try:
                response = requests.post(
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
                        return response.json()["choices"][0]["message"]["content"]
                    except (ValueError, KeyError, IndexError, TypeError) as exc:
                        raise BackendUnavailableError(
                            f"malformed completion body: {response.text[:200]}"
                        ) from exc
                last_error = f"endpoint returned {status}: {response.text[:200]}"
                if status != 429 and status < 500:
                    raise BackendUnavailableError(last_error)
                retry_after = response.headers.get("Retry-After", "").strip()
                if retry_after.isdecimal():
                    delay = min(int(retry_after), RETRY_CEILING_S)
            if attempt + 1 < self.max_retries:
                time.sleep(delay)
        raise BackendUnavailableError(
            f"remote completion failed after {self.max_retries} attempts: {last_error}"
        )
