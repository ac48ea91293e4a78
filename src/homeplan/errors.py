"""Exception hierarchy shared across the package, one class per failure kind
(any input the program cannot use is an InputFormatError naming the file or
object at fault), the one reader of every input file, and the one field
check JSON loaders run on each object read."""

import json
from collections.abc import Mapping
from importlib import resources
from pathlib import Path
from types import MappingProxyType


class HomeplanError(Exception):
    """Base class for all package-specific errors."""


class UnknownObjectError(HomeplanError):
    def __init__(self, object_id: str):
        super().__init__(f"unknown object id: {object_id!r}")


class UnknownAttributeError(HomeplanError):
    def __init__(self, name: str):
        super().__init__(f"unknown attribute name: {name!r}")


class InvalidObjectIdError(HomeplanError):
    def __init__(self, text: str, reason: str = ""):
        detail = f": {reason}" if reason else ""
        super().__init__(f"not a well-formed object id: {text!r}{detail}")


class FormulaSyntaxError(HomeplanError):
    """Syntax error in precondition source, with position and expectations."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        loc = f"line {line}, column {column}"
        exp = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at {loc}{exp}")
        self.line = line
        self.column = column
        self.expected = expected


class UnknownPredicateError(FormulaSyntaxError):
    def __init__(self, name: str, line: int, column: int):
        super().__init__(f"unknown predicate {name!r}", line, column)
        self.name = name


class UnboundVariableError(FormulaSyntaxError):
    def __init__(self, variable: str, line: int = 0, column: int = 0):
        HomeplanError.__init__(self, f"unbound variable {variable}")
        self.variable = variable
        self.line = line
        self.column = column
        self.expected = ()


class UnknownToolError(HomeplanError):
    """A tool call names no tool of the library."""

    def __init__(self, name: str):
        super().__init__(f"unknown tool: {name!r}")
        self.name = name


class MalformedArgsError(HomeplanError):
    """Action arguments do not satisfy the tool's parameter schema."""


class MalformedCompletionError(HomeplanError):
    """Completion contains neither a parseable action nor a final answer."""


class NoScoreError(HomeplanError):
    """Critique completion has no Score: line, or its last one is outside 1..10."""


class ScriptExhaustedError(HomeplanError):
    """Scripted backend ran out of usable entries."""


class ScriptMismatchError(HomeplanError):
    """Ordered script entry's matcher does not appear in the prompt."""


class BackendUnavailableError(HomeplanError):
    """Remote backend could not produce a completion."""


class NoFeasibleActionError(HomeplanError):
    """Planner finished its budget with no root children."""


class InsufficientObjectsError(HomeplanError):
    """World lacks the object inventory needed to sample a task."""


class InputFormatError(HomeplanError):
    """An input the program cannot use: a world, task, suite, trace, script,
    message table, precondition-pairs file, prompt template or report input
    that cannot be read or violates its schema."""


class OutputError(HomeplanError):
    """An output file or directory cannot be written."""


# The data files shipped with the package: DATA.joinpath("worlds/kitchen.json").
DATA = resources.files("homeplan.data")


def read_input(source, parse=json.loads):
    """``parse`` of the UTF-8 text of a file given by path or under DATA; one
    that cannot be read, decoded or parsed is an InputFormatError naming it."""
    file = Path(source) if isinstance(source, str) else source
    try:
        return parse(file.read_text("utf-8"))
    except OSError as exc:
        raise InputFormatError(f"{file}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:  # a UnicodeDecodeError or JSONDecodeError
        raise InputFormatError(f"{file}: {exc}") from None


# Declared JSON types by name: (one value, the members of a container).
_JSON_NAMES = {
    dict: ("an object", "objects"), list: ("an array", "arrays"),
    str: ("a string", "strings"), int: ("an integer", "integers"),
    float: ("a number", "numbers"), bool: ("a boolean", "booleans"),
    type(None): ("null", "nulls"),
}
_NO_FIELDS: Mapping = MappingProxyType({})


def _json_name(kind, members: bool = False) -> str:
    return " or ".join(_JSON_NAMES[part][members] for part in getattr(kind, "__args__", (kind,)))


def _is(value, kind) -> bool:
    """isinstance, except that a JSON boolean is not a number."""
    return isinstance(value, kind) and (kind is bool or type(value) is not bool)


def check_fields(data, where: str, required: Mapping = _NO_FIELDS,
                 optional: Mapping = _NO_FIELDS):
    """Return ``data`` once it is a JSON object with every required key, no
    key that neither table declares, and each value of its declared JSON
    type; raise an InputFormatError otherwise, its message led by ``where``.

    A declared type is a type (``str``), a union (``str | None``) or a
    ``(container, member type)`` pair (``(list, str)``; a dict's members are
    its values)."""
    prefix = f"{where}: " if where else ""
    if type(data) is not dict:
        raise InputFormatError(f"{prefix}expected a JSON object")
    unknown = data.keys() - required.keys() - optional.keys()
    if unknown:
        raise InputFormatError(f"{prefix}unknown keys {sorted(unknown)}")
    missing = required.keys() - data.keys()
    if missing:
        raise InputFormatError(f"{prefix}missing keys {sorted(missing)}")
    for key, value in data.items():
        kind = required[key] if key in required else optional[key]
        kind, member = kind if type(kind) is tuple else (kind, None)
        if not _is(value, kind) or member is not None and not all(
            _is(item, member) for item in (value.values() if kind is dict else value)
        ):
            of = f" of {_json_name(member, True)}" if member is not None else ""
            raise InputFormatError(f"{prefix}{key} must be {_json_name(kind)}{of}")
    return data
