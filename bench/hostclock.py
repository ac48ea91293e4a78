"""Host-speed calibration for CPU-bound timings on a shared machine.

On a shared 2-core host the same Python work alternates between full speed
and about half speed every tenth of a second or so, and the share of slow
time changes from minute to minute, whatever the program does. A fixed
unit of bench-owned Python work, run now and then *during* a timed pass,
slows down by about the same factor as the program around it. ``HostClock``
runs one unit at most every ``SAMPLE_EVERY_S``, when the stand-in model is
called, and keeps a clock that runs at the reference host's speed: each
stretch of program time is divided by the slowdown the last unit showed,
and the units' own time is left out. On a host where a unit takes
``REFERENCE_S``, the clock and the wall clock agree. Only ratios between
runs matter; the reference is an arbitrary constant.
"""

from __future__ import annotations

import ast
import math
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path

# About the time of one calibration unit on a 2-core Xeon VM at full speed,
# Python 3.11.
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.02

_SOURCE = Path(__file__)


@dataclass(frozen=True)
class _Item:
    name: str
    value: int
    flag: bool = False


_ACTION_RE = re.compile(r"^Action\s*:\s*(.*)$", re.MULTILINE)


def calibration_s() -> float:
    """Seconds taken by one unit: a fixed mix of the kinds of operation the
    program spends its time on. String formatting and joins (prompts),
    regular expression searches and literal parsing (completions), dict and
    frozen-dataclass copies (world states), and reading a small text file
    (templates)."""
    started = time.perf_counter()
    parts: list[str] = []
    items: dict[str, _Item] = {}
    for i in range(400):
        item = replace(_Item(f"Obj_{i % 97}", i), flag=True)
        items[item.name] = item
        parts.append(f"Thought: step {i}.\nAction: {item.name}\nInput: {{'id': '{item.name}'}}\n")
        if len(parts) >= 60:
            _ACTION_RE.search("".join(parts), 500)
            items = dict(items)
            del parts[:30]
        if i % 8 == 0:
            ast.literal_eval(f"{{'object_id': '{item.name}'}}")
        if i % 40 == 0:
            _SOURCE.read_text(encoding="utf-8")
    return time.perf_counter() - started


class HostClock:
    """The reference-speed clock of one pass. With ``sample=False`` it is the
    wall clock, and ``tick`` does nothing."""

    def __init__(self, sample: bool = True):
        self.samples: list[float] = []  # unit times
        self.spent = 0.0  # wall time spent sampling
        self._slowdown = 1.0  # of the last sample, against REFERENCE_S
        self._ref = 0.0  # reference seconds up to _since
        self._since = time.perf_counter()
        self._due = self._since if sample else math.inf
        self.tick()

    def tick(self) -> None:
        """Take one calibration sample if one is due."""
        started = time.perf_counter()
        if started < self._due:
            return
        self._ref += (started - self._since) / self._slowdown
        took = calibration_s()
        self.samples.append(took)
        self._slowdown = took / REFERENCE_S
        self._since = time.perf_counter()
        self.spent += self._since - started
        self._due = self._since + SAMPLE_EVERY_S

    def now(self) -> float:
        """Seconds since the clock was made, as the reference host would
        have taken them, without the time spent sampling."""
        return self._ref + (time.perf_counter() - self._since) / self._slowdown

    def mean_factor(self) -> float:
        """How much slower than the reference host the host was on average
        (2.0 means twice as slow); 1.0 when it was not sampled."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S if self.samples else 1.0
