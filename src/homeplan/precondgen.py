"""Generated-vs-expert precondition comparison.

Atoms are matched structurally: two atoms are the same precondition when
they have the same attribute, the same polarity, and sit in the same
modifier context (conditional antecedent/consequent position, existential
body membership). Plain conjunction nesting is transparent. The matcher
works on multisets, so swapping the generated and ground-truth arguments
exactly swaps the incorrect and missing populations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .formula import And, Atom, Exists, Formula, Not, When, parse_precondition
from .tools import load_precondition_pairs


@dataclass(frozen=True, order=True)
class AtomKey:
    """Structural identity of one precondition atom."""

    path: tuple[str, ...]
    name: str
    positive: bool

    def render(self) -> str:
        prefix = "/".join(self.path)
        polarity = "true" if self.positive else "false"
        head = f"{prefix}:" if prefix else ""
        return f"{head}{self.name}={polarity}"


def flatten_atoms(formula: Formula) -> Counter:
    """Multiset of structural atoms in a formula."""

    def walk(node: Formula, path: tuple[str, ...], positive: bool, out: Counter):
        if isinstance(node, Atom):
            out[AtomKey(path, node.name, positive)] += 1
        elif isinstance(node, Not):
            walk(node.child, path, not positive, out)
        elif isinstance(node, And):
            for child in node.children:
                walk(child, path, positive, out)
        elif isinstance(node, When):
            walk(node.antecedent, path + ("if",), positive, out)
            walk(node.consequent, path + ("then",), positive, out)
        elif isinstance(node, Exists):
            walk(node.body, path + ("exists",), positive, out)
        else:
            raise TypeError(f"not a formula node: {node!r}")

    counts: Counter = Counter()
    walk(formula, (), True, counts)
    return counts


@dataclass(frozen=True)
class MatchResult:
    """Per-tool atom labels from one generated/ground-truth comparison."""

    correct: tuple[AtomKey, ...]
    incorrect: tuple[AtomKey, ...]  # generated, not in ground truth
    missing: tuple[AtomKey, ...]  # ground truth, not generated


def match_atoms(generated: Formula, ground_truth: Formula) -> MatchResult:
    gen = flatten_atoms(generated)
    truth = flatten_atoms(ground_truth)
    correct = gen & truth
    incorrect = gen - truth
    missing = truth - gen
    return MatchResult(
        correct=tuple(sorted(correct.elements())),
        incorrect=tuple(sorted(incorrect.elements())),
        missing=tuple(sorted(missing.elements())),
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Per-tool labels, and the totals and rates they add up to."""

    per_tool: dict[str, MatchResult]
    reported_counts: dict

    @property
    def correct(self) -> int:
        return sum(len(result.correct) for result in self.per_tool.values())

    @property
    def total_generated(self) -> int:
        return self.correct + sum(len(result.incorrect) for result in self.per_tool.values())

    @property
    def total_ground_truth(self) -> int:
        return self.correct + sum(len(result.missing) for result in self.per_tool.values())

    @property
    def accuracy(self) -> float:
        return self.correct / self.total_generated if self.total_generated else 0.0

    @property
    def recall(self) -> float:
        return self.correct / self.total_ground_truth if self.total_ground_truth else 0.0

    @property
    def warnings(self) -> list[str]:
        if self.total_generated:
            return []
        return ["no generated preconditions; accuracy reported as 0"]

    def to_dict(self) -> dict:
        return {
            "per_tool": {
                tool: {
                    "correct": [k.render() for k in result.correct],
                    "incorrect": [k.render() for k in result.incorrect],
                    "missing": [k.render() for k in result.missing],
                }
                for tool, result in sorted(self.per_tool.items())
            },
            "counts": {
                "correct": self.correct,
                "generated": self.total_generated,
                "ground_truth": self.total_ground_truth,
            },
            "accuracy": self.accuracy,
            "recall": self.recall,
            "accuracy_percent": f"{100 * self.accuracy:.1f}%",
            "recall_percent": f"{100 * self.recall:.1f}%",
            "warnings": self.warnings,
            "reported_counts": dict(self.reported_counts),
        }

    def render_text(self) -> str:
        lines = ["tool                          correct  incorrect  missing"]
        for tool, result in sorted(self.per_tool.items()):
            lines.append(
                f"{tool:<30}{len(result.correct):>7}{len(result.incorrect):>11}"
                f"{len(result.missing):>9}"
            )
        lines.append("")
        lines.append(
            f"computed: {self.correct} correct / {self.total_generated} generated / "
            f"{self.total_ground_truth} ground truth"
        )
        lines.append(
            f"accuracy (correct generated / total generated): {100 * self.accuracy:.1f}%"
        )
        lines.append(
            f"recall (correct generated / total ground truth): {100 * self.recall:.1f}%"
        )
        if self.reported_counts:
            rc = self.reported_counts
            lines.append(
                "reported: "
                f"{rc.get('matched')} matched / {rc.get('generated')} generated / "
                f"{rc.get('ground_truth')} ground truth / {rc.get('missing')} missing"
            )
            computed_missing = self.total_ground_truth - self.correct
            if rc.get("missing") is not None and rc["missing"] != computed_missing:
                lines.append(
                    f"note: reported missing count ({rc['missing']}) disagrees with the "
                    f"computed census ({computed_missing}); both are shown."
                )
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)


def compare_fixture(path: str | Path | None = None) -> ComparisonReport:
    """Match each tool's generated precondition against its ground truth,
    both read from one entry of the labeled-pairs table."""
    data = load_precondition_pairs(path)
    per_tool = {
        tool: match_atoms(parse_precondition(entry["generated"]),
                          parse_precondition(entry["ground_truth"]))
        for tool, entry in data["tools"].items()
    }
    return ComparisonReport(per_tool, data.get("reported_counts", {}))
