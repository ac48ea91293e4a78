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
from dataclasses import dataclass, field
from pathlib import Path

from .errors import KeyMismatchError
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

    @property
    def generated_total(self) -> int:
        return len(self.correct) + len(self.incorrect)

    @property
    def ground_truth_total(self) -> int:
        return len(self.correct) + len(self.missing)


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


@dataclass
class ComparisonReport:
    per_tool: dict[str, MatchResult]
    correct: int
    total_generated: int
    total_ground_truth: int
    accuracy: float
    recall: float
    warnings: list[str] = field(default_factory=list)
    reported_counts: dict | None = None

    def to_dict(self) -> dict:
        data = {
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
            "warnings": list(self.warnings),
        }
        if self.reported_counts is not None:
            data["reported_counts"] = dict(self.reported_counts)
        return data

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


def compare_sets(
    generated: dict[str, Formula],
    ground_truth: dict[str, Formula],
    reported_counts: dict | None = None,
) -> ComparisonReport:
    if set(generated) != set(ground_truth):
        only_gen = sorted(set(generated) - set(ground_truth))
        only_truth = sorted(set(ground_truth) - set(generated))
        raise KeyMismatchError(
            f"tool sets differ (generated only: {only_gen}, ground truth only: {only_truth})"
        )
    per_tool = {tool: match_atoms(generated[tool], ground_truth[tool]) for tool in generated}
    correct = sum(len(r.correct) for r in per_tool.values())
    total_generated = sum(r.generated_total for r in per_tool.values())
    total_truth = sum(r.ground_truth_total for r in per_tool.values())
    warnings = []
    if total_generated == 0:
        warnings.append("no generated preconditions; accuracy reported as 0")
        accuracy = 0.0
    else:
        accuracy = correct / total_generated
    recall = correct / total_truth if total_truth else 0.0
    # Rates must reconstruct the integer counts they came from.
    assert round(accuracy * total_generated) == (correct if total_generated else 0)
    assert round(recall * total_truth) == (correct if total_truth else 0)
    return ComparisonReport(
        per_tool=per_tool,
        correct=correct,
        total_generated=total_generated,
        total_ground_truth=total_truth,
        accuracy=accuracy,
        recall=recall,
        warnings=warnings,
        reported_counts=reported_counts,
    )


def load_fixture_formulas(
    path: str | Path | None = None,
) -> tuple[dict[str, Formula], dict[str, Formula], dict]:
    """Parse the shipped labeled-pairs fixture into formula maps."""
    data = load_precondition_pairs(path)
    generated = {}
    ground_truth = {}
    for tool, entry in data["tools"].items():
        generated[tool] = parse_precondition(entry["generated"])
        ground_truth[tool] = parse_precondition(entry["ground_truth"])
    return generated, ground_truth, data.get("reported_counts", {})


def compare_fixture(path: str | Path | None = None) -> ComparisonReport:
    generated, ground_truth, reported = load_fixture_formulas(path)
    return compare_sets(generated, ground_truth, reported_counts=reported)

