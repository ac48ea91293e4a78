import json

import pytest

from homeplan.formula import parse_precondition
from homeplan.precondgen import compare_fixture, flatten_atoms, match_atoms
from homeplan.tools import load_precondition_pairs

OPEN_GENERATED = "(and (openable ?x) (not (isOpen ?x)) (visible ?x) (not (isBroken ?x)))"
OPEN_TRUTH = "(and (openable ?x) (not (isOpen ?x)) (visible ?x) (not (isHoldingObject)))"
TOGGLE_OFF_GENERATED = "(and (toggleable ?x) (isToggled ?x))"
TOGGLE_OFF_TRUTH = (
    "(and (toggleable ?x) (isToggled ?x) (visible ?x) (not (isHoldingObject)))"
)


def test_match_atoms_open_object():
    result = match_atoms(
        parse_precondition(OPEN_GENERATED), parse_precondition(OPEN_TRUTH)
    )
    assert len(result.correct) == 3
    assert [k.render() for k in result.incorrect] == ["isBroken=false"]
    assert [k.render() for k in result.missing] == ["isHoldingObject=false"]


def test_match_atoms_toggle_off():
    result = match_atoms(
        parse_precondition(TOGGLE_OFF_GENERATED), parse_precondition(TOGGLE_OFF_TRUTH)
    )
    assert len(result.correct) == 2
    assert len(result.incorrect) == 0
    assert sorted(k.name for k in result.missing) == ["isHoldingObject", "visible"]


def test_match_atoms_identical_formulas():
    formula = parse_precondition(OPEN_TRUTH)
    result = match_atoms(formula, formula)
    assert len(result.correct) == 4
    assert result.incorrect == ()
    assert result.missing == ()


def test_match_atoms_swap_symmetry():
    gen = parse_precondition(OPEN_GENERATED)
    truth = parse_precondition(OPEN_TRUTH)
    forward = match_atoms(gen, truth)
    backward = match_atoms(truth, gen)
    assert forward.incorrect == backward.missing
    assert forward.missing == backward.incorrect
    assert forward.correct == backward.correct


def test_flatten_distinguishes_modifier_context():
    inside = parse_precondition("(when (and (openable ?x)) (and (isOpen ?x)))")
    outside = parse_precondition("(and (openable ?x) (isOpen ?x))")
    assert flatten_atoms(inside) != flatten_atoms(outside)
    keys = sorted(flatten_atoms(inside))
    assert [k.render() for k in keys] == ["if:openable=true", "then:isOpen=true"]


def test_flatten_transparent_conjunction_nesting():
    flat = parse_precondition("(and (visible ?x) (openable ?x))")
    nested = parse_precondition("(and (and (visible ?x)) (openable ?x))")
    assert flatten_atoms(flat) == flatten_atoms(nested)


def test_flatten_exists_alpha_equivalence():
    a = parse_precondition("(exists (?y) (and (isPickedUp ?y)))")
    b = parse_precondition("(exists (?z) (and (isPickedUp ?z)))")
    assert flatten_atoms(a) == flatten_atoms(b)


def _table(tmp_path, tools):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps({"tools": tools}), encoding="utf-8")
    return path


def test_compare_sets_identical_maps(tmp_path):
    pair = {"generated": OPEN_TRUTH, "ground_truth": OPEN_TRUTH}
    report = compare_fixture(_table(tmp_path, {"Open Object": pair}))
    assert report.accuracy == 1.0
    assert report.recall == 1.0
    assert report.warnings == []
    assert report.to_dict()["reported_counts"] == {}


def test_compare_sets_empty_generated_warns(tmp_path):
    # Zero atoms cannot be encoded in the formula grammar, so a tool cannot
    # generate none: a mismatched singleton scores 0, and only an empty
    # table warns.
    pair = {"generated": "(and (isBroken ?x))", "ground_truth": OPEN_TRUTH}
    report = compare_fixture(_table(tmp_path, {"Open Object": pair}))
    assert report.accuracy == 0.0
    assert report.recall == 0.0
    assert report.warnings == []
    empty = compare_fixture(_table(tmp_path, {}))
    assert (empty.accuracy, empty.recall) == (0.0, 0.0)
    assert empty.warnings == ["no generated preconditions; accuracy reported as 0"]


def test_fixture_census_matches_acceptance_fractions():
    report = compare_fixture()
    assert report.correct == 37
    assert report.total_generated == 38
    assert report.total_ground_truth == 42
    assert report.accuracy == 37 / 38
    assert report.recall == 37 / 42
    assert f"{100 * report.accuracy:.1f}%" == "97.4%"
    assert f"{100 * report.recall:.1f}%" == "88.1%"


def test_fixture_count_identities():
    report = compare_fixture()
    assert report.accuracy * report.total_generated == pytest.approx(report.correct)
    assert report.recall * report.total_ground_truth == pytest.approx(report.correct)


def test_fixture_report_flags_reported_disagreement():
    report = compare_fixture()
    text = report.render_text()
    assert "97.4%" in text
    assert "88.1%" in text
    assert "reported" in text
    assert "disagrees with the computed census" in text


def test_fixture_formulas_align_with_tool_library():
    from homeplan.tools import builtin_tool_library

    lib = builtin_tool_library()
    pairs = load_precondition_pairs()["tools"]
    for tool, entry in pairs.items():
        assert lib[tool].precondition == parse_precondition(entry["ground_truth"])
    # A tool has a precondition exactly when the fixture lists it by name.
    assert len(pairs) == 9
    assert [name for name, spec in lib.items() if spec.precondition is None] == [
        name for name in lib if name not in pairs] == [
        "Randomly Explore", "Get Discovered Objects", "Inspect Object", "Adjust Positioning"]

