import dataclasses
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from homeplan.errors import (
    InputFormatError,
    InvalidObjectIdError,
    UnknownAttributeError,
    UnknownObjectError,
)
from homeplan.llm import ReactStep, StepRecord
from homeplan.sim import Observation
from homeplan.world import (
    ATTRIBUTE_NAMES,
    AgentState,
    ObjectAttributes,
    ObjectInfo,
    WorldState,
    _replace,
    attribute_reader,
    category_of,
    validate_world,
    world_from_dict,
)

from .conftest import make_object, make_world


def test_sixteen_attributes():
    assert len(ATTRIBUTE_NAMES) == 16
    assert len(set(ATTRIBUTE_NAMES)) == 16
    # Every name but visible is stored on the object, in the same order.
    stored = [f.name for f in dataclasses.fields(ObjectAttributes)]
    assert stored == [name for name in ATTRIBUTE_NAMES if name != "visible"]


def test_attribute_lookup_reads_stored_value():
    world = make_world({"Cabinet_1": make_object(openable=True)})
    assert attribute_reader("openable")(world, "Cabinet_1") is True
    assert attribute_reader("isOpen")(world, "Cabinet_1") is False


def test_attribute_lookup_reads_visible_from_the_state():
    world = make_world({"Cabinet_1": make_object(), "Mug_1": make_object()},
                       visible={"Mug_1"})
    assert attribute_reader("visible")(world, "Cabinet_1") is False
    assert attribute_reader("visible")(world, "Mug_1") is True


def test_attribute_lookup_unknown_object():
    world = make_world({"Cabinet_1": make_object()})
    with pytest.raises(UnknownObjectError):
        world.info("Ghost_9")


def test_attribute_lookup_unknown_attribute():
    world = make_world({"Cabinet_1": make_object()})
    with pytest.raises(UnknownAttributeError):
        attribute_reader("temperature")(world, "Cabinet_1")


def test_category_of_takes_the_text_before_the_last_underscore():
    for text, category in (("Cabinet_4", "Cabinet"), ("SaltShaker_12", "SaltShaker"),
                           ("Stove_Knob_3", "Stove_Knob")):
        assert category_of(text) == category


@given(
    st.from_regex(r"[A-Z][A-Za-z]{0,8}", fullmatch=True),
    st.integers(min_value=1, max_value=10**6),
)
def test_category_of_any_well_formed_id_is_its_category(category, index):
    assert category_of(f"{category}_{index}") == category


@pytest.mark.parametrize("bad, reason", [
    ("Cabinet", "expected Category_N"), ("Cabinet_", "instance index must be digits"),
    ("_4", "expected Category_N"), ("Cabinet_0", "instance index must be positive"),
    ("Cabinet_-1", "instance index must be digits"),
    ("Cabinet_04", "instance index has leading zeros"),
    ("Cabinet_x", "instance index must be digits"),
    ("Cabinet_\u00b2", "instance index must be digits"),
])
def test_category_of_rejects_malformed(bad, reason):
    with pytest.raises(InvalidObjectIdError) as raised:
        category_of(bad)
    assert str(raised.value) == f"not a well-formed object id: {bad!r}: {reason}"


def test_category_of_rejects_an_index_longer_than_int_reads():
    bad = "Apple_" + "1" * 5000
    with pytest.raises(InvalidObjectIdError, match="instance index is too long$"):
        category_of(bad)


def test_validate_world_consistent_fixture():
    world = make_world(
        {
            "Cabinet_1": make_object(receptacle=True, openable=True),
            "Mug_1": make_object(pickupable=True, moveable=True),
            "CounterTop_1": make_object(receptacle=True),
        },
        containment={"Mug_1": "Cabinet_1"},
    )
    assert validate_world(world) == []


def test_validate_world_dependent_attribute():
    world = make_world({"Mug_1": make_object(isOpen=True)})
    assert validate_world(world) == ["Mug_1: isOpen without openable"]


@pytest.mark.parametrize(
    "attrs,expected",
    [
        ({"isToggled": True}, "isToggled without toggleable"),
        ({"isPickedUp": True}, "isPickedUp without pickupable"),
        ({"isCooked": True}, "isCooked without cookable"),
        ({"isFilledWithLiquid": True}, "isFilledWithLiquid without canFillWithLiquid"),
    ],
)
def test_validate_world_all_dependencies(attrs, expected):
    # A picked-up egg is the held one, so that only the dependency is broken.
    holding = "Egg_1" if attrs.get("isPickedUp") else None
    world = make_world({"Egg_1": make_object(**attrs)}, holding=holding)
    assert validate_world(world) == [f"Egg_1: {expected}"]


def test_validate_world_containment_cycle():
    world = make_world(
        {
            "Box_1": make_object(receptacle=True),
            "Box_2": make_object(receptacle=True),
        },
        containment={"Box_1": "Box_2", "Box_2": "Box_1"},
    )
    violations = validate_world(world)
    assert len([v for v in violations if "cycle" in v]) == 1


def test_validate_world_reports_discovered_and_visible_ids_that_name_no_object():
    world = make_world({"Mug_1": make_object()}, discovered={"Mug_1", "Ghost_2"},
                       visible={"Mug_1", "Ghost_3", "Ghost_1"})
    assert validate_world(world) == [
        "discovered id Ghost_2 does not exist",
        "visible id Ghost_1 does not exist",
        "visible id Ghost_3 does not exist",
    ]


def test_validate_world_parent_must_be_receptacle():
    world = make_world(
        {"Mug_1": make_object(), "Knife_1": make_object()},
        containment={"Mug_1": "Knife_1"},
    )
    assert any("without receptacle" in v for v in validate_world(world))


def test_validate_world_held_object_rules():
    world = make_world(
        {
            "Mug_1": make_object(zone=None, pickupable=True, isPickedUp=True),
            "Cabinet_1": make_object(receptacle=True, openable=True),
        },
        containment={"Mug_1": "Cabinet_1"},
        holding="Mug_1",
    )
    assert any("containment parent" in v for v in validate_world(world))


def test_a_fixture_with_a_picked_up_object_the_agent_does_not_hold_is_rejected():
    # Loaded, Fill Held Object With Water would pass on the mug's flag and
    # fill the held apple, which cannot hold liquid.
    with pytest.raises(InputFormatError, match="Mug_1: isPickedUp but not held by the agent"):
        world_from_dict(
            {
                "objects": {
                    "Apple_1": {"zone": None, "attributes": {"pickupable": True,
                                                             "isPickedUp": True}},
                    "Mug_1": {"zone": "a", "attributes": {"pickupable": True,
                                                          "canFillWithLiquid": True,
                                                          "isPickedUp": True}},
                },
                "containment": [],
                "agent": {"zone": "a", "seed": 1, "holding": "Apple_1"},
            }
        )


def test_world_from_dict_rejects_unknown_keys():
    with pytest.raises(InputFormatError):
        world_from_dict(
            {"objects": {}, "containment": [], "agent": {"zone": "a", "seed": 1}, "bogus": 1}
        )


def test_world_from_dict_rejects_unknown_attribute():
    with pytest.raises(InputFormatError):
        world_from_dict(
            {
                "objects": {"Mug_1": {"zone": "a", "attributes": {"sparkly": True}}},
                "containment": [],
                "agent": {"zone": "a", "seed": 1},
            }
        )


def test_world_from_dict_rejects_duplicate_parent():
    with pytest.raises(InputFormatError):
        world_from_dict(
            {
                "objects": {
                    "Mug_1": {"zone": "a", "attributes": {}},
                    "Box_1": {"zone": "a", "attributes": {"receptacle": True}},
                    "Box_2": {"zone": "a", "attributes": {"receptacle": True}},
                },
                "containment": [["Mug_1", "Box_1"], ["Mug_1", "Box_2"]],
                "agent": {"zone": "a", "seed": 1},
            }
        )


@pytest.mark.parametrize(
    "change",
    [
        {"agent": {"seed": 1}},
        {"agent": {"zone": "a"}},
        {"agent": {"zone": "a", "seed": "one"}},
        {"agent": {"zone": "a", "seed": None}},
        {"nav_faults": ["x"]},
        {"nav_faults": 3},
        {"objects": {"Mug_1": {"zone": "a", "attributes": ["pickupable"]}}},
        {"objects": [{"zone": "a", "attributes": {}}]},
        {"discovered": 5},
        {"objects": {"Mug_1": {"zone": "a", "controls": 3}}},
        {"agent": {"zone": "a", "seed": 1, "holding": ["Mug_1"]}},
        {"agent": {"zone": ["a"], "seed": 1}},
        {"objects": {"Mug_1": {"zone": ["a"], "attributes": {}}}},
        {"objects": {"Mug_1": {"zone": "a", "display_id": 5}}},
        {"agent": {"zone": "a", "seed": True}},
    ],
    ids=["no-zone", "no-seed", "text-seed", "null-seed", "text-fault", "scalar-faults",
         "attribute-list", "objects-list", "discovered-scalar", "controls-scalar",
         "holding-list", "agent-zone-list", "object-zone-list", "display-id-number",
         "boolean-seed"],
)
def test_world_from_dict_rejects_a_malformed_agent_or_field(change):
    data = {
        "objects": {"Mug_1": {"zone": "a", "attributes": {}}},
        "containment": [],
        "agent": {"zone": "a", "seed": 1},
    }
    world_from_dict(data)
    with pytest.raises(InputFormatError):
        world_from_dict({**data, **change})


def test_world_from_dict_computes_visibility_and_ignores_the_fixture_value():
    world = world_from_dict({
        "objects": {
            "Mug_1": {"zone": "b", "attributes": {"visible": True}},
            "Cup_1": {"zone": "a", "attributes": {"visible": False}},
            "Box_1": {"zone": "a", "attributes": {"receptacle": True, "openable": True}},
            "Key_1": {"zone": "a", "attributes": {"visible": True}},
            "Floor_1": {"zone": "*"},
        },
        "containment": [["Key_1", "Box_1"]],
        "agent": {"zone": "a", "seed": 1},
    })
    assert world.visible == {"Cup_1", "Box_1", "Floor_1"}


def test_kitchen_fixture_loads_and_validates(kitchen_world):
    assert validate_world(kitchen_world) == []
    assert len(kitchen_world.objects) == 49
    assert attribute_reader("openable")(kitchen_world, "Cabinet_1") is True


# ---------------------------------------------------------------------------
# Field copies of the frozen value types

_texts = st.text(alphabet="ab_*", max_size=3)
_attribute_sets = st.builds(
    ObjectAttributes, **{f.name: st.booleans() for f in dataclasses.fields(ObjectAttributes)}
)
_object_infos = st.builds(
    ObjectInfo,
    attributes=_attribute_sets,
    zone=st.one_of(st.none(), _texts),
    conspicuous=st.booleans(),
    heat_source=st.booleans(),
    display_id=st.one_of(st.none(), _texts),
    controls=st.lists(_texts, max_size=2).map(tuple),
)
_agent_states = st.builds(
    AgentState,
    current_zone=_texts,
    rng_seed=st.integers(),
    held_object=st.one_of(st.none(), _texts),
    explore_count=st.integers(0, 9),
    action_count=st.integers(0, 9),
)
_world_states = st.builds(
    WorldState,
    objects=st.dictionaries(_texts, _object_infos, max_size=3),
    containment=st.dictionaries(_texts, _texts, max_size=2),
    agent=_agent_states,
    discovered=st.frozensets(_texts, max_size=2),
    visible=st.frozensets(_texts, max_size=2),
    nav_faults=st.frozensets(st.integers(0, 9), max_size=2),
)


@given(st.data())
def test_field_copy_equals_dataclasses_replace(data):
    strategy = data.draw(
        st.sampled_from([_attribute_sets, _object_infos, _agent_states, _world_states])
    )
    instance, donor = data.draw(strategy), data.draw(strategy)
    names = [f.name for f in dataclasses.fields(instance)]
    chosen = data.draw(st.lists(st.sampled_from(names), unique=True))
    changes = {name: getattr(donor, name) for name in chosen}
    before = dict(vars(instance))

    copy = _replace(instance, **changes)
    expected = dataclasses.replace(instance, **changes)
    assert type(copy) is type(expected)
    assert copy == expected
    assert list(vars(copy).items()) == list(vars(expected).items())
    assert vars(instance) == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(copy, names[0], getattr(instance, names[0]))
    message = f"{type(instance).__name__} has no fields ['no_such_field']"
    with pytest.raises(TypeError, match=re.escape(message)):
        _replace(instance, no_such_field=1, **changes)


def _machinery_twin(cls):
    """A frozen dataclass with the name and fields of cls, whose instances
    the dataclass machinery's own __init__ builds."""
    namespace = {"__annotations__": dict(cls.__annotations__),
                 "__qualname__": cls.__qualname__, "__module__": cls.__module__}
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, (), namespace))


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a dict field
        return str(exc)


_record_values = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.dictionaries(st.text(max_size=2), st.one_of(st.none(), st.text(max_size=2)), max_size=2),
)


@given(st.sampled_from([ReactStep, StepRecord, Observation]), st.data())
def test_record_contract_matches_the_dataclass_machinery(cls, data):
    names = [f.name for f in dataclasses.fields(cls)]
    twin = _machinery_twin(cls)
    values, others = (data.draw(st.lists(_record_values, min_size=len(names),
                                         max_size=len(names))) for _ in range(2))
    record, reference = cls(*values), twin(*values)
    assert list(vars(record).items()) == list(vars(reference).items())
    assert repr(record) == repr(reference)
    assert _hash_or_error(record) == _hash_or_error(reference)
    assert record == cls(**dict(zip(names, values)))
    assert (record == cls(*others)) == (reference == twin(*others))
    if cls is StepRecord:  # a cached rendering is no field
        record.rendered
        assert record == cls(*values) and repr(record) == repr(reference)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(record, names[0], values[0])
    changed = dataclasses.replace(record, **{names[-1]: others[-1]})
    assert list(vars(changed).items()) == list(vars(twin(*values[:-1], others[-1])).items())
