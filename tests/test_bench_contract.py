"""The benchmark's tracer wraps homeplan layers by module and name; these
tests keep those names resolving, and keep the traced layers on the call
path, so that a refactor which hides one fails here and not only in a
traced benchmark run. bench/tracer.py is loaded by path and only read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import homeplan.sim
from homeplan.sim import refresh_visibility

from .conftest import make_object, make_world

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("homeplan_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_homeplan_layer_resolves(tracer_module):
    entries = tracer_module.FUNCTIONS + tracer_module.METHODS + tracer_module.SETUP_FUNCTIONS
    homeplan_entries = [entry for entry in entries if entry[0].startswith("homeplan")]
    assert homeplan_entries
    for path, attribute, name in homeplan_entries:
        module_name, _, class_name = path.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name)
        assert callable(owner.__dict__.get(attribute)), f"{name}: {path}.{attribute} is gone"


def test_a_rejected_execute_calls_the_traced_grounding_layers(tracer_module):
    layers = [entry for entry in tracer_module.FUNCTIONS if entry[0] == "homeplan.grounding"]
    assert {name for _, _, name in layers} == {"grounding.evaluate", "grounding.unsatisfied"}
    world = refresh_visibility(
        make_world({"Box_1": make_object(receptacle=True)}, discovered={"Box_1"})
    )
    tracer = tracer_module.Tracer(record_spans=False)
    tracer.install(functions=layers, methods=())
    try:
        _, observation = homeplan.sim.execute(
            world, "Pick Up Object", {"object_id": "Box_1"}, True
        )
    finally:
        tracer.restore()
    assert not observation.success
    counts = tracer.layers()
    assert counts["grounding.evaluate"]["calls"] == 1
    assert counts["grounding.unsatisfied"]["calls"] == 1
