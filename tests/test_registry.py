"""``registry.build`` runs a model's builder once per process, at the model's
default input.  Every build, the first too, copies its nodes and shapes them in
one class-grouped pass; each must equal a fresh build through the builder, node
for node and report for report.
"""

import pytest

from hardgraph import registry
from hardgraph.graph_ir import GraphError, Linear, TensorShape, to_dot
from test_classes import analyses
from test_graph_ir import run_builder


def inputs(name) -> list:
    default = registry.default_input(name)
    return [None, TensorShape(3, 192, 192), TensorShape(3, 256, 320), TensorShape(3, 352, 480),
            TensorShape(1, default.height, default.width),
            TensorShape(4, default.height, default.width)]


def repeat_build(name, shape=None):
    registry.build(name)  # the first build in this process, if no test made it
    assert name in registry._NODES
    return registry.build(name, shape)


@pytest.mark.parametrize("name", registry.MODEL_NAMES)
def test_repeat_build_equals_a_fresh_build(name):
    for shape in inputs(name):
        fresh, hit = run_builder(name, shape), repeat_build(name, shape)
        assert hit.name == fresh.name and hit.input_shape == fresh.input_shape
        assert hit.kinds == fresh.kinds and hit.inputs == fresh.inputs
        assert hit.labels == fresh.labels and hit.shapes == fresh.shapes
        assert hit.to_json() == fresh.to_json() and to_dot(hit) == to_dot(fresh)
        assert analyses(hit, 4, None, 20.0) == analyses(fresh, 4, None, 20.0), (name, shape)


@pytest.mark.parametrize("name", registry.MODEL_NAMES)
@pytest.mark.parametrize("shape", [None, TensorShape(3, 256, 320)])
def test_first_build_has_the_classes_of_later_builds(name, shape, monkeypatch):
    monkeypatch.setattr(registry, "_NODES", {})
    first, second = registry.build(name, shape), registry.build(name, shape)
    # most models group nodes into fewer classes than nodes; FC-DenseNet does not
    assert first.classes == second.classes and first.class_first == second.class_first


def outcome(build, name, shape):
    """The build's shapes, or its error line."""
    try:
        return build(name, shape).shapes
    except GraphError as e:
        return str(e)


@pytest.mark.parametrize("name", registry.MODEL_NAMES)
def test_repeat_build_fails_as_a_fresh_build(name):
    # only the ResNets shape 16x16 (their strided convs round up)
    bad = [TensorShape(3, 16, 16)] + [TensorShape(3, 225, 225)] * name.startswith("fc-")
    for shape in bad:
        fresh = outcome(run_builder, name, shape)
        assert outcome(repeat_build, name, shape) == fresh
        assert type(fresh) is str or name.startswith("resnet")


def test_appending_to_a_build_leaves_the_next_build_as_it_was():
    g = repeat_build("hardnet68")
    before = registry.build("hardnet68").to_json()
    g.add(Linear(10), [len(g.kinds) - 1], label="extra")
    g.kinds[1], g.labels[1] = Linear(3), "changed"
    assert registry.build("hardnet68").to_json() == before == run_builder("hardnet68").to_json()


def test_names_are_case_blind_and_unknown_names_stay_unknown():
    assert registry.build("HarDNet68").to_json() == run_builder("hardnet68").to_json()
    with pytest.raises(KeyError, match="unknown model 'nope'"):
        registry.build("nope")
    assert "nope" not in registry._NODES
