"""Graph JSON is laid out exactly as ``json.dumps(indent=2, sort_keys=True)``
writes the graph document.

``ArchGraph.to_json`` fills one template per node and encodes each distinct
kind's params once.  ``oracle`` builds the document and hands it to
``json.dumps``, as ``to_json`` itself once did; every case here compares the
two byte for byte.
"""

import copy
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from hardgraph import registry
from hardgraph.graph_ir import (_KIND_NAMES, Add, ArchGraph, Concat, Conv, GlobalPool, Input,
                                Linear, Pool, TensorShape, TransposedConv)
from hardgraph.harmonic import HDBSpec, build_bare_hdb


def oracle(g: ArchGraph) -> str:
    doc = {
        "name": g.name,
        "input": g.input_shape.as_list() if g.input_shape else None,
        "nodes": [
            {
                "id": n.id,
                "kind": _KIND_NAMES[type(n.kind)],
                "params": {p: getattr(n.kind, p) for p in n.kind.json_params},
                "inputs": list(n.inputs),
                **({"label": n.label} if n.label else {}),
            }
            for n in g.nodes
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def written_as_oracle(g: ArchGraph) -> str:
    text = g.to_json()
    assert text == oracle(g)
    return text


@pytest.mark.parametrize("size", [None, (352, 480)], ids=["default", "352x480"])
@pytest.mark.parametrize("model", registry.MODEL_NAMES)
def test_every_catalog_model(model, size):
    written_as_oracle(registry.build(model, TensorShape(3, *size) if size else None))


@pytest.mark.parametrize("depth", [1, 2, 3, 7, 64, 4096])
def test_bare_hdbs(depth):
    g, _ = build_bare_hdb(HDBSpec(depth, 8, 1.6), TensorShape(16, 64, 64))
    written_as_oracle(g)


@pytest.mark.parametrize("model", ["hardnet68", "resnet50", "fc-densenet56"])
def test_from_json_round_trip(model):
    """A loaded graph shares one kind object among equal kinds; it writes the same text."""
    text = written_as_oracle(registry.build(model))
    loaded = ArchGraph.from_json(text)
    assert written_as_oracle(loaded) == text
    resized = ArchGraph.from_json(text, (96, 128))
    assert json.loads(written_as_oracle(resized))["input"] == [3, 96, 128]


def test_bare_hdb_round_trip():
    g, _ = build_bare_hdb(HDBSpec(64, 8, 1.6), TensorShape(16, 64, 64))
    text = g.to_json()
    assert written_as_oracle(ArchGraph.from_json(text)) == text


class TestHandMadeGraphs:
    def test_no_nodes(self):
        assert written_as_oracle(ArchGraph()) == \
            '{\n  "input": null,\n  "name": "graph",\n  "nodes": []\n}'
        written_as_oracle(ArchGraph("shaped", input_shape=TensorShape(3, 8, 8)))

    def test_no_input_shape(self):
        g = ArchGraph("unshaped")
        g.add(Conv(8), [g.add(Input())], label="c")
        assert '"input": null' in written_as_oracle(g)

    @pytest.mark.parametrize("label", ['say "hi"', "back\\slash", "100%", "%s", "%(id)s",
                                       "{0}", "{", "tab\tnew\nline", "Straße", "卷积 😀", ""])
    def test_labels(self, label):
        g = ArchGraph("labels")
        i = g.add(Input(), label=label)
        g.add(Concat(), [g.add(Conv(8), [i], label=label), i], label=label)
        text = written_as_oracle(g)
        assert text.count('"label"') == (3 if label else 0)

    @pytest.mark.parametrize("name", ["Größe", "网络 %s {x}", '"quoted"\\', ""])
    def test_graph_names(self, name):
        assert json.loads(written_as_oracle(ArchGraph(name)))["name"] == name

    def test_every_kind_and_param(self):
        g = ArchGraph("kinds", input_shape=TensorShape(4, 16, 16))
        i = g.add(Input())
        a = g.add(Conv(8, 1, 3, bias=True), [i])          # non-square kernel, bias
        b = g.add(Conv(8, 3, 1, stride=1, dilation=2, groups=4), [i])
        c = g.add(Concat(), [a, b])
        d = g.add(Add(), [a, b])
        e = g.add(Pool("avg"), [c])
        f = g.add(Pool("max", 3, 1), [d])
        t = g.add(TransposedConv(4, 2, 2), [e])
        g.add(Linear(10), [g.add(GlobalPool(), [f])])
        g.add(Conv(8, 1, 3, bias=False), [t])           # differs from node a only in bias
        doc = json.loads(written_as_oracle(g))
        assert [n["kind"] for n in doc["nodes"]] == [
            "input", "conv", "conv", "concat", "add", "pool", "pool", "tconv", "global_pool",
            "linear", "conv"]
        assert doc["nodes"][1]["params"]["bias"] and not doc["nodes"][-1]["params"]["bias"]

    def test_one_kind_object_shared_by_nodes(self):
        g = ArchGraph("shared", input_shape=TensorShape(3, 8, 8))
        conv = Conv(3)
        prev = g.add(Input())
        for _ in range(4):
            prev = g.add(conv, [prev], label=f"c{prev}")
        written_as_oracle(g)


COUNTS = st.integers(1, 2 ** 40)
KINDS = st.one_of(
    st.integers(1, 4).flatmap(lambda groups: st.builds(
        Conv, st.integers(1, 64).map(lambda c: c * groups), COUNTS, COUNTS, COUNTS, COUNTS,
        st.just(groups), st.booleans())),
    st.builds(Pool, st.sampled_from(["avg", "max"]), COUNTS, COUNTS),
    st.builds(TransposedConv, COUNTS, COUNTS, COUNTS),
    st.builds(Linear, COUNTS),
    st.sampled_from([Concat(), Add(), GlobalPool()]),
)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_generated_graphs(data):
    g = ArchGraph(data.draw(st.text(max_size=8), label="name"))
    g.add(Input(), label=data.draw(st.none() | st.text(max_size=6)))
    for nid in range(1, data.draw(st.integers(1, 12))):
        kind = data.draw(KINDS)
        inputs = data.draw(st.lists(st.integers(0, nid - 1),
                                    min_size=2 if type(kind) is Concat else 1, max_size=4))
        g.add(kind, inputs, data.draw(st.none() | st.text(max_size=6)))
    shape = data.draw(st.none() | st.builds(TensorShape, COUNTS, COUNTS, COUNTS))
    written_as_oracle(ArchGraph(g.name, g.nodes, input_shape=shape))


# one class with no field, one with one field and one with several: to_json
# looks kinds up by value, so each must hash and compare by its fields
FIELD_COUNTS = {"Concat": Concat, "Linear": lambda: Linear(8),
                "Conv": lambda: Conv(8, 1, 3, 2, 1, 2, True)}


class TestValueFields:
    @pytest.mark.parametrize("make", FIELD_COUNTS.values(), ids=FIELD_COUNTS)
    def test_fields_are_a_tuple_in_slot_order(self, make):
        value = make()
        assert value._fields == tuple(getattr(value, name) for name in value.__slots__)

    @pytest.mark.parametrize("make", FIELD_COUNTS.values(), ids=FIELD_COUNTS)
    def test_equal_values_hash_alike(self, make):
        a, b = make(), make()
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        assert {a: 1}[b] == 1

    @pytest.mark.parametrize("make", FIELD_COUNTS.values(), ids=FIELD_COUNTS)
    def test_copy_and_pickle(self, make):
        value = make()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            assert twin._fields == value._fields

    def test_unequal_values(self):
        assert Linear(8) != Linear(9) and Linear(8) != (8,) and Linear(8) != 8
        assert Conv(8, 1, 3) != Conv(8, 3, 1) and Conv(8, bias=True) != Conv(8)
        assert Pool("avg") != Pool("max")
        # field-less kinds of two types stay apart as keys
        table = {Concat(): "concat", Add(): "add", GlobalPool(): "global_pool", Input(): "input"}
        assert [table[k()] for k in (Concat, Add, GlobalPool, Input)] == \
            ["concat", "add", "global_pool", "input"]

    def test_field_less_kinds_hash_apart(self):
        # the hash covers the type, so kinds with equal (empty) fields do not collide
        assert len({hash(k()) for k in (Concat, Add, GlobalPool, Input)}) == 4
        assert hash(Linear(8)) != hash((8,)) and Linear(8) != (8,)

    @pytest.mark.parametrize("name", ["hardnet68", "fc-hardnet84", "resnet50"])
    def test_to_json_compares_each_repeated_kind_once(self, monkeypatch, name):
        # builders make a fresh kind per node, so a lookup that finds an equal
        # kind compares once; a hash shared across types would compare more
        from hardgraph.graph_ir import _Value
        g, calls, eq = registry.build(name), [], _Value.__eq__
        monkeypatch.setattr(_Value, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
        g.to_json()
        distinct = {(type(k), k._fields) for k in g.kinds}
        assert len(calls) == len(g.kinds) - len(distinct)
