"""Graph JSON is laid out exactly as ``json.dumps(indent=2, sort_keys=True)``
writes the graph document.

``ArchGraph.to_json`` fills one template per node and encodes each distinct
kind's params once.  ``oracle`` builds the document and hands it to
``json.dumps``, as ``to_json`` itself once did; every case here compares the
two byte for byte.
"""

import copy
import gc
import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from hardgraph import graph_ir, registry
from hardgraph.graph_ir import (_KIND_NAMES, Add, ArchGraph, Concat, Conv, GlobalPool, GraphError,
                                Input, Linear, Pool, TensorShape, TransposedConv)
from hardgraph.harmonic import HDBSpec, build_bare_hdb
from hardgraph.jsonio import _kind_from_json
from test_graph_ir import run_builder


def oracle(g: ArchGraph) -> str:
    doc = {
        "name": g.name,
        "input": g.input_shape.as_list(),
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


SMALL = TensorShape(3, 8, 8)


class TestHandMadeGraphs:
    def test_no_nodes(self):
        # build always writes [c, h, w]: a graph cannot be made without its input shape
        with pytest.raises(TypeError):
            ArchGraph()
        assert written_as_oracle(ArchGraph(input_shape=SMALL)) == \
            '{\n  "input": [\n    3,\n    8,\n    8\n  ],\n  "name": "graph",\n  "nodes": []\n}'

    def test_no_input_shape(self):
        # a graph is made with its input shape; graph JSON without one loads only at a size
        with pytest.raises(TypeError):
            ArchGraph("unshaped")
        g = ArchGraph("unshaped", input_shape=SMALL)
        g.add(Conv(8), [g.add(Input())], label="c")
        doc = json.loads(written_as_oracle(g))
        doc["input"] = None
        with pytest.raises(GraphError, match=r"^graph JSON has no input shape; pass --input HxW$"):
            ArchGraph.from_json(json.dumps(doc))
        assert written_as_oracle(ArchGraph.from_json(json.dumps(doc), (8, 8))) == g.to_json()

    @pytest.mark.parametrize("label", ['say "hi"', "back\\slash", "100%", "%s", "%(id)s",
                                       "{0}", "{", "tab\tnew\nline", "Straße", "卷积 😀", ""])
    def test_labels(self, label):
        g = ArchGraph("labels", input_shape=SMALL)
        i = g.add(Input(), label=label)
        g.add(Concat(), [g.add(Conv(8), [i], label=label), i], label=label)
        text = written_as_oracle(g)
        assert text.count('"label"') == (3 if label else 0)

    @pytest.mark.parametrize("name", ["Größe", "网络 %s {x}", '"quoted"\\', ""])
    def test_graph_names(self, name):
        assert json.loads(written_as_oracle(ArchGraph(name, input_shape=SMALL)))["name"] == name

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
    # a node that cannot be shaped is not appended; the draw goes on without it
    shape = data.draw(st.builds(TensorShape, COUNTS, COUNTS, COUNTS), label="input")
    g = ArchGraph(data.draw(st.text(max_size=8), label="name"), input_shape=shape)
    # node 0 must be added, so its label holds no NUL (add refuses one; test_graph_ir holds that)
    nul_free = st.text(st.characters(codec="utf-8", exclude_characters="\0"), max_size=6)
    g.add(Input(), label=data.draw(st.none() | nul_free))
    for _ in range(1, data.draw(st.integers(1, 12))):
        kind = data.draw(KINDS)
        inputs = data.draw(st.lists(st.integers(0, len(g.kinds) - 1),
                                    min_size=2 if type(kind) is Concat else 1, max_size=4))
        try:
            g.add(kind, inputs, data.draw(st.none() | st.text(max_size=6)))
        except GraphError:
            pass
    written_as_oracle(g)


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
        g, calls, eq = run_builder(name), [], _Value.__eq__
        monkeypatch.setattr(_Value, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
        g.to_json()
        distinct = {(type(k), k._fields) for k in g.kinds}
        assert len(calls) == len(g.kinds) - len(distinct)

    @pytest.mark.parametrize("name", ["hardnet68", "fc-hardnet84", "resnet50"])
    def test_to_json_compares_no_kind_shared_by_identity(self, monkeypatch, name):
        # a repeat registry build holds one object per distinct kind, which
        # the lookup finds by identity, so it compares none
        from hardgraph.graph_ir import _Value
        first = registry.build(name).to_json()
        g, calls, eq = registry.build(name), [], _Value.__eq__
        assert len({id(k) for k in g.kinds}) == len({(type(k), k._fields) for k in g.kinds})
        monkeypatch.setattr(_Value, "__eq__", lambda a, b: calls.append(1) or eq(a, b))
        assert g.to_json() == first
        assert calls == []


# --- loading: kinds interned by their params' bytes -------------------------

# per kind name, values each graph-JSON param accepts; unknown kind names use conv's
GOOD_PARAMS = {
    "conv": {"out_channels": (8, 1, 2 ** 64), "kernel": ([1, 3], [3, 3]), "stride": (1, 2),
             "dilation": (1,), "groups": (1,), "bias": (False, True)},
    "pool": {"mode": ("avg", "max"), "kernel": (2, 1), "stride": (1, 2)},
    "tconv": {"out_channels": (4, 1), "kernel": (2,), "stride": (2, 1)},
    "linear": {"out_features": (10, 1)},
    "concat": {}, "add": {}, "global_pool": {},
}
ANY_KIND_NAMES = (*GOOD_PARAMS, "deconv", "Conv", 1, None, ["conv"])
JUNK = ("8", None, {"h": 1}, [[1], 3], [1, [3]], [], -1, 0)


def twins(value) -> list:
    """Values that ``==`` ``value`` but have another JSON type or float bits; for a
    list, the lists that differ from it in one such element."""
    if type(value) is list:
        return [[*value[:i], t, *value[i + 1:]] for i, v in enumerate(value) for t in twins(v)]
    if type(value) is str:
        return []
    return [t for t in (True, False, int(value), float(value), 0.0, -0.0)
            if t == value and repr(t) != repr(value)]


@st.composite
def kind_records(draw) -> list:
    """(kind name, params) records: a first one, mostly of accepted values, and
    variants of it with one value swapped for an equal twin or for junk.  Now and
    then the kind name is unknown, a param is unknown or params is no object."""
    known = draw(st.integers(0, 9)) > 0
    name = draw(st.sampled_from(list(GOOD_PARAMS) if known else ANY_KIND_NAMES))
    if draw(st.integers(0, 19)) == 0:
        return [(name, draw(st.sampled_from([[], "conv", 7])))]
    accepted = GOOD_PARAMS.get(name) if type(name) is str else None
    if accepted is None:
        accepted = GOOD_PARAMS["conv"]
    # the first param has no default: present in four records of five
    params = {param: draw(st.sampled_from(good)) for i, (param, good) in enumerate(accepted.items())
              if draw(st.sampled_from([True] * 4 + [False]) if i == 0 else st.booleans())}
    if draw(st.integers(0, 9)) == 0:
        params["kernal"] = 1
    records = [(name, params)]
    swappable = sorted(param for param, value in params.items() if twins(value))
    for _ in range(draw(st.integers(1, 3)) if swappable else 0):
        param = draw(st.sampled_from(swappable))
        swaps = twins(params[param]) if draw(st.integers(0, 4)) else JUNK
        records.append((name, {**params, param: draw(st.sampled_from(swaps))}))
    return records


def loads_as_built_alone(records) -> None:
    """Load the records as nodes 1, 2, ... after an input, and compare with the
    oracle, which interns nothing: each node's kind built on its own, up to the
    first error, whose first line the load must raise."""
    kinds, error = [], None
    for nid, (name, params) in enumerate(records, 1):
        try:
            kinds.append(_kind_from_json(name, params, nid))
        except GraphError as e:
            error = str(e).splitlines()[0]
            break
    text = json.dumps({"name": "kinds", "input": [3, 8, 8], "nodes": [
        {"id": 0, "kind": "input", "params": {}, "inputs": []},
        *({"id": nid, "kind": name, "params": params, "inputs": [0, 0]}
          for nid, (name, params) in enumerate(records, 1))]})
    if error is None:
        loaded = ArchGraph.from_json(text).kinds[1:]
        assert [(type(k), k._fields) for k in loaded] == [(type(k), k._fields) for k in kinds]
    else:
        with pytest.raises(GraphError) as err:
            ArchGraph.from_json(text)
        assert str(err.value).splitlines()[0] == error


@settings(max_examples=300, deadline=None)
@given(st.lists(kind_records(), min_size=1, max_size=3), st.data())
def test_interned_kinds_match_kinds_built_alone(pools, data):
    # each pool's first record comes first, then nodes draw from every record, so
    # a built kind is often looked up under equal or ==-equal params; one node in
    # four reshuffles its params
    pool, records = sum(pools, []), [records[0] for records in pools]
    for _ in range(data.draw(st.integers(1, 8), label="nodes")):
        name, params = data.draw(st.sampled_from(pool))
        if type(params) is dict and data.draw(st.integers(0, 3)) == 0:
            params = dict(data.draw(st.permutations(list(params.items()))))
        records.append((name, params))
    loads_as_built_alone(records)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_built_kind_does_not_answer_for_an_equal_twin(data):
    # params a kind accepts, then the same params with one value, or one kernel
    # element, swapped for an ==-equal value of another type
    name = data.draw(st.sampled_from(["conv", "pool", "tconv", "linear"]))
    params = {param: data.draw(st.sampled_from(good))
              for param, good in GOOD_PARAMS[name].items()}
    param = data.draw(st.sampled_from(sorted(p for p, value in params.items() if twins(value))))
    twin = {**params, param: data.draw(st.sampled_from(twins(params[param])))}
    loads_as_built_alone([(name, params), (name, twin)])


# one loadable graph, and one failure of each stage: parse, node record, shape pass
HARDNET = registry.build("hardnet39ds").to_json()
LOADS = {
    "loads": (HARDNET, None, None),
    "loads at input_hw": (HARDNET, (64, 96), None),
    "malformed JSON": ("{nope", None, "malformed"),
    "bad node record": (HARDNET.replace('"id": 1,', '"id": "1",', 1), None, "integer id"),
    "shape error at input_hw": (HARDNET, (8, 8), "output shape would be"),
}


@pytest.fixture
def collector():
    """The cyclic collector's state, restored after the test."""
    was = gc.isenabled()
    yield
    (gc.enable if was else gc.disable)()


class TestCollectorState:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("case", LOADS)
    def test_from_json_leaves_the_collector_as_it_found_it(self, collector, case, enabled):
        text, input_hw, error = LOADS[case]
        (gc.enable if enabled else gc.disable)()
        if error is None:
            ArchGraph.from_json(text, input_hw)
        else:
            with pytest.raises(GraphError, match=error):
                ArchGraph.from_json(text, input_hw)
        assert gc.isenabled() is enabled

    def test_collector_is_paused_over_the_shape_pass(self, collector, monkeypatch):
        seen, rule = [], graph_ir._rule
        monkeypatch.setattr(graph_ir, "_rule", lambda *a: seen.append(gc.isenabled()) or rule(*a))
        gc.enable()
        ArchGraph.from_json(HARDNET)
        assert seen and not any(seen) and gc.isenabled()
