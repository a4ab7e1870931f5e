import copy
import json
import pickle
import re

import pytest
from hypothesis import given, strategies as st

import hardgraph
from hardgraph.graph_ir import (Add, ArchGraph, Concat, Conv, GlobalPool, GraphError,
                                Input, Linear, Node, Pool, TensorShape, TransposedConv,
                                to_dot)
from hardgraph.registry import MODEL_NAMES, default_input


def chain_graph(shape=TensorShape(3, 16, 16)):
    g = ArchGraph(name="chain", input_shape=shape)
    i = g.add(Input(), [])
    c = g.add(Conv(64), [i])
    return g, i, c


class TestConstruction:
    def test_first_node_gets_id_zero(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        assert g.add(Input(), []) == 0

    def test_chain_append(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        i = g.add(Input(), [])
        assert g.add(Conv(64), [i]) == 1

    def test_concat_arity(self):
        g, i, c = chain_graph()
        with pytest.raises(GraphError, match="Concat requires"):
            g.add(Concat(), [c])

    def test_unknown_input_id(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        g.add(Input(), [])
        with pytest.raises(GraphError, match="unknown input id"):
            g.add(Conv(8), [5])

    def test_single_input_node(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        g.add(Input(), [])
        with pytest.raises(GraphError):
            g.add(Input(), [])

    def test_input_node_takes_no_inputs(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        with pytest.raises(GraphError) as err:
            g.add(Input(), [0])
        assert str(err.value) == "node 0: Input node takes no inputs" and g.kinds == g.shapes == []

    def test_non_input_needs_inputs(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        g.add(Input(), [])
        with pytest.raises(GraphError):
            g.add(Conv(8), [])

    def test_groups_must_divide_out_channels(self):
        with pytest.raises(GraphError):
            Conv(10, groups=3)

    def test_input_shape_is_required(self):
        # every graph is shaped: no graph, and so no node, is without a shape
        with pytest.raises(TypeError):
            ArchGraph()
        with pytest.raises(TypeError):
            ArchGraph("g")
        g = ArchGraph(input_shape=None)
        with pytest.raises(GraphError, match=r"^input_shape must be a TensorShape, got None$"):
            g.add(Input(), [])
        assert g.kinds == g.shapes == []

    def test_constructor_takes_no_nodes(self):
        # add and from_json are the only ways in; input_shape is keyword-only,
        # so an old positional ArchGraph(name, nodes) does not set it
        shape = TensorShape(3, 8, 8)  # so that only the nodes can be refused
        with pytest.raises(TypeError):
            ArchGraph(nodes=[Node(0, Input(), ())], input_shape=shape)
        with pytest.raises(TypeError):
            ArchGraph("g", [Node(0, Input(), ())], input_shape=shape)


ONE_RULE_KINDS = {"input": Input(), "conv": Conv(4), "concat": Concat()}
# each a node sequence in id order, (kind, inputs, label) per node, and the error it gives
ONE_RULE_CASES = {
    "Input first": ([("input", [], None), ("conv", [0], None)], None),
    "an Input second": ([("conv", [1], None), ("input", [], None)],
                        "node 0: unknown input id 1"),
    "two Inputs": ([("input", [], None), ("input", [], None)],
                   "node 1: only node 0 can be the Input"),
    "a conv first": ([("conv", [], None), ("input", [], None)],
                     "node 0: conv node requires >= 1 input"),
    "a one-input concat": ([("input", [], None), ("conv", [0], None), ("concat", [1], None)],
                           "node 2: Concat requires >= 2 inputs"),
    "a forward input": ([("input", [], None), ("conv", [2], None), ("conv", [0], None)],
                        "node 1: unknown input id 2"),
    "a self input": ([("input", [], None), ("conv", [1], None)], "node 1: unknown input id 1"),
    "a NUL label": ([("input", [], None), ("conv", [0], "a\0b")],
                    "node 1: label must be a NUL-free string, got 'a\\x00b'"),
}


class TestNodeRule:
    """``add`` and ``from_json`` check each node with one rule: its kind, then its links, then
    its label."""

    @pytest.mark.parametrize("kind", ["conv", None, Node(1, Conv(4), (0,))],
                             ids=["str", "None", "Node"])
    @pytest.mark.parametrize("inputs", [[], [0]], ids=["no inputs", "one input"])
    def test_a_non_kind_is_an_unknown_kind(self, kind, inputs):
        g, _, _ = chain_graph()
        before = g.to_json()
        with pytest.raises(GraphError) as err:
            g.add(kind, inputs)
        assert str(err.value) == f"node 2: unknown kind {kind!r}"
        assert g.to_json() == before and len(g.classes) == len(g.shapes) == 2

    @pytest.mark.parametrize("label", [7, "a\0b"], ids=["int", "NUL"])
    def test_add_refuses_a_label_with_the_line_from_json_gives(self, label):
        g, _, c = chain_graph()
        with pytest.raises(GraphError) as added:
            g.add(Conv(4), [c], label=label)
        assert len(g.kinds) == len(g.labels) == 2
        doc = json.loads(g.to_json())
        doc["nodes"].append({"id": 2, "kind": "conv", "params": {"out_channels": 4},
                             "inputs": [1], "label": label})
        with pytest.raises(GraphError) as loaded:
            ArchGraph.from_json(json.dumps(doc))
        assert str(added.value) == str(loaded.value) == (
            f"node 2: label must be a NUL-free string, got {label!r}")

    def test_links_are_checked_before_the_label(self):
        # so that a record with a bad input and a bad label gives the line it gave before
        g, _, _ = chain_graph()
        with pytest.raises(GraphError, match=r"^node 2: unknown input id 7$"):
            g.add(Conv(4), [7], label=7)
        doc = json.loads(g.to_json())
        doc["nodes"].append({"id": 2, "kind": "conv", "params": {"out_channels": 4},
                             "inputs": [7], "label": 7})
        with pytest.raises(GraphError, match=r"^node 2: unknown input id 7$"):
            ArchGraph.from_json(json.dumps(doc))

    @given(st.one_of(st.none(), st.text(), st.integers(), st.binary()))
    def test_every_label_add_accepts_survives_a_round_trip(self, label):
        g, _, c = chain_graph()
        try:
            g.add(Conv(4), [c], label=label)
        except GraphError:
            assert type(label) is not str or "\0" in label
            return
        assert ArchGraph.from_json(g.to_json()).labels == [None, None, label or None]

    @pytest.mark.parametrize("case", ONE_RULE_CASES)
    def test_add_and_from_json_give_one_verdict(self, case):
        # the Input rule reads the node id alone, so a load's record order cannot change it
        nodes, message = ONE_RULE_CASES[case]
        records = [{"id": nid, "kind": kind, "inputs": inputs, "label": label,
                    "params": {"out_channels": 4} if kind == "conv" else {}}
                   for nid, (kind, inputs, label) in enumerate(nodes)]

        def verdict(make):
            try:
                make()
            except GraphError as e:
                return str(e)

        def added():
            g = ArchGraph(input_shape=TensorShape(3, 8, 8))
            for kind, inputs, label in nodes:
                g.add(ONE_RULE_KINDS[kind], inputs, label)

        loaded = lambda records: lambda: ArchGraph.from_json(
            json.dumps({"input": [3, 8, 8], "nodes": records}))
        assert verdict(added) == verdict(loaded(records)) == message
        reversed_verdict = verdict(loaded(records[::-1]))
        assert (reversed_verdict is None) == (message is None)
        assert reversed_verdict is None or reversed_verdict.startswith("node ")


class TestShapeInference:
    def test_same_padding_conv(self):
        g, i, c = chain_graph(TensorShape(3, 224, 224))
        assert g.shapes[c] == TensorShape(64, 224, 224)

    def test_pool_halving(self):
        g, i, c = chain_graph(TensorShape(3, 224, 224))
        p = g.add(Pool("max"), [c])
        assert g.shapes[p] == TensorShape(64, 112, 112)

    def test_concat_channel_sum(self):
        g = ArchGraph(input_shape=TensorShape(3, 56, 56))
        i = g.add(Input(), [])
        a = g.add(Conv(16), [i])
        b = g.add(Conv(24), [i])
        cat = g.add(Concat(), [a, b])
        assert g.shapes[cat] == TensorShape(40, 56, 56)

    def test_strided_conv(self):
        g = ArchGraph(input_shape=TensorShape(3, 224, 224))
        i = g.add(Input(), [])
        c = g.add(Conv(64, kernel_h=7, kernel_w=7, stride=2), [i])
        assert g.shapes[c] == TensorShape(64, 112, 112)

    def test_transposed_conv_upsamples(self):
        g, i, c = chain_graph(TensorShape(3, 56, 56))
        t = g.add(TransposedConv(32), [c])
        assert g.shapes[t] == TensorShape(32, 112, 112)

    def test_global_pool_and_linear(self):
        g, i, c = chain_graph(TensorShape(3, 224, 224))
        p = g.add(GlobalPool(), [c])
        f = g.add(Linear(1000), [p])
        assert g.shapes[p] == TensorShape(64, 1, 1)
        assert g.shapes[f] == TensorShape(1000, 1, 1)

    def test_concat_spatial_mismatch(self):
        g = ArchGraph(input_shape=TensorShape(3, 56, 56))
        i = g.add(Input(), [])
        a = g.add(Conv(16), [i])
        b = g.add(Conv(16, stride=2), [i])
        with pytest.raises(GraphError, match="spatial"):
            g.add(Concat(), [a, b])
        assert len(g.shapes) == len(g.kinds) == 3

    def test_add_requires_matching_shapes(self):
        g = ArchGraph(input_shape=TensorShape(3, 56, 56))
        i = g.add(Input(), [])
        a = g.add(Conv(16), [i])
        b = g.add(Conv(32), [i])
        with pytest.raises(GraphError):
            g.add(Add(), [a, b])
        assert len(g.shapes) == len(g.kinds) == 3

    def test_inference_deterministic(self):
        g, i, c = chain_graph(TensorShape(3, 64, 64))
        first = list(g.shapes)
        g.infer_shapes(TensorShape(3, 64, 64))
        assert g.shapes == first
        g.infer_shapes(TensorShape(3, 64, 64))
        assert g.shapes == first


class TestSchedule:
    def test_linear_chain(self):
        g, i, c = chain_graph()
        c2 = g.add(Conv(8), [c])
        assert g.schedule() == [0, 1, 2]

    def test_diamond_tie_break(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        i = g.add(Input(), [])
        a = g.add(Conv(8), [i])
        b = g.add(Conv(8), [i])
        cat = g.add(Concat(), [a, b])
        assert g.schedule() == [0, 1, 2, 3]

    def test_single_input(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        g.add(Input(), [])
        assert g.schedule() == [0]

    def test_every_node_after_its_inputs(self):
        import hardgraph
        g = hardgraph.build("hardnet68")
        order = g.schedule()
        pos = {nid: k for k, nid in enumerate(order)}
        for n in g.nodes:
            assert all(pos[i] < pos[n.id] for i in n.inputs)


@given(st.lists(st.integers(min_value=1, max_value=64), min_size=2, max_size=6),
       st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=32))
def test_concat_element_count_is_sum(channels, h, w):
    g = ArchGraph(input_shape=TensorShape(3, h, w))
    i = g.add(Input(), [])
    convs = [g.add(Conv(c, kernel_h=1, kernel_w=1), [i]) for c in channels]
    cat = g.add(Concat(), convs)
    assert g.shapes[cat].element_count == sum(g.shapes[c].element_count for c in convs)


class TestSerialization:
    def test_round_trip(self):
        import hardgraph
        g = hardgraph.build("hardnet39ds")
        g2 = ArchGraph.from_json(g.to_json())
        assert g2.to_json() == g.to_json()
        assert g2.shapes == g.shapes

    def test_malformed_json(self):
        with pytest.raises(GraphError, match="malformed"):
            ArchGraph.from_json("{nope")

    def test_dot_has_one_entry_per_node(self):
        g, i, c = chain_graph()
        g.infer_shapes(TensorShape(3, 8, 8))
        dot = to_dot(g)
        assert dot.count("[label=") == len(g.nodes)
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")


# a quoted DOT ID: characters other than " and \, or a backslash and the character after it
QUOTED = r'"((?:[^"\\]|\\.)*)"'


def dot_text(quoted: str) -> str:
    """A quoted DOT ID's text: a backslash pair reads as its second character, \n as a newline."""
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], quoted)


@pytest.mark.parametrize("name, label", [('a"b\\', 'a"b\\'), ("g\\", '"'), ("plain", "l\\n")])
def test_dot_escapes_quotes_and_backslashes(name, label):
    doc = small_graph_doc()
    doc["name"], node(doc, 1)["label"] = name, label
    lines = to_dot(ArchGraph.from_json(json.dumps(doc))).splitlines()
    head = re.fullmatch(r"digraph %s \{" % QUOTED, lines[0])
    assert head and dot_text(head[1]) == name
    nodes = [re.fullmatch(r"  n\d+ \[label=%s\];" % QUOTED, line) for line in lines[2:6]]
    assert [dot_text(m[1]) for m in nodes] == [
        "0: input\n3x16x16", f"1: {label}\n8x16x16", "2: b\n8x16x16", "3: cat\n16x16x16"]


def small_graph_doc() -> dict:
    g = ArchGraph(name="small", input_shape=TensorShape(3, 16, 16))
    i = g.add(Input(), [])
    a = g.add(Conv(8), [i], label="a")
    b = g.add(Conv(8), [i], label="b")
    g.add(Concat(), [a, b], label="cat")
    return json.loads(g.to_json())


def with_change(change) -> str:
    """``change`` edits the document in place, or returns a list to replace it."""
    doc = small_graph_doc()
    replaced = change(doc)
    return json.dumps(replaced if isinstance(replaced, list) else doc)


def node(doc, nid):
    return doc["nodes"][nid]


# each is a malformed graph file and a word its one-line error must contain
MALFORMED = {
    "top-level list": (lambda d: [d], "object"),
    "string id": (lambda d: node(d, 1).update(id="1"), "integer id"),
    "bool id": (lambda d: node(d, 1).update(id=True), "integer id"),
    "duplicate id": (lambda d: node(d, 2).update(id=1), "contiguous"),
    "id out of range": (lambda d: node(d, 3).update(id=4), "node id 4 is outside 0..3"),
    "node not an object": (lambda d: d["nodes"].append(7), "integer id"),
    "nodes not a list": (lambda d: d.update(nodes={"0": {}}), "nodes"),
    "string inputs": (lambda d: node(d, 1).update(inputs="0"), "inputs"),
    "string input id": (lambda d: node(d, 1).update(inputs=["0"]), "input id"),
    "bool input id": (lambda d: node(d, 3).update(inputs=[True, 2]), "input id"),
    "scalar kernel": (lambda d: node(d, 1)["params"].update(kernel=3), "kernel"),
    "string out_channels": (lambda d: node(d, 1)["params"].update(out_channels="8"),
                            "out_channels"),
    "bool out_channels": (lambda d: node(d, 1)["params"].update(out_channels=True),
                          "out_channels"),
    "float stride": (lambda d: node(d, 1)["params"].update(stride=1.0), "stride"),
    "missing out_channels": (lambda d: node(d, 1)["params"].pop("out_channels"),
                             "out_channels"),
    "unknown param": (lambda d: node(d, 1)["params"].update(kernal=[1, 1]), "kernal"),
    "list out_channels": (lambda d: node(d, 1)["params"].update(out_channels=[8]),
                          "out_channels"),
    "nested kernel": (lambda d: node(d, 1)["params"].update(kernel=[[1], 3]), "kernel_h"),
    "string bias": (lambda d: node(d, 1)["params"].update(bias="no"), "bias"),
    "params not an object": (lambda d: node(d, 3).update(params=[]), "params"),
    "unknown kind": (lambda d: node(d, 1).update(kind="deconv"), "deconv"),
    "list kind": (lambda d: node(d, 1).update(kind=["conv"]), "kind"),
    "number label": (lambda d: node(d, 1).update(label=5), "label"),
    "NUL label": (lambda d: node(d, 2).update(label="b\0"), "node 2: label must be a NUL-free"),
    "bool input channels": (lambda d: d.update(input=[True, 16, 16]), "channels"),
    "short input": (lambda d: d.update(input=[3, 16]), "input"),
    "string name": (lambda d: d.update(name=["x"]), "name"),
}


class TestFromJsonChecks:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_is_graph_error(self, case):
        change, word = MALFORMED[case]
        with pytest.raises(GraphError, match=word) as err:
            ArchGraph.from_json(with_change(change))
        assert "\n" not in str(err.value)

    def test_bool_after_equal_int_is_still_rejected(self):
        # kinds are interned by their params; True == 1 must not share a key
        def change(d):
            node(d, 1)["params"].update(out_channels=1)
            node(d, 2)["params"].update(out_channels=True)
        with pytest.raises(GraphError, match="out_channels"):
            ArchGraph.from_json(with_change(change))

    @pytest.mark.parametrize("first, then, word", [
        ({"kernel": [1, 3]}, {"kernel": [True, 3]}, "kernel_h"),
        ({"kernel": [1, 3]}, {"kernel": [1.0, 3]}, "kernel_h"),
        ({"kernel": [3, 1]}, {"kernel": [3, True]}, "kernel_w"),
        ({"out_channels": 1}, {"out_channels": 1.0}, "out_channels"),
        ({"out_channels": 2 ** 64}, {"out_channels": 2.0 ** 64}, "out_channels"),
        ({"bias": False}, {"bias": -0.0}, "bias"),
    ], ids=["bool kernel", "float kernel", "bool kernel_w", "float out_channels",
            "float big out_channels", "negative zero bias"])
    def test_typed_value_after_equal_one_is_still_rejected(self, first, then, word):
        # true == 1 == 1.0, so the interning key must keep each value's type,
        # also for the elements of a kernel list
        def change(d):
            node(d, 1)["params"].update(first)
            node(d, 2)["params"].update(then)
        with pytest.raises(GraphError, match=word) as err:
            ArchGraph.from_json(with_change(change))
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("change, message", [
        (lambda d: node(d, 2).update(id=1), "node id 1 repeats: node ids must be contiguous from 0"),
        (lambda d: node(d, 0).update(id=-1),
         "node id -1 is outside 0..3: node ids must be contiguous from 0"),
    ], ids=["repeats", "negative"])
    def test_node_id_error_names_the_id(self, change, message):
        with pytest.raises(GraphError) as err:
            ArchGraph.from_json(with_change(change))
        assert str(err.value) == message

    def test_equal_kinds_are_shared(self):
        g = ArchGraph.from_json(with_change(lambda d: None))
        assert g.nodes[1].kind is g.nodes[2].kind
        assert g.shapes[1] is g.shapes[2]

    def test_node_order_does_not_matter(self):
        g = ArchGraph.from_json(with_change(lambda d: d["nodes"].reverse()))
        assert [n.id for n in g.nodes] == [0, 1, 2, 3]
        assert g.shapes[3] == TensorShape(16, 16, 16)

    def test_defaults_fill_absent_params(self):
        g = ArchGraph.from_json(with_change(lambda d: node(d, 1).update(
            params={"out_channels": 8})))
        assert g.nodes[1].kind == Conv(8)

    @pytest.mark.parametrize("make", [
        lambda: TensorShape(True, 1, 1), lambda: TensorShape(3, 2.0, 2),
        lambda: Conv(True), lambda: Conv(8, stride=True), lambda: Conv(8, bias=1),
        lambda: Pool("max", kernel=True), lambda: TransposedConv(8, stride=2.0),
        lambda: Linear(True),
    ])
    def test_kinds_and_shapes_reject_bools_and_floats(self, make):
        with pytest.raises(GraphError, match="must be"):
            make()


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_catalog_round_trip(name):
    g = hardgraph.build(name)
    g2 = ArchGraph.from_json(g.to_json())
    assert g2.name == g.name and g2.input_shape == g.input_shape
    assert g2.nodes == g.nodes
    assert g2.shapes == g.shapes and len(g2.shapes) == len(g2.kinds)


def counting_rules(monkeypatch) -> dict:
    """Wrap every shape rule; returns the live kind -> call count table.  Each rule
    is checked to read one shape, the one ``graph_ir._read`` gives."""
    from hardgraph import graph_ir
    calls = {}
    for kind, rule in list(graph_ir._SHAPE_RULES.items()):
        def counted(k, s, rule=rule, kind=kind):
            assert type(s) is TensorShape, (kind, s)
            calls[kind] = calls.get(kind, 0) + 1
            return rule(k, s)
        monkeypatch.setitem(graph_ir._SHAPE_RULES, kind, counted)
    return calls


def kind_counts(g) -> dict:
    counts = {}
    for n in g.nodes:
        if type(n.kind) is not Input:
            counts[type(n.kind)] = counts.get(type(n.kind), 0) + 1
    return counts


def class_kind_counts(g) -> dict:
    """kind_counts over the first node of each class."""
    counts = {}
    for nid in g.class_first:
        kind = type(g.kinds[nid])
        if kind is not Input:
            counts[kind] = counts.get(kind, 0) + 1
    return counts


def run_builder(name, shape=None):
    """Build a catalog model through its builder, as ``hardgraph.build`` does first;
    at the model's default input if ``shape`` is None."""
    from hardgraph import harmonic, references
    builder = (harmonic.build_model if name in harmonic._BUILDERS
               else references.build_reference)
    return builder(name, default_input(name) if shape is None else shape)


class TestShapesOnAppend:
    @pytest.mark.parametrize("shape", [None, TensorShape(3, 256, 320)])
    def test_each_rule_runs_once_per_node_in_catalog_builds(self, monkeypatch, shape):
        calls = counting_rules(monkeypatch)
        monkeypatch.setattr(ArchGraph, "infer_shapes", None)  # builders never call it
        for name in MODEL_NAMES:
            calls.clear()
            g = run_builder(name, shape)
            assert calls == kind_counts(g), name
            assert len(g.shapes) == len(g.kinds)

    @pytest.mark.parametrize("shape", [None, TensorShape(3, 256, 320)])
    def test_each_rule_runs_once_per_class_in_repeat_builds(self, monkeypatch, shape):
        from hardgraph import harmonic, references
        for name in MODEL_NAMES:
            hardgraph.build(name)  # the first build in this process, if no test made it
        calls = counting_rules(monkeypatch)

        def no_builder(*args):
            raise AssertionError("a repeat build ran a builder")
        monkeypatch.setattr(harmonic, "build_model", no_builder)
        monkeypatch.setattr(references, "build_reference", no_builder)
        for name in MODEL_NAMES:
            calls.clear()
            g = hardgraph.build(name, shape)
            assert calls == class_kind_counts(g), name
            assert len(g.shapes) == len(g.kinds)

    def test_each_rule_runs_once_per_node_in_bare_hdb(self, monkeypatch):
        from hardgraph.harmonic import HDBSpec, build_bare_hdb
        calls = counting_rules(monkeypatch)
        g, _ = build_bare_hdb(HDBSpec(64, 16, 1.7), TensorShape(32, 28, 28))
        assert calls == kind_counts(g)
        assert len(g.shapes) == len(g.nodes)

    @pytest.mark.parametrize("shape", [None, TensorShape(3, 256, 320)])
    def test_repeat_build_makes_no_tensor_shape(self, monkeypatch, shape):
        for name in MODEL_NAMES:
            hardgraph.build(name, shape)  # the first build at this input in this process
        made, init = [], TensorShape.__init__

        def counted(self, *fields):
            made.append(fields)
            init(self, *fields)
        monkeypatch.setattr(TensorShape, "__init__", counted)
        for name in MODEL_NAMES:
            hardgraph.build(name, shape)
        assert made == []

    def test_equal_shapes_in_two_graphs_are_one_object(self):
        hardnet, densenet = hardgraph.build("hardnet68"), hardgraph.build("densenet121")
        loaded = ArchGraph.from_json(hardnet.to_json())
        assert hardnet.shapes[-1] == densenet.shapes[-1] == TensorShape(1000, 1, 1)
        assert hardnet.shapes[-1] is densenet.shapes[-1] is loaded.shapes[-1]
        # graphs made by hand, from input shapes that are equal but not one object
        (a, _, _), (b, _, _) = (chain_graph(TensorShape(3, 16, 16)) for _ in range(2))
        assert a.shapes[0] is not b.shapes[0] and a.shapes[-1] is b.shapes[-1]

    def test_node_added_after_shapes_has_its_shape(self):
        from hardgraph.metrics import model_summary
        g = hardgraph.build("hardnet39ds")
        before = model_summary(g)
        fc = g.add(Linear(10), [len(g.nodes) - 1], label="extra")
        assert g.shapes[fc] == TensorShape(10, 1, 1)
        after = model_summary(g)
        assert after.params == before.params + 1000 * 10 + 10  # weights + bias

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_reshaping_equals_building_at_that_input(self, name):
        shape = TensorShape(3, 256, 320)
        g = hardgraph.build(name)
        g.infer_shapes(shape)
        built = hardgraph.build(name, shape)
        assert g.input_shape == shape and g.shapes == built.shapes

    def test_failed_reshape_leaves_the_graph_as_it_was(self, monkeypatch):
        from hardgraph import graph_ir
        g = hardgraph.build("hardnet68")
        names = ("input_shape", "shapes", "classes", "class_first")
        before = {name: getattr(g, name) for name in names}
        contents = {name: copy.copy(value) for name, value in before.items()}

        def fails(k, s):
            raise ZeroDivisionError("a rule fails mid-pass")
        # a conv refuses a too-small input (a GraphError); a concat's rule raises any other
        # exception, once the nodes before the first concat are shaped
        for error, shape in [(GraphError, TensorShape(3, 16, 16)),
                             (ZeroDivisionError, TensorShape(3, 256, 320))]:
            with monkeypatch.context() as patch:
                if error is ZeroDivisionError:
                    patch.setitem(graph_ir._SHAPE_RULES, Concat, fails)
                with pytest.raises(error):
                    g.infer_shapes(shape)
            for name in names:
                assert getattr(g, name) is before[name] and before[name] == contents[name], name
        assert g.input_shape == TensorShape(3, 224, 224) and len(g.shapes) == len(g.kinds)
        g.add(Linear(10), [len(g.nodes) - 1])

    def test_equal_shapes_are_shared(self):
        g = hardgraph.build("hardnet68")
        distinct = {id(s) for s in g.shapes}
        assert len(distinct) == len(set(g.shapes))

    def test_append_after_input_shape_set_by_hand(self):
        # every node keeps the shape it was given: an append reads its inputs' shapes,
        # and only infer_shapes re-shapes the graph at a new input
        g, i, c = chain_graph(TensorShape(3, 16, 16))
        g.input_shape = TensorShape(3, 8, 8)
        p = g.add(Pool("max"), [c], label="down")
        assert g.shapes[p] == TensorShape(64, 8, 8) and len(g.shapes) == 3
        g.infer_shapes(g.input_shape)
        assert g.shapes[p] == TensorShape(64, 4, 4)
        g.input_shape = None
        with pytest.raises(GraphError, match=r"^input_shape must be a TensorShape, got None$"):
            g.infer_shapes(None)
        assert g.shapes[p] == TensorShape(64, 4, 4) and g.input_shape is None

    def test_failed_append_adds_nothing(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        i = g.add(Input(), [])
        a = g.add(Conv(8, stride=2), [i])
        with pytest.raises(GraphError):
            g.add(Concat(), [i, a])
        assert len(g.nodes) == len(g.shapes) == 2


class TestShapeErrorsNameTheNode:
    def test_concat_names_label_and_both_shapes(self):
        with pytest.raises(GraphError) as err:
            hardgraph.build("fc-hardnet84", TensorShape(3, 225, 225))
        msg = str(err.value)
        assert msg.startswith("concat 133 (up0/skip): inputs disagree on spatial size")
        assert "58x224x224, 80x225x225" in msg

    def test_empty_output_names_the_shrinking_layer(self):
        with pytest.raises(GraphError) as err:
            hardgraph.build("hardnet68", TensorShape(3, 16, 16))
        assert str(err.value) == ("pool 98 (down3): output shape would be 640x0x0; "
                                  "input shapes 640x1x1")

    def test_unlabelled_node_is_named_by_kind_and_id(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        i = g.add(Input(), [])
        a = g.add(Conv(16), [i])
        b = g.add(Conv(32), [i])
        with pytest.raises(GraphError, match=r"^add 3: inputs must share one shape; "
                                             r"input shapes 16x8x8, 32x8x8$"):
            g.add(Add(), [a, b])

    @pytest.mark.parametrize("fields,name", [
        ((0, 1, 1), "channels"), ((1, -1, 1), "height"), ((True, 1, 1), "channels"),
        ((1, 1, 2.0), "width"), (("3", 1, 1), "channels"), ((1, 1, None), "width"),
        ((1, 0, "x"), "height")])
    def test_bad_shape_field_is_named(self, fields, name):
        value = fields[("channels", "height", "width").index(name)]
        with pytest.raises(GraphError) as err:
            TensorShape(*fields)
        assert str(err.value) == f"TensorShape.{name} must be a positive integer, got {value!r}"

    def test_a_repeated_class_names_its_first_node(self):
        g = ArchGraph(input_shape=TensorShape(8, 2, 2))
        i = g.add(Input(), [])
        pool = Pool("max")
        for label in ("p1", "p2", "p3"):
            g.add(pool, [i], label=label)
        for _ in range(2):
            with pytest.raises(GraphError, match=r"^pool 1 \(p1\): output shape would be "
                                                 r"8x0x0; input shapes 8x1x1$"):
                g.infer_shapes(TensorShape(8, 1, 1))
        assert g.infer_shapes(TensorShape(8, 2, 2)).classes == [0, 1, 1, 1]
        for _ in range(2):  # a first build or a repeat one, through the class-grouped pass
            with pytest.raises(GraphError) as err:
                hardgraph.build("hardnet68", TensorShape(3, 16, 16))
            assert str(err.value) == ("pool 98 (down3): output shape would be 640x0x0; "
                                      "input shapes 640x1x1")

    def test_from_json_errors_name_the_node_too(self):
        doc = small_graph_doc()
        node(doc, 1)["params"]["stride"] = 2
        with pytest.raises(GraphError, match=r"^concat 3 \(cat\): inputs disagree on "
                                             r"spatial size; input shapes 8x8x8, 8x16x16$"):
            ArchGraph.from_json(json.dumps(doc))


MIXED_GRID_KINDS = {"pool": (Pool("max"), {"mode": "max"}),
                    "tconv": (TransposedConv(8), {"out_channels": 8}),
                    "linear": (Linear(10), {"out_features": 10})}


def mixed_grid_doc(kind) -> dict:
    """Node 3, a ``kind``, reads a 4x8x8 conv output and a 4x4x4 pool of it."""
    return {"name": "reads", "input": [4, 8, 8], "nodes": [
        {"id": 0, "kind": "input", "inputs": []},
        {"id": 1, "kind": "conv", "params": {"out_channels": 4}, "inputs": [0]},
        {"id": 2, "kind": "pool", "params": {"mode": "max"}, "inputs": [1]},
        {"id": 3, "kind": kind, "params": MIXED_GRID_KINDS[kind][1], "inputs": [1, 2]}]}


class TestMultiInputReads:
    """Every kind but add reads the channel concatenation of its inputs, on their one grid."""

    def test_pools_read_every_input_channel(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        i = g.add(Input(), [])
        a, b = g.add(Conv(4), [i]), g.add(Conv(6), [i])
        assert g.shapes[g.add(Pool("max"), [a, b])] == TensorShape(10, 4, 4)
        assert g.shapes[g.add(GlobalPool(), [a, b])] == TensorShape(10, 1, 1)
        assert g.shapes[g.add(Pool("avg"), [a, b, a])] == TensorShape(14, 4, 4)
        with pytest.raises(GraphError, match="inputs must share one shape"):
            g.add(Add(), [a, b])  # an add sums its inputs: they must be equal

    @pytest.mark.parametrize("kind", MIXED_GRID_KINDS)
    def test_inputs_on_different_grids_are_an_error(self, kind):
        expected = f"{kind} 3: inputs disagree on spatial size; input shapes 4x8x8, 4x4x4"
        g = ArchGraph(input_shape=TensorShape(4, 8, 8))
        c = g.add(Conv(4), [g.add(Input(), [])])
        p = g.add(Pool("max"), [c])
        with pytest.raises(GraphError) as err:
            g.add(MIXED_GRID_KINDS[kind][0], [c, p])
        assert str(err.value) == expected and len(g.kinds) == 3
        with pytest.raises(GraphError) as err:
            ArchGraph.from_json(json.dumps(mixed_grid_doc(kind)))
        assert str(err.value) == expected

    def test_conv_and_concat_reject_mixed_grids_alike(self):
        messages = []
        for kind in (Conv(8), Concat()):
            g = ArchGraph(input_shape=TensorShape(3, 8, 8))
            i = g.add(Input(), [])
            a, b = g.add(Conv(16), [i]), g.add(Conv(16, stride=2), [i])
            with pytest.raises(GraphError) as err:
                g.add(kind, [a, b])
            messages.append(str(err.value).split(": ", 1))
        assert [name for name, _ in messages] == ["conv 3", "concat 3"]
        assert messages[0][1] == messages[1][1] == (
            "inputs disagree on spatial size; input shapes 16x8x8, 16x4x4")


class TestFromJsonInputSize:
    def test_one_shape_pass_at_the_given_size(self, monkeypatch):
        text = hardgraph.build("hardnet68").to_json()
        calls = counting_rules(monkeypatch)
        g = ArchGraph.from_json(text, (256, 256))
        assert calls == class_kind_counts(g)  # each class's shape rule ran once
        assert sum(calls.values()) < sum(kind_counts(g).values())
        assert g.input_shape == TensorShape(3, 256, 256)
        assert g.shapes == hardgraph.build("hardnet68", TensorShape(3, 256, 256)).shapes

    def test_size_keeps_stored_channels(self):
        doc = small_graph_doc()
        doc["input"] = [5, 16, 16]
        g = ArchGraph.from_json(json.dumps(doc), (8, 4))
        assert g.input_shape == TensorShape(5, 8, 4)

    def test_empty_graph_with_an_input_is_rejected(self):
        text = json.dumps({"name": "empty", "input": [3, 8, 8], "nodes": []})
        with pytest.raises(GraphError, match=r"^graph must have exactly one Input node, found 0$"):
            ArchGraph.from_json(text)
        with pytest.raises(GraphError, match=r"^graph JSON has no input shape; pass --input HxW$"):
            ArchGraph.from_json(json.dumps({"input": None, "nodes": []}))
        with pytest.raises(GraphError, match=r"^graph must have exactly one Input node, found 0$"):
            ArchGraph.from_json(json.dumps({"input": None, "nodes": []}), (8, 8))

    def test_size_for_a_file_without_input(self):
        for absent in (lambda d: d.update(input=None), lambda d: d.pop("input")):
            doc = small_graph_doc()
            absent(doc)
            with pytest.raises(GraphError) as err:
                ArchGraph.from_json(json.dumps(doc))
            assert str(err.value) == "graph JSON has no input shape; pass --input HxW"
            g = ArchGraph.from_json(json.dumps(doc), (8, 4))
            assert g.input_shape == TensorShape(3, 8, 4) and len(g.shapes) == len(g.kinds) == 4


# each kind that takes params, the param it cannot do without, and a valid value
REQUIRED_PARAMS = {"conv": ("out_channels", 8), "pool": ("mode", "max"),
                   "tconv": ("out_channels", 8), "linear": ("out_features", 8)}


def one_kind_doc(kind, params) -> str:
    return json.dumps({"name": "g", "input": [3, 8, 8], "nodes": [
        {"id": 0, "kind": "input", "params": {}, "inputs": []},
        {"id": 1, "kind": kind, "params": params, "inputs": [0]}]})


class TestMissingParams:
    @pytest.mark.parametrize("kind", REQUIRED_PARAMS)
    def test_each_kind_names_its_required_param(self, kind):
        name = REQUIRED_PARAMS[kind][0]
        with pytest.raises(GraphError) as err:
            ArchGraph.from_json(one_kind_doc(kind, {}))
        assert str(err.value) == f"node 1: {kind} needs params [{name!r}]"

    @pytest.mark.parametrize("kind", REQUIRED_PARAMS)
    def test_the_required_param_alone_is_enough(self, kind):
        name, value = REQUIRED_PARAMS[kind]
        g = ArchGraph.from_json(one_kind_doc(kind, {name: value}))
        assert g.to_json() == ArchGraph.from_json(g.to_json()).to_json()

    @pytest.mark.parametrize("kind", ["global_pool", "add"])
    def test_kinds_without_params_take_none(self, kind):
        assert len(ArchGraph.from_json(one_kind_doc(kind, {})).nodes) == 2
        with pytest.raises(GraphError, match=f"unknown {kind} params \\['stride'\\]"):
            ArchGraph.from_json(one_kind_doc(kind, {"stride": 1}))


# one value of every kind, of TensorShape and of Node
VALUES = [Input(), Conv(8), Pool("max"), TransposedConv(8), Concat(), Add(), GlobalPool(),
          Linear(8), TensorShape(3, 8, 8), Node(1, Conv(8), (0,), "c")]


class TestValueTypes:
    def test_equal_fields_are_equal_values(self):
        assert Conv(8) == Conv(8) and hash(Conv(8)) == hash(Conv(8))
        assert Conv(8, kernel_h=1, kernel_w=1) == Conv(8, 1, 1)
        assert Pool("max") == Pool("max", 2, 2) and TensorShape(3, 8, 8) == TensorShape(3, 8, 8)
        assert Node(1, Conv(8), (0,)) == Node(1, Conv(8), (0,), None)
        assert len({Conv(8), Conv(8), Conv(16), Input(), Input()}) == 3

    def test_other_fields_or_types_are_unequal(self):
        assert Conv(8) != Conv(16) and Conv(8) != Conv(8, bias=True)
        assert Node(1, Conv(8), (0,)) != Node(1, Conv(8), (0,), "c")
        assert Linear(8) != (8,) and (8,) != Linear(8)
        assert Linear(8) != Pool("max", 8, 8) and Pool("max", 8, 8) != Linear(8)
        assert Concat() != Add() and Input() != GlobalPool()
        assert TensorShape(3, 8, 8) != (3, 8, 8)
        assert Node(1, Conv(8), (0,), None) != (1, Conv(8), (0,), None)

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_values_are_immutable(self, value):
        before = repr(value)
        for name in ("out_channels", "mode", "channels", "label", "kernel"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1)
        assert repr(value) == before and value == value

    @pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
    def test_values_copy_and_pickle(self, value):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert twin == value and type(twin) is type(value)

    def test_graphs_deep_copy(self):
        g = hardgraph.build("hardnet39ds")
        twin = copy.deepcopy(g)
        assert twin.to_json() == g.to_json() and twin.shapes == g.shapes
