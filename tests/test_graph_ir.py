import json

import pytest
from hypothesis import given, strategies as st

import hardgraph
from hardgraph.graph_ir import (Add, ArchGraph, Concat, Conv, GlobalPool, GraphError,
                                Input, Linear, Node, Pool, TensorShape, TransposedConv,
                                to_dot)
from hardgraph.registry import MODEL_NAMES


def chain_graph():
    g = ArchGraph(name="chain")
    i = g.add(Input(), [])
    c = g.add(Conv(64), [i])
    return g, i, c


class TestConstruction:
    def test_first_node_gets_id_zero(self):
        g = ArchGraph()
        assert g.add(Input(), []) == 0

    def test_chain_append(self):
        g = ArchGraph()
        i = g.add(Input(), [])
        assert g.add(Conv(64), [i]) == 1

    def test_concat_arity(self):
        g, i, c = chain_graph()
        with pytest.raises(GraphError, match="Concat requires"):
            g.add(Concat(), [c])

    def test_unknown_input_id(self):
        g = ArchGraph()
        g.add(Input(), [])
        with pytest.raises(GraphError, match="unknown input id"):
            g.add(Conv(8), [5])

    def test_single_input_node(self):
        g = ArchGraph()
        g.add(Input(), [])
        with pytest.raises(GraphError):
            g.add(Input(), [])

    def test_non_input_needs_inputs(self):
        g = ArchGraph()
        g.add(Input(), [])
        with pytest.raises(GraphError):
            g.add(Conv(8), [])

    def test_groups_must_divide_out_channels(self):
        with pytest.raises(GraphError):
            Conv(10, groups=3)


class TestShapeInference:
    def test_same_padding_conv(self):
        g, i, c = chain_graph()
        g.infer_shapes(TensorShape(3, 224, 224))
        assert g.shapes[c] == TensorShape(64, 224, 224)

    def test_pool_halving(self):
        g, i, c = chain_graph()
        p = g.add(Pool("max"), [c])
        g.infer_shapes(TensorShape(3, 224, 224))
        assert g.shapes[p] == TensorShape(64, 112, 112)

    def test_concat_channel_sum(self):
        g = ArchGraph()
        i = g.add(Input(), [])
        a = g.add(Conv(16), [i])
        b = g.add(Conv(24), [i])
        cat = g.add(Concat(), [a, b])
        g.infer_shapes(TensorShape(3, 56, 56))
        assert g.shapes[cat] == TensorShape(40, 56, 56)

    def test_strided_conv(self):
        g = ArchGraph()
        i = g.add(Input(), [])
        c = g.add(Conv(64, kernel_h=7, kernel_w=7, stride=2), [i])
        g.infer_shapes(TensorShape(3, 224, 224))
        assert g.shapes[c] == TensorShape(64, 112, 112)

    def test_transposed_conv_upsamples(self):
        g, i, c = chain_graph()
        t = g.add(TransposedConv(32), [c])
        g.infer_shapes(TensorShape(3, 56, 56))
        assert g.shapes[t] == TensorShape(32, 112, 112)

    def test_global_pool_and_linear(self):
        g, i, c = chain_graph()
        p = g.add(GlobalPool(), [c])
        f = g.add(Linear(1000), [p])
        g.infer_shapes(TensorShape(3, 224, 224))
        assert g.shapes[p] == TensorShape(64, 1, 1)
        assert g.shapes[f] == TensorShape(1000, 1, 1)

    def test_concat_spatial_mismatch(self):
        g = ArchGraph()
        i = g.add(Input(), [])
        a = g.add(Conv(16), [i])
        b = g.add(Conv(16, stride=2), [i])
        g.add(Concat(), [a, b])
        with pytest.raises(GraphError, match="spatial"):
            g.infer_shapes(TensorShape(3, 56, 56))

    def test_add_requires_matching_shapes(self):
        g = ArchGraph()
        i = g.add(Input(), [])
        a = g.add(Conv(16), [i])
        b = g.add(Conv(32), [i])
        g.add(Add(), [a, b])
        with pytest.raises(GraphError):
            g.infer_shapes(TensorShape(3, 56, 56))

    def test_inference_deterministic(self):
        g, i, c = chain_graph()
        g.infer_shapes(TensorShape(3, 64, 64))
        first = dict(g.shapes)
        g.infer_shapes(TensorShape(3, 64, 64))
        assert g.shapes == first


class TestSchedule:
    def test_linear_chain(self):
        g, i, c = chain_graph()
        c2 = g.add(Conv(8), [c])
        assert g.schedule() == [0, 1, 2]

    def test_diamond_tie_break(self):
        g = ArchGraph()
        i = g.add(Input(), [])
        a = g.add(Conv(8), [i])
        b = g.add(Conv(8), [i])
        cat = g.add(Concat(), [a, b])
        assert g.schedule() == [0, 1, 2, 3]

    def test_single_input(self):
        g = ArchGraph()
        g.add(Input(), [])
        assert g.schedule() == [0]

    def test_forward_reference_rejected(self):
        # validate() is what keeps the id order topological
        g, i, c = chain_graph()
        g.nodes[c] = Node(c, Conv(64), (c,))
        with pytest.raises(GraphError, match="non-preceding"):
            g.schedule()

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
    g = ArchGraph()
    i = g.add(Input(), [])
    convs = [g.add(Conv(c, kernel_h=1, kernel_w=1), [i]) for c in channels]
    cat = g.add(Concat(), convs)
    g.infer_shapes(TensorShape(3, h, w))
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


def small_graph_doc() -> dict:
    g = ArchGraph(name="small")
    i = g.add(Input(), [])
    a = g.add(Conv(8), [i], label="a")
    b = g.add(Conv(8), [i], label="b")
    g.add(Concat(), [a, b], label="cat")
    g.infer_shapes(TensorShape(3, 16, 16))
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
    "string bias": (lambda d: node(d, 1)["params"].update(bias="no"), "bias"),
    "params not an object": (lambda d: node(d, 3).update(params=[]), "params"),
    "unknown kind": (lambda d: node(d, 1).update(kind="deconv"), "deconv"),
    "list kind": (lambda d: node(d, 1).update(kind=["conv"]), "kind"),
    "number label": (lambda d: node(d, 1).update(label=5), "label"),
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
    assert g2.shapes == g.shapes
