"""The per-layer metrics table against a reference: the per-node functions
as they were before the table existed, and the reports built from them."""

import math
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

import hardgraph
from hardgraph import catalog, latency, metrics
from hardgraph.graph_ir import (Add, ArchGraph, Concat, Conv, GlobalPool, GraphError, Input,
                                Linear, Pool, TensorShape, TransposedConv)
from hardgraph.latency import PRESETS, PlatformModel, model_latency
from hardgraph.layer_table import LayerMetrics, _class_rows
from hardgraph.metrics import check_moc, layer_macs, model_summary, node_metrics
from hardgraph.registry import MODEL_NAMES

# --- reference: one node at a time, through conv_input_shape ---------------


def conv_input_shape(graph, node) -> TensorShape:
    """Effective (possibly concatenated) input tensor of a node."""
    ins = [graph.shapes[i] for i in node.inputs]
    if len(ins) == 1:
        return ins[0]
    return TensorShape(sum(i.channels for i in ins), ins[0].height, ins[0].width)


def ref_is_pointwise(k):
    return k.kernel_h == 1 and k.kernel_w == 1 and k.groups == 1


def ref_is_depthwise(k, c_in):
    return k.groups == c_in and k.out_channels == c_in


def ref_layer_cio(graph, node, ds_weight=None):
    k = node.kind
    if not isinstance(k, (Conv, TransposedConv)):
        return 0
    in_shape = conv_input_shape(graph, node)
    out_shape = graph.shapes[node.id]
    cio = in_shape.element_count + out_shape.element_count
    if ds_weight is not None and isinstance(k, Conv) and (
            ref_is_pointwise(k) or ref_is_depthwise(k, in_shape.channels)):
        return ds_weight * cio
    return cio


def ref_layer_macs(graph, node):
    k = node.kind
    out = graph.shapes[node.id]
    if isinstance(k, Conv):
        c_in = conv_input_shape(graph, node).channels
        return (c_in // k.groups) * k.out_channels * k.kernel_h * k.kernel_w * out.height * out.width
    if isinstance(k, TransposedConv):
        c_in = conv_input_shape(graph, node).channels
        return c_in * k.out_channels * k.kernel * k.kernel * out.height * out.width
    if isinstance(k, Linear):
        return conv_input_shape(graph, node).element_count * k.out_features
    return 0


def ref_layer_params(graph, node):
    k = node.kind
    if isinstance(k, Conv):
        c_in = conv_input_shape(graph, node).channels
        p = (c_in // k.groups) * k.out_channels * k.kernel_h * k.kernel_w
        return p + (k.out_channels if k.bias else 0)
    if isinstance(k, TransposedConv):
        return conv_input_shape(graph, node).channels * k.out_channels * k.kernel * k.kernel
    if isinstance(k, Linear):
        n_in = conv_input_shape(graph, node).element_count
        return n_in * k.out_features + k.out_features
    return 0


def ref_node_metrics(graph, node, dtype_bytes=4, ds_weight=None) -> tuple:
    """(node_id, params, macs, cio_elements, cio_bytes, moc)"""
    macs = ref_layer_macs(graph, node)
    cio = ref_layer_cio(graph, node, ds_weight)
    return (node.id, ref_layer_params(graph, node), macs, cio, cio * dtype_bytes,
            (macs / cio) if cio else 0.0)


def ref_summary(graph, dtype_bytes, ds_weight) -> tuple:
    """(layers, totals, per_stride), summed in node order."""
    layers, per_stride = [], {}
    params = macs = cio = cio_bytes = 0
    in_h = graph.input_shape.height
    for node in graph.nodes:
        row = ref_node_metrics(graph, node, dtype_bytes, ds_weight)
        layers.append(row)
        params += row[1]
        macs += row[2]
        cio += row[3]
        cio_bytes += row[4]
        stride = max(1, round(in_h / graph.shapes[node.id].height))
        bucket = per_stride.setdefault(stride, {"params": 0, "macs": 0, "cio_elements": 0})
        bucket["params"] += row[1]
        bucket["macs"] += row[2]
        bucket["cio_elements"] += row[3]
    return layers, (params, macs, cio, cio_bytes), per_stride


def ref_critical_moc(p, dtype_bytes):
    if math.isinf(p.peak_macs_per_second) or math.isinf(p.dram_bytes_per_second):
        return p.peak_macs_per_second / p.dram_bytes_per_second \
            if not math.isinf(p.peak_macs_per_second) else math.inf
    return p.peak_macs_per_second / p.dram_bytes_per_second * dtype_bytes


def ref_latency(graph, platform, dtype_bytes, concat_copy) -> tuple:
    crit = ref_critical_moc(platform, dtype_bytes)
    rows, total = [], 0.0
    for node in graph.nodes:
        _, _, macs, cio, cio_bytes, moc = ref_node_metrics(graph, node, dtype_bytes)
        if cio:
            t = max(macs / platform.peak_macs_per_second,
                    cio_bytes / platform.dram_bytes_per_second)
            bound = "memory" if moc < crit else "compute"
        elif concat_copy and isinstance(node.kind, Concat):
            t = 2 * graph.shapes[node.id].element_count * dtype_bytes / platform.dram_bytes_per_second
            bound = "memory"
        else:
            t, bound = 0.0, "none"
        rows.append((node.id, t, bound))
        total += t
    return total, rows


def ref_check_moc(graph, threshold):
    out = [(n.id, ref_node_metrics(graph, n)[5]) for n in graph.nodes
           if isinstance(n.kind, (Conv, TransposedConv))]
    out = [(nid, moc) for nid, moc in out if moc < threshold]
    return sorted(out, key=lambda t: (t[1], t[0]))


# --- the comparison ---------------------------------------------------------

PLATFORMS = (*PRESETS.values(), PlatformModel("c", 1e12, math.inf),
             PlatformModel("m", math.inf, 1e10), PlatformModel("i", math.inf, math.inf))


def assert_same_as_reference(g, dtype_bytes, ds_weight, threshold=40.0):
    """repr() comparisons: 0 and 0.0 print differently in a report, and so
    do floats summed in another order."""
    layers, totals, per_stride = ref_summary(g, dtype_bytes, ds_weight)
    s = model_summary(g, dtype_bytes, ds_weight)
    assert repr([tuple(lm) for lm in s.layers]) == repr(layers)
    for node, row in zip(g.nodes, layers):
        assert repr(tuple(node_metrics(g, node, dtype_bytes, ds_weight))) == repr(row)
        assert layer_macs(g, node) == row[2]
    assert repr(s.layers) == repr([LayerMetrics(*row) for row in layers])
    assert repr((s.params, s.macs, s.cio_elements, s.cio_bytes)) == repr(totals)
    assert repr(s.per_stride) == repr(per_stride)
    if ds_weight is None:
        for p in PLATFORMS:
            for concat_copy in (False, True):
                rep = model_latency(g, p, dtype_bytes, concat_copy)
                got = (rep.total_seconds, [(t.node_id, t.seconds, t.bound) for t in rep.layers])
                assert repr(got) == repr(ref_latency(g, p, dtype_bytes, concat_copy))
        assert repr(check_moc(g, threshold)) == repr(ref_check_moc(g, threshold))


@lru_cache(maxsize=None)
def built(name):
    return hardgraph.build(name)


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_catalog_models_match_the_reference(name):
    for dtype_bytes in (1, 2, 4):
        for ds_weight in (None, 0.6):
            assert_same_as_reference(built(name), dtype_bytes, ds_weight)


def assert_copied_concat_rows(g, dtype_bytes):
    """With ``concat_copy`` a concat row moves what it reads plus its output and
    computes nothing; every other row is the row without it."""
    nodes, plain = g.nodes, _class_rows(g, dtype_bytes)
    for row, base in zip(_class_rows(g, dtype_bytes, concat_copy=True), plain):
        node = nodes[row.node_id]
        if isinstance(node.kind, Concat):
            cio = conv_input_shape(g, node).element_count + g.shapes[node.id].element_count
            base = LayerMetrics(node.id, 0, 0, cio, cio * dtype_bytes, 0.0)
        assert repr(row) == repr(base)


@pytest.mark.parametrize("name", ["hardnet68", "fc-hardnet68", "densenet121", "resnet50"])
def test_copied_concat_rows(name):
    g = built(name)
    for dtype_bytes in (1, 2, 4):
        assert_copied_concat_rows(g, dtype_bytes)


@st.composite
def graphs(draw) -> ArchGraph:
    """Small shaped graphs with multi-input, grouped, depthwise and pointwise
    convs, transposed convs, multi-input Linears and pools, and the other
    kinds.  A draw that shape inference rejects is skipped."""
    c, h, w = (draw(st.integers(1, n)) for n in (8, 9, 9))
    g = ArchGraph(input_shape=TensorShape(c, h, w))
    g.add(Input(), [])
    for _ in range(draw(st.integers(1, 12))):
        nid = len(g.nodes)
        first = draw(st.integers(0, nid - 1))
        s0 = g.shapes[first]
        kind = draw(st.sampled_from(("conv", "grouped", "depthwise", "pointwise", "tconv",
                                     "linear", "concat", "pool", "add", "global")))
        pool = [i for i in range(nid)
                if g.shapes[i].height == s0.height and g.shapes[i].width == s0.width]
        inputs = [first] + draw(st.lists(st.sampled_from(pool), max_size=2))
        c_in = sum(g.shapes[i].channels for i in inputs)
        out = draw(st.integers(1, 12))
        bias = draw(st.booleans())
        if kind == "conv":
            k = Conv(out, *draw(st.tuples(st.sampled_from((1, 2, 3)), st.sampled_from((1, 3)),
                                          st.integers(1, 2), st.integers(1, 2))), bias=bias)
        elif kind == "grouped":
            groups = draw(st.sampled_from([d for d in range(1, c_in + 1) if c_in % d == 0]))
            k = Conv(groups * draw(st.integers(1, 3)), groups=groups, bias=bias)
        elif kind == "depthwise":
            k = Conv(c_in, groups=c_in, stride=draw(st.integers(1, 2)), bias=bias)
        elif kind == "pointwise":
            k = Conv(out, kernel_h=1, kernel_w=1, bias=bias)
        elif kind == "tconv":
            k = TransposedConv(out, kernel=draw(st.integers(1, 3)), stride=draw(st.integers(1, 2)))
        elif kind == "linear":
            k = Linear(out)
        else:
            k = {"concat": Concat(), "pool": Pool("max"), "add": Add(),
                 "global": GlobalPool()}[kind]
        try:
            g.add(k, inputs)
        except GraphError:
            pass
    return g


@settings(max_examples=300, deadline=None)
@given(graphs(), st.sampled_from((1, 2, 4)), st.one_of(st.none(), st.floats(0.01, 1.0)),
       st.floats(0.0, 50.0))
def test_random_graphs_match_the_reference(g, dtype_bytes, ds_weight, threshold):
    assert_same_as_reference(g, dtype_bytes, ds_weight, threshold)


@settings(max_examples=100, deadline=None)
@given(graphs(), st.sampled_from((1, 2, 4)))
def test_random_graphs_copied_concat_rows(g, dtype_bytes):
    assert_copied_concat_rows(g, dtype_bytes)


def test_unshaped_node_is_named():
    # no graph lacks a shape: it is made with its input shape, and a node that
    # cannot be shaped is not appended, with an error that names it
    with pytest.raises(TypeError):
        ArchGraph()
    g = ArchGraph(input_shape=TensorShape(3, 8, 8))
    i = g.add(Input(), [])
    with pytest.raises(GraphError, match=r"^conv 1 \(c\): groups=2 does not divide c_in=3; "
                                         r"input shapes 3x8x8$"):
        g.add(Conv(8, groups=2), [i], label="c")
    c = g.add(Conv(8), [i])
    assert len(g.shapes) == len(g.kinds) == 2
    assert node_metrics(g, g.nodes[c]) == model_summary(g).layers[c]



def test_reports_read_only_the_table(monkeypatch):
    def per_node(*args, **kwargs):
        raise AssertionError("a report computed a node's metrics outside the table")
    for mod in (metrics, latency, catalog):
        for name in ("node_metrics", "layer_macs"):
            monkeypatch.setattr(mod, name, per_node, raising=False)
    g = built("fc-hardnet68")  # has tconvs
    s = model_summary(g)
    latency.model_latency(g, PRESETS["gpu-like"])
    check_moc(g, 40)
    catalog.seg_gmacs(g, s)
