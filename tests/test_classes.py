"""Node classes: nodes with the same kind and input shapes share every
per-node result, so analyses compute one row per class and broadcast it.

A graph made by appending has one class per node; a graph loaded from JSON,
or a repeat catalog build, groups its nodes (equal kinds are interned, equal
shapes too).  Both must give the same numbers and byte-identical reports.
"""

import math

from hypothesis import given, settings, strategies as st

from hardgraph.graph_ir import (Add, ArchGraph, Concat, Conv, GlobalPool, GraphError, Input,
                                Linear, Pool, TensorShape, TransposedConv)
from hardgraph.harmonic import HDBSpec, build_bare_hdb
from hardgraph.latency import PRESETS, PlatformModel, model_latency
from hardgraph.liveness import peak_memory, timeline_csv
from hardgraph.jsonio import dumps_json
from hardgraph.metrics import Table, check_moc, model_summary, report_csv, report_json
from test_layer_table import assert_same_as_reference

# a small vocabulary, so that kinds and shapes repeat; each maker returns a
# fresh kind, as the model builders do
KINDS = (lambda: Conv(4), lambda: Conv(4, 1, 1), lambda: Conv(6, stride=2),
         lambda: Conv(4, groups=2), lambda: Pool("max"), lambda: TransposedConv(4),
         lambda: Concat(), lambda: Add(), lambda: GlobalPool(), lambda: Linear(3))
PLATFORMS = (PRESETS["gpu-like"], PlatformModel("m", 1e9, 1e12),
             PlatformModel("i", math.inf, 1e9))


@st.composite
def repetitive_graphs(draw) -> ArchGraph:
    """Built graphs whose nodes mostly read one of the last few nodes with a
    kind from KINDS; an append that shape inference rejects is skipped."""
    size = draw(st.sampled_from((4, 8, 16)))
    g = ArchGraph("rep", input_shape=TensorShape(draw(st.sampled_from((2, 4))), size, size))
    g.add(Input(), [])
    for _ in range(draw(st.integers(1, 40))):
        nid = len(g.kinds)
        inputs = [draw(st.integers(max(0, nid - 3), nid - 1))]
        inputs += draw(st.lists(st.integers(max(0, nid - 6), nid - 1), max_size=2))
        kind = draw(st.sampled_from(KINDS))()
        if type(kind) not in (Conv, Concat, Add):
            inputs = inputs[:1]
        try:
            g.add(kind, inputs, label=draw(st.sampled_from((None, "a", "b/c"))))
        except GraphError:
            pass
    return g


def analyses(g, dtype_bytes, ds_weight, threshold) -> list:
    """Every analysis of ``g``, as repr() text: 0 and 0.0 print apart, and so
    do floats summed in another order."""
    header = {"model": "rep", "input": "x"}
    s = model_summary(g, dtype_bytes, ds_weight)
    out = [repr(s.layers), repr(s.per_stride),
           repr((s.params, s.macs, s.cio_elements, s.cio_bytes)), repr(check_moc(g, threshold)),
           report_csv(g, s, header), report_json(g, s, header)]
    for platform in PLATFORMS:
        for concat_copy in (False, True):
            rep = model_latency(g, platform, dtype_bytes, concat_copy)
            text = dumps_json(rep.table(("seconds", "bound")))
            assert text == dumps_json(Table(("id", "seconds", "bound"), rep.columns))
            out += [repr(rep.total_seconds), repr(rep.layers), text]
    for concat_free in (False, True):
        prof = peak_memory(g, dtype_bytes=dtype_bytes, concat_free=concat_free)
        out += [repr((prof.steps, prof.peak_bytes, prof.peak_step)),
                timeline_csv(g, prof, header=header)]
    return out


@settings(max_examples=150, deadline=None)
@given(repetitive_graphs(), st.sampled_from((1, 4)),
       st.one_of(st.none(), st.floats(0.01, 1.0)), st.floats(0.0, 50.0))
def test_loaded_graph_analyses_like_the_built_one(g, dtype_bytes, ds_weight, threshold):
    loaded = ArchGraph.from_json(g.to_json())
    assert g.classes == g.class_first == list(range(len(g.kinds)))
    assert loaded.shapes == g.shapes and loaded.nodes == g.nodes
    assert analyses(loaded, dtype_bytes, ds_weight, threshold) == \
        analyses(g, dtype_bytes, ds_weight, threshold)
    assert model_summary(loaded, dtype_bytes, ds_weight) == \
        model_summary(g, dtype_bytes, ds_weight)
    assert_same_as_reference(loaded, dtype_bytes, ds_weight, threshold)


@settings(max_examples=150, deadline=None)
@given(repetitive_graphs())
def test_classes_share_kind_input_shapes_and_output_shape(g):
    loaded = ArchGraph.from_json(g.to_json())
    first = loaded.class_first
    assert first == sorted(set(first)) and [loaded.classes[f] for f in first] == \
        list(range(len(first)))
    for nid, c in enumerate(loaded.classes):
        f = first[c]
        assert f <= nid and loaded.kinds[nid] is loaded.kinds[f]
        assert [id(loaded.shapes[i]) for i in loaded.inputs[nid]] == \
            [id(loaded.shapes[i]) for i in loaded.inputs[f]]
        assert loaded.shapes[nid] is loaded.shapes[f]


def test_bare_hdb_has_few_classes_and_the_same_analyses():
    g, _ = build_bare_hdb(HDBSpec(256, 16, 1.7), TensorShape(64, 32, 32))
    loaded = ArchGraph.from_json(g.to_json())
    assert len(g.class_first) == len(g.kinds) == 385
    assert len(loaded.class_first) < len(loaded.kinds) // 3
    for ds_weight in (None, 0.6):
        assert analyses(loaded, 4, ds_weight, 40.0) == analyses(g, 4, ds_weight, 40.0)
