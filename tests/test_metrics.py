import csv
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

import hardgraph
from hardgraph.graph_ir import (Add, ArchGraph, Concat, Conv, GlobalPool, Input, Linear,
                                Pool, TensorShape, TransposedConv)
from hardgraph.jsonio import dumps_json
from hardgraph.metrics import (Table, check_moc, layer_macs, model_summary,
                               node_metrics, report_csv, report_json)


def single_conv(conv, in_shape):
    g = ArchGraph(input_shape=in_shape)
    i = g.add(Input(), [])
    c = g.add(conv, [i])
    return g, g.nodes[c]


class TestLayerCIO:
    def test_stem_conv(self):
        g, n = single_conv(Conv(64), TensorShape(3, 224, 224))
        assert node_metrics(g, n).cio_elements == (3 + 64) * 224 * 224 == 3_361_792

    def test_concat_is_zero(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        i = g.add(Input(), [])
        a = g.add(Conv(8), [i])
        b = g.add(Conv(8), [i])
        cat = g.add(Concat(), [a, b])
        assert node_metrics(g, g.nodes[cat]).cio_elements == 0

    def test_depthwise_with_ds_weight(self):
        g, n = single_conv(Conv(64, groups=64), TensorShape(64, 56, 56))
        assert node_metrics(g, n).cio_elements == 128 * 56 * 56
        assert node_metrics(g, n, ds_weight=0.6).cio_elements == pytest.approx(0.6 * 128 * 56 * 56)

    def test_weight_ignored_for_standard_conv(self):
        g, n = single_conv(Conv(64), TensorShape(3, 224, 224))
        assert node_metrics(g, n, ds_weight=0.6).cio_elements == node_metrics(g, n).cio_elements


class TestLayerMACs:
    def test_stem_conv(self):
        g, n = single_conv(Conv(64), TensorShape(3, 224, 224))
        assert layer_macs(g, n) == 3 * 64 * 9 * 224 * 224 == 86_704_128

    def test_depthwise(self):
        g, n = single_conv(Conv(64, groups=64), TensorShape(64, 56, 56))
        assert layer_macs(g, n) == 64 * 9 * 56 * 56 == 1_806_336

    def test_pool_is_zero(self):
        g = ArchGraph(input_shape=TensorShape(8, 8, 8))
        i = g.add(Input(), [])
        p = g.add(Pool("avg"), [i])
        assert layer_macs(g, g.nodes[p]) == 0


class TestLayerParams:
    def test_conv1x1_no_bias(self):
        g, n = single_conv(Conv(128, kernel_h=1, kernel_w=1), TensorShape(256, 7, 7))
        assert node_metrics(g, n).params == 32_768

    def test_depthwise(self):
        g, n = single_conv(Conv(64, groups=64), TensorShape(64, 7, 7))
        assert node_metrics(g, n).params == 576

    def test_concat_zero(self):
        g = ArchGraph(input_shape=TensorShape(3, 8, 8))
        i = g.add(Input(), [])
        a = g.add(Conv(8), [i])
        b = g.add(Conv(8), [i])
        cat = g.add(Concat(), [a, b])
        assert node_metrics(g, g.nodes[cat]).params == 0

    def test_linear_has_bias(self):
        g = ArchGraph(input_shape=TensorShape(512, 7, 7))
        i = g.add(Input(), [])
        p = g.add(GlobalPool(), [i])
        f = g.add(Linear(1000), [p])
        assert node_metrics(g, g.nodes[f]).params == 512 * 1000 + 1000


class TestCheckMoc:
    def test_wide_bottleneck_flagged(self):
        g, n = single_conv(Conv(32, kernel_h=1, kernel_w=1), TensorShape(1024, 7, 7))
        lm = node_metrics(g, n)
        assert lm.macs == 1_605_632 and lm.cio_elements == 51_744
        flagged = check_moc(g, 40)
        assert [nid for nid, _ in flagged] == [n.id]
        assert flagged[0][1] == pytest.approx(31.03, abs=0.01)

    def test_threshold_zero_is_empty(self):
        g = hardgraph.build("hardnet68")
        assert check_moc(g, 0) == []

    def test_balanced_conv_not_flagged(self):
        g, n = single_conv(Conv(64), TensorShape(64, 56, 56))
        lm = node_metrics(g, n)
        assert lm.moc == 64 * 64 * 9 / 128 == 288  # 9c/2 closed form
        assert check_moc(g, 40) == []


class TestModelSummary:
    def test_input_only_graph_is_zero(self):
        g = ArchGraph(input_shape=TensorShape(3, 32, 32))
        g.add(Input(), [])
        s = model_summary(g)
        assert s.params == s.macs == s.cio_elements == 0

    def test_graph_without_nodes_is_an_error(self):
        # the totals are unpacked from the class rows, and an empty graph has none
        g = ArchGraph("empty", input_shape=TensorShape(3, 8, 8))
        with pytest.raises(ValueError, match=r"^graph 'empty' has no nodes to summarize$"):
            model_summary(g)

    def test_totals_are_sums(self):
        g = hardgraph.build("hardnet39ds")
        s = model_summary(g)
        assert s.params == sum(l.params for l in s.layers)
        assert s.macs == sum(l.macs for l in s.layers)
        assert s.cio_elements == sum(l.cio_elements for l in s.layers)

    def test_cio_invariant_to_dtype(self):
        g = hardgraph.build("hardnet39ds")
        s1 = model_summary(g, dtype_bytes=1)
        s4 = model_summary(g, dtype_bytes=4)
        assert s1.cio_elements == s4.cio_elements
        assert s4.cio_bytes == 4 * s1.cio_bytes

    @pytest.mark.parametrize("name", ["hardnet68", "resnet50", "densenet121"])
    def test_scale_law(self, name):
        small = model_summary(hardgraph.build(name, TensorShape(3, 224, 224)))
        big = model_summary(hardgraph.build(name, TensorShape(3, 448, 448)))
        assert big.cio_elements == 4 * small.cio_elements
        conv_macs_small = sum(l.macs for l, n in zip(small.layers, hardgraph.build(name).nodes)
                              if isinstance(n.kind, Conv))
        g_big = hardgraph.build(name, TensorShape(3, 448, 448))
        conv_macs_big = sum(l.macs for l, n in zip(big.layers, g_big.nodes)
                            if isinstance(n.kind, Conv))
        assert conv_macs_big == 4 * conv_macs_small

    def test_per_stride_totals_match(self):
        g = hardgraph.build("hardnet68")
        s = model_summary(g)
        assert sum(b["macs"] for b in s.per_stride.values()) == s.macs


class TestReports:
    def test_csv_has_row_per_node_plus_total(self):
        g = hardgraph.build("hardnet39ds")
        s = model_summary(g)
        text = report_csv(g, s, header={"model": "hardnet39ds"})
        lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
        assert len(lines) == len(g.nodes) + 2  # header + nodes + total
        assert lines[-1].split(",")[1] == "TOTAL"

    # each character csv quotes, alone among plain ones, and none
    @pytest.mark.parametrize("quoted", [",", '"', "\r", "\n", ""])
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.none() | st.sampled_from([0.5, 1.0 / 3]),
           st.none() | st.dictionaries(st.sampled_from(["model", "a b"]),
                                       st.integers() | st.text(max_size=3)))
    def test_csv_matches_csv_writer_of_the_broadcast_rows(self, quoted, data, ds_weight, header):
        labels = st.none() | st.text(st.sampled_from(["x", " ", "\u00e9", *quoted]), max_size=4)
        nodes = data.draw(st.lists(st.tuples(labels, st.sampled_from(range(4)), st.booleans()),
                                   min_size=1, max_size=10))
        # shared kind objects, each on the input or on the node before, so nodes share classes
        kinds = [Conv(8), Conv(8, 1, 1), Pool("max", 1, 1), Conv(4, groups=4)]
        g = ArchGraph(input_shape=TensorShape(4, 6, 6))
        g.add(Input(), [])
        for label, k, on_input in nodes:
            g.add(kinds[k], [0 if on_input else len(g.kinds) - 1], label=label)
        g.infer_shapes(g.input_shape)  # group the nodes into classes
        s = model_summary(g, dtype_bytes=2, ds_weight=ds_weight)
        buf = io.StringIO()
        for k in sorted(header or ()):
            buf.write(f"# {k}: {header[k]}\n")
        w = csv.writer(buf)
        w.writerow(["id", "label", "kind", "out_shape", "params", "macs", "cio_elements", "moc"])
        names = {Input: "input", Conv: "conv", Pool: "pool"}
        w.writerows((lm.node_id, g.labels[lm.node_id] or "", names[type(g.kinds[lm.node_id])],
                     str(g.shapes[lm.node_id]), lm.params, lm.macs, lm.cio_elements,
                     round(lm.moc, 6)) for lm in s.layers)
        w.writerow(["", "TOTAL", "", "", s.params, s.macs, s.cio_elements,
                    round(s.macs / s.cio_elements, 6) if s.cio_elements else 0])
        assert report_csv(g, s, header) == buf.getvalue()

    def test_json_mirrors_csv_fields(self):
        import json
        g = hardgraph.build("hardnet39ds")
        s = model_summary(g)
        doc = json.loads(report_json(g, s))
        assert len(doc["layers"]) == len(g.nodes)
        assert doc["summary"]["params"] == s.params
        assert set(doc["layers"][0]) == {"id", "label", "kind", "out_shape",
                                         "params", "macs", "cio_elements", "moc"}


def stdlib_dumps(doc) -> str:
    """The oracle: the stdlib's pure-Python pretty printer."""
    return json.dumps(doc, indent=2, sort_keys=True)


# text that looks like the JSON structure, or the row template, the writer fills
tricky_text = st.text(st.sampled_from(list('{}[],:"\\\n\t x%s\u00e9\u4e2d\U0001f600'))
                      | st.characters(), max_size=12)
scalars = (tricky_text | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
           | st.booleans() | st.none())
flat_row = st.dictionaries(tricky_text, scalars, min_size=1, max_size=4)
flat_rows = st.lists(flat_row, min_size=1, max_size=5)
nested = st.lists(scalars, max_size=3) | st.dictionaries(tricky_text, scalars, max_size=3)


@st.composite
def rows_with_nested(draw):
    """Rows where one row holds a list or dict value."""
    rows = draw(st.lists(flat_row, max_size=4))
    row = draw(flat_row)
    row[draw(tricky_text)] = draw(nested)
    rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


@st.composite
def tables(draw):
    """A Table of 0-4 rows whose columns are each all ints, all strings, all
    floats (NaN and infinities among them), ints and floats, or any scalars."""
    keys = draw(st.lists(tricky_text, min_size=1, max_size=5, unique=True))
    n = draw(st.integers(0, 4))
    values = (st.integers() | tricky_text | st.floats(allow_nan=True, allow_infinity=True)
              | (st.integers() | st.floats()) | scalars)
    return Table(tuple(keys), tuple(draw(st.lists(values, min_size=n, max_size=n))
                                    for _ in keys))


# keys that sort just before, between and after "id" and "label"
near_keys = st.sampled_from(["", "%", "%s", "a", "i", "ia", "id", "id%", "id0", "ie", "kind",
                             "l", "la", "label", "label%", "labels", "lb", "moc", "\u00e9"])
class_cells = (st.sampled_from(["%", "%s", "%%d", "\u00e9", "\u4e2d", "\U0001f600", -0.0, 0.0,
                                float("nan"), float("-inf")]) | scalars)
class_columns = st.one_of(
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4),
    st.lists(st.integers(), min_size=1, max_size=4),
    st.lists(tricky_text, min_size=1, max_size=4),
    st.lists(class_cells, min_size=1, max_size=4))


@st.composite
def class_tables(draw):
    """A Table with per-node columns and per-class columns of 1-4 classes,
    whose keys sort around ``id`` and ``label``, or are ``id`` and ``label``."""
    keys = draw(st.lists(near_keys | tricky_text, min_size=1, max_size=7, unique=True))
    split = draw(st.integers(0, len(keys) - 1))
    node_keys, class_keys = tuple(keys[:split]), tuple(keys[split:])
    c = draw(st.integers(1, 4))
    columns = tuple(draw(st.lists(class_columns, min_size=len(class_keys),
                                  max_size=len(class_keys)).map(
        lambda cols: [(col * 4)[:c] for col in cols])))
    classes = draw(st.lists(st.integers(0, c - 1), max_size=6))
    if node_keys and draw(st.booleans()):
        node_columns = (range(len(classes)),) + tuple(
            draw(st.lists(scalars, min_size=len(classes), max_size=len(classes)))
            for _ in node_keys[1:])
    else:
        node_columns = tuple(draw(st.lists(scalars, min_size=len(classes), max_size=len(classes)))
                             for _ in node_keys)
    return Table(node_keys, node_columns, class_keys, columns, classes)


def broadcast_rows(table) -> list:
    """A table's rows as dicts, each class cell copied to the rows of its class."""
    cells = [list(map(column.__getitem__, table.classes)) for column in table.class_columns]
    return [dict(zip(table.keys + table.class_keys, row))
            for row in zip(*table.columns, *cells)] if table.class_keys else \
        [dict(zip(table.keys, row)) for row in zip(*table.columns)]


json_values = st.recursive(
    scalars | flat_rows | rows_with_nested(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(tricky_text, inner, max_size=4),
    max_leaves=8)


class TestJsonWriter:
    """dumps_json is byte-identical to json.dumps(indent=2, sort_keys=True)."""

    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_matches_stdlib(self, doc):
        assert dumps_json(doc) == stdlib_dumps(doc)

    @settings(deadline=None)
    @given(flat_rows, st.integers(0, 3))
    def test_flat_rows_at_any_depth(self, rows, depth):
        doc = rows
        for _ in range(depth):
            doc = {"layers": doc, "n": len(rows)}
        assert dumps_json(doc) == stdlib_dumps(doc)

    @settings(deadline=None)
    @given(rows_with_nested())
    def test_nested_rows_take_the_fallback(self, rows):
        assert dumps_json({"layers": rows}) == stdlib_dumps({"layers": rows})

    @pytest.mark.parametrize("rows", [
        [{}], [{"a": 1}, {}], [{"a": [1]}], [{"a": {}}], [[1]], [{"a": 1}, 2],
        [{"a": (1, 2)}],
    ])
    def test_not_flat(self, rows):
        assert dumps_json({"x": rows}) == stdlib_dumps({"x": rows})

    @pytest.mark.parametrize("bad", [{"a": object()}, [{"a": object()}], {(1, 2): 1},
                                     {"a": 1, 2: 3}, {1: "a"}, [{1: "a"}],
                                     Table((1,), ([2],)), Table(("a",), ([object()],))])
    def test_type_errors(self, bad):
        # the stdlib writes int keys as strings; reports only have string keys
        with pytest.raises(TypeError):
            dumps_json(bad)

    @settings(max_examples=150, deadline=None)
    @given(tables(), st.integers(0, 2))
    def test_table_matches_its_rows(self, table, depth):
        rows = [dict(zip(table.keys, row)) for row in zip(*table.columns)]
        doc, want = table, rows
        for _ in range(depth):
            doc, want = {"layers": doc, "n": len(rows)}, {"layers": want, "n": len(rows)}
        assert dumps_json(doc) == stdlib_dumps(want)

    @settings(max_examples=300, deadline=None)
    @given(class_tables(), st.integers(0, 2))
    def test_class_table_matches_its_broadcast_rows(self, table, depth):
        doc, want = table, broadcast_rows(table)
        for _ in range(depth):
            doc, want = {"layers": doc, "%s": [1]}, {"layers": want, "%s": [1]}
        assert dumps_json(doc) == stdlib_dumps(want)

    def test_class_cells_fill_each_row_of_their_class(self):
        table = Table(("id", "label"), (range(4), ["a", "%s", "\u00e9", ""]),
                      ("ie", "kind", "z"), ([-0.0, float("nan")], ["%d", "b"], [1, 2]),
                      [1, 0, 0, 1])
        rows = json.loads(dumps_json(table))
        assert [(r["id"], r["label"], r["kind"], r["z"]) for r in rows] == \
            [(0, "a", "b", 2), (1, "%s", "%d", 1), (2, "\u00e9", "%d", 1), (3, "", "b", 2)]
        assert dumps_json(table) == stdlib_dumps(broadcast_rows(table))

    @pytest.mark.parametrize("table, rows", [
        (Table(("a", "b"), ([], [])), []),
        (Table(("id",), (range(0),), ("a",), ([1],), []), []),
        (Table((), (), ("a",), ([1, 2],), [1, 1]), [{"a": 2}, {"a": 2}]),
        (Table((), ()), []),
        (Table(("%s", "b%"), ([1], ["%d"])), [{"%s": 1, "b%": "%d"}]),
        (Table(("x",), ([1.5, 2, float("nan"), True, None, "s"],)),
         [{"x": v} for v in (1.5, 2, float("nan"), True, None, "s")]),
        *((Table(("x",), (column,)), [{"x": v} for v in column]) for column in (
            [0.0, -0.0], [-0.0, 0.0], [1, 1.0], [True, 1],
            [float("inf"), float("-inf"), 1.5], [float("nan"), 2.0])),
    ])
    def test_empty_one_row_and_mixed_tables(self, table, rows):
        assert dumps_json({"layers": table}) == stdlib_dumps({"layers": rows})

    @pytest.mark.parametrize("name", ["hardnet39ds", "fc-hardnet68", "resnet18"])
    def test_reports(self, name):
        g = hardgraph.build(name)
        s = model_summary(g, ds_weight=0.6)
        doc = json.loads(report_json(g, s, {"model": name}))
        assert report_json(g, s, {"model": name}) == stdlib_dumps(doc)


def test_row_kinds_cover_every_node_kind():
    g = ArchGraph(input_shape=TensorShape(3, 8, 8))
    i = g.add(Input(), [])
    a = g.add(Conv(8), [i])
    b = g.add(Conv(8), [i])
    s = g.add(Add(), [a, b])
    c = g.add(Concat(), [s, a])
    t = g.add(TransposedConv(8), [c])
    p = g.add(Pool("max"), [t])
    gp = g.add(GlobalPool(), [p])
    g.add(Linear(10), [gp])
    rows = json.loads(report_json(g, model_summary(g)))["layers"]
    assert [r["kind"] for r in rows] == ["input", "conv", "conv", "add", "concat", "tconv",
                                         "pool", "global_pool", "linear"]
