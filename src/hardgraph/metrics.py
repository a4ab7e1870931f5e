"""Per-layer and whole-model parameter, MAC, CIO and MoC accounting.

CIO of a convolution layer is its (possibly concatenated) input tensor size
plus its output tensor size, in elements; non-conv nodes contribute zero.
MoC is MACs / CIO-elements.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import repeat
from json.encoder import encode_basestring_ascii
from math import copysign
from operator import not_
from typing import NamedTuple, Optional

from .graph_ir import _KIND_NAMES, ArchGraph, Conv, Linear, Node, TransposedConv


class LayerMetrics(NamedTuple):
    node_id: int
    params: int
    macs: int
    cio_elements: float  # real-valued once a DS weighting is applied
    cio_bytes: float
    moc: float


class ModelSummary:
    def __init__(self, name: str, params: int = 0, macs: int = 0, cio_elements: float = 0,
                 cio_bytes: float = 0, dtype_bytes: int = 4, ds_weight: Optional[float] = None,
                 layers: Optional[list] = None, per_stride: Optional[dict] = None):
        self.name, self.params, self.macs, self.cio_elements = name, params, macs, cio_elements
        self.cio_bytes, self.dtype_bytes, self.ds_weight = cio_bytes, dtype_bytes, ds_weight
        self.layers = [] if layers is None else layers
        self.per_stride = {} if per_stride is None else per_stride  # downscale factor -> totals

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is ModelSummary else NotImplemented

    @property
    def params_m(self) -> float:
        return self.params / 1e6

    @property
    def macs_g(self) -> float:
        return self.macs / 1e9

    @property
    def cio_mb(self) -> float:
        return self.cio_bytes / 2 ** 20


def _layer_row(shapes: dict, node: Node, dtype_bytes: int,
               ds_weight: Optional[float]) -> LayerMetrics:
    """One node's params, MACs, CIO and MoC: the only place these formulas
    live.  A conv or transposed conv reads the channels of all its inputs
    (their concatenation) on the first input's grid, as shape inference does;
    a Linear reads the elements of that same tensor."""
    nid = node.id
    out = shapes.get(nid)
    if out is None:
        raise KeyError(f"node {nid} has no inferred shape")
    k = node.kind
    kind_type = type(k)
    if kind_type is not Conv and kind_type is not TransposedConv and kind_type is not Linear:
        return LayerMetrics(nid, 0, 0, 0, 0, 0.0)
    inputs = node.inputs
    first = shapes[inputs[0]]
    c_in = first.channels if len(inputs) == 1 else sum(shapes[i].channels for i in inputs)
    in_elements = c_in * first.height * first.width
    if kind_type is Linear:
        macs = in_elements * k.out_features
        return LayerMetrics(nid, macs + k.out_features, macs, 0, 0, 0.0)
    out_hw = out.height * out.width
    if kind_type is Conv:
        weights = (c_in // k.groups) * k.out_channels * k.kernel_h * k.kernel_w
        params = weights + (k.out_channels if k.bias else 0)
    else:
        weights = params = c_in * k.out_channels * k.kernel * k.kernel
    macs = weights * out_hw
    cio = in_elements + out.channels * out_hw  # exact integer when unweighted
    if ds_weight is not None and kind_type is Conv and (
            k.kernel_h == k.kernel_w == 1 and k.groups == 1  # pointwise
            or k.groups == c_in == k.out_channels):  # depthwise
        cio = ds_weight * cio
    return LayerMetrics(nid, params, macs, cio, cio * dtype_bytes, macs / cio if cio else 0.0)


def layer_metrics(graph: ArchGraph, dtype_bytes: int = 4,
                  ds_weight: Optional[float] = None) -> list:
    """One LayerMetrics per node, in node order: the table every report reads.

    CIO counts conv and transposed-conv nodes only (input plus output
    elements); with ``ds_weight``, a pointwise or depthwise conv's CIO is
    scaled by it.  Raises KeyError naming the first node without a shape."""
    shapes = graph.shapes
    return [_layer_row(shapes, n, dtype_bytes, ds_weight) for n in graph.nodes]


def node_metrics(graph: ArchGraph, node: Node, dtype_bytes: int = 4,
                 ds_weight: Optional[float] = None) -> LayerMetrics:
    return _layer_row(graph.shapes, node, dtype_bytes, ds_weight)


def layer_macs(graph: ArchGraph, node: Node) -> int:
    return _layer_row(graph.shapes, node, 1, None).macs


def model_summary(graph: ArchGraph, dtype_bytes: int = 4,
                  ds_weight: Optional[float] = None) -> ModelSummary:
    if not graph.shapes:
        raise ValueError("run shape inference before computing metrics")
    layers = layer_metrics(graph, dtype_bytes, ds_weight)
    s = ModelSummary(name=graph.name, dtype_bytes=dtype_bytes, ds_weight=ds_weight,
                     layers=layers)
    in_h, shapes, buckets = graph.input_shape.height, graph.shapes, {}
    params = macs = cio = cio_bytes = 0
    for node, (_, p, m, c, cb, _) in zip(graph.nodes, layers):
        params += p
        macs += m
        cio += c
        cio_bytes += cb
        h = shapes[node.id].height
        bucket = buckets.get(h)
        if bucket is None:  # one bucket per output height, shared by its stride
            bucket = buckets[h] = s.per_stride.setdefault(
                max(1, round(in_h / h)), {"params": 0, "macs": 0, "cio_elements": 0})
        bucket["params"] += p
        bucket["macs"] += m
        bucket["cio_elements"] += c
    s.params, s.macs, s.cio_elements, s.cio_bytes = params, macs, cio, cio_bytes
    return s


def check_moc(graph: ArchGraph, threshold: float) -> list:
    """Conv nodes whose MoC falls below the threshold, ascending by MoC."""
    # conv and transposed-conv rows are the ones with a non-zero CIO
    out = [(lm.node_id, lm.moc) for lm in layer_metrics(graph)
           if lm.cio_elements and lm.moc < threshold]
    out.sort(key=lambda t: (t[1], t[0]))
    return out


# --- report rendering -------------------------------------------------------

class Table(NamedTuple):
    """Report rows held as columns of equal length: row r maps ``keys[i]`` to
    ``columns[i][r]``.  ``dumps_json`` writes it as that list of dicts."""
    keys: tuple
    columns: tuple


def _rows(graph: ArchGraph, summary: ModelSummary) -> Table:
    """The per-layer report rows, as columns."""
    nodes, shapes = graph.nodes, graph.shapes
    ids, params, macs, cio, _, moc = zip(*summary.layers) if summary.layers else [()] * 6
    node_shapes = list(map(shapes.__getitem__, ids))
    texts = {i: f"{s.channels}x{s.height}x{s.width}"  # one string per interned shape
             for i, s in dict(zip(map(id, node_shapes), node_shapes)).items()}
    return Table(("id", "label", "kind", "out_shape", "params", "macs", "cio_elements", "moc"),
                 (ids, [n.label or "" for n in nodes],
                  [_KIND_NAMES[type(n.kind)] for n in nodes],
                  list(map(texts.__getitem__, map(id, node_shapes))),
                  params, macs, cio, [round(m, 6) for m in moc]))


def report_csv(graph: ArchGraph, summary: ModelSummary, header: Optional[dict] = None) -> str:
    buf = io.StringIO()
    if header:
        for k in sorted(header):
            buf.write(f"# {k}: {header[k]}\n")
    table = _rows(graph, summary)
    w = csv.writer(buf)
    w.writerow(table.keys)
    w.writerows(zip(*table.columns))
    w.writerow(["", "TOTAL", "", "", summary.params, summary.macs, summary.cio_elements,
                round(summary.macs / summary.cio_elements, 6) if summary.cio_elements else 0])
    return buf.getvalue()


def report_json(graph: ArchGraph, summary: ModelSummary, header: Optional[dict] = None) -> str:
    doc = {
        "header": header or {},
        "layers": _rows(graph, summary),
        "summary": {k: getattr(summary, k) for k in (
            "params", "macs", "cio_elements", "cio_bytes", "cio_mb", "dtype_bytes", "ds_weight")},
    }
    return dumps_json(doc)


# --- JSON writer ------------------------------------------------------------

_encode_scalar = json.JSONEncoder().encode
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__}  # as json writes them


def dumps_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, with a
    ``Table`` written as its list of rows; keys must be strings.  With an
    indent the stdlib takes one Python step per token; a table is instead
    encoded column by column and filled into one ``%`` template per row."""
    return _dumps(doc, 0)


def _dumps(value, level: int) -> str:
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    if type(value) is Table:
        return _dumps_table(value, level)
    if isinstance(value, dict) and value:
        # encode_basestring_ascii raises TypeError on a key that is not a str
        return _block("{", [f"{encode_basestring_ascii(k)}: {_dumps(v, level + 1)}"
                            for k, v in sorted(value.items())], "}", level)
    if isinstance(value, (list, tuple)) and value:
        return _block("[", [_dumps(v, level + 1) for v in value], "]", level)
    return _encode_scalar(value)  # a scalar, {} or []


def _block(opener: str, items: list, closer: str, level: int) -> str:
    head, sep, tail = _frame(opener, closer, level)
    return head + sep.join(items) + tail


def _frame(opener: str, closer: str, level: int) -> tuple:
    """The text before, between and after the items of a non-empty block."""
    pad = "\n" + "  " * (level + 1)
    return opener + pad, "," + pad, "\n" + "  " * level + closer


def _template(keys, level: int) -> str:
    """A JSON object at ``level`` whose sorted ``keys`` each hold a ``%s`` slot;
    a key's '%' is doubled, so ``%`` fills only the slots."""
    return _block("{", [encode_basestring_ascii(k).replace("%", "%%") + ": %s"
                        for k in sorted(keys)], "}", level)


def _dumps_table(table: Table, level: int) -> str:
    columns = sorted(zip(table.keys, table.columns))  # keys are unique: sorts by key
    cells = [_encode_column(column, level + 2) for _, column in columns]
    if not cells or not cells[0]:
        return "[]"
    row = _template(table.keys, level + 1)
    return _block("[", list(map(row.__mod__, zip(*cells))), "]", level)


def _encode_column(column, level: int) -> list:
    """A table column's values as JSON text: strings in one call, all ints or all floats once
    per distinct value, unless -0.0 (== 0.0), NaN or an infinity (spelt apart) is there."""
    types = set(map(type, column))
    if types == {str}:
        return list(map(encode_basestring_ascii, column))
    if types == {int} or types == {float} and min(
            map(copysign, repeat(1.0), filter(not_, column)), default=1.0) > 0:
        texts = dict(zip(distinct := set(column), map(repr, distinct)))
        if {"nan", "inf", "-inf"}.isdisjoint(texts.values()):
            return list(map(texts.__getitem__, column))
    elif types <= {int, float}:
        cells = list(map(repr, column))
        if {"nan", "inf", "-inf"}.isdisjoint(cells):
            return cells
    return [_dumps(v, level) for v in column]
