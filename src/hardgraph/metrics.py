"""Per-layer and whole-model parameter, MAC, CIO and MoC accounting.

CIO of a convolution layer is its (possibly concatenated) input tensor size
plus its output tensor size, in elements; non-conv nodes contribute zero.
MoC is MACs / CIO-elements.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import chain
from json.encoder import encode_basestring_ascii
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

def _rows(graph: ArchGraph, summary: ModelSummary):
    for node, lm in zip(graph.nodes, summary.layers):
        shape = graph.shapes[node.id]
        yield {
            "id": node.id,
            "label": node.label or "",
            "kind": _KIND_NAMES[type(node.kind)],
            "out_shape": f"{shape.channels}x{shape.height}x{shape.width}",
            "params": lm.params,
            "macs": lm.macs,
            "cio_elements": lm.cio_elements,
            "moc": round(lm.moc, 6),
        }


def report_csv(graph: ArchGraph, summary: ModelSummary, header: Optional[dict] = None) -> str:
    buf = io.StringIO()
    if header:
        for k in sorted(header):
            buf.write(f"# {k}: {header[k]}\n")
    w = csv.DictWriter(buf, fieldnames=[
        "id", "label", "kind", "out_shape", "params", "macs", "cio_elements", "moc"])
    w.writeheader()
    for row in _rows(graph, summary):
        w.writerow(row)
    w.writerow({
        "id": "", "label": "TOTAL", "kind": "", "out_shape": "",
        "params": summary.params, "macs": summary.macs,
        "cio_elements": summary.cio_elements,
        "moc": round(summary.macs / summary.cio_elements, 6) if summary.cio_elements else 0,
    })
    return buf.getvalue()


def report_json(graph: ArchGraph, summary: ModelSummary, header: Optional[dict] = None) -> str:
    doc = {
        "header": header or {},
        "layers": list(_rows(graph, summary)),
        "summary": {
            "params": summary.params,
            "macs": summary.macs,
            "cio_elements": summary.cio_elements,
            "cio_bytes": summary.cio_bytes,
            "cio_mb": summary.cio_mb,
            "dtype_bytes": summary.dtype_bytes,
            "ds_weight": summary.ds_weight,
        },
    }
    return dumps_json(doc)


# --- JSON writer ------------------------------------------------------------

_SCALARS = frozenset((str, int, float, bool, type(None)))
_encode_scalar = json.JSONEncoder().encode


def dumps_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, but fast
    on long lists of flat rows.  Dict keys must be strings.

    The stdlib encoder takes its pure-Python path whenever ``indent`` is set,
    one generator step per token.  Here a list of non-empty dicts with scalar
    values (a report's per-layer rows) goes to the C encoder in one call,
    with the row's own line break and indent as the item separator; every
    other value is laid out as ``indent=2`` would.
    """
    return _dumps(doc, 0)


def _dumps(value, level: int) -> str:
    if isinstance(value, dict) and value:
        # encode_basestring_ascii raises TypeError on a key that is not a str
        return _block("{", [f"{encode_basestring_ascii(k)}: {_dumps(v, level + 1)}"
                            for k, v in sorted(value.items())], "}", level)
    if isinstance(value, (list, tuple)) and value:
        if _flat_rows(value):
            return _dumps_rows(value, level)
        return _block("[", [_dumps(v, level + 1) for v in value], "]", level)
    return _encode_scalar(value)  # a scalar, {} or []


def _block(opener: str, items: list, closer: str, level: int) -> str:
    pad = "\n" + "  " * (level + 1)
    return opener + pad + ("," + pad).join(items) + "\n" + "  " * level + closer


def _flat_rows(items) -> bool:
    """True for dicts that are all non-empty, with string keys and scalar values."""
    return (set(map(type, items)) == {dict} and all(items)
            and set(map(type, chain.from_iterable(items))) == {str}
            and set(map(type, chain.from_iterable(map(dict.values, items)))) <= _SCALARS)


def _dumps_rows(rows: list, level: int) -> str:
    # One C-encoder call with the key indent as item separator gives
    # '[{"a": 1,<key pad>"b": 2},<key pad>{"a": 3, ...}]'.  Within a row the
    # separator is followed by a key's opening quote, so '},<key pad>{' is
    # always a row boundary: encoded strings hold no raw newline.
    key_pad = "\n" + "  " * (level + 2)
    row_pad = "\n" + "  " * (level + 1)
    text = json.JSONEncoder(sort_keys=True, separators=("," + key_pad, ": ")).encode(rows)
    body = text[2:-2].replace("}," + key_pad + "{", row_pad + "}," + row_pad + "{" + key_pad)
    return "[" + row_pad + "{" + key_pad + body + row_pad + "}" + "\n" + "  " * level + "]"
