"""Per-layer and whole-model parameter, MAC, CIO and MoC accounting.

CIO of a convolution layer is its (possibly concatenated) input tensor size
plus its output tensor size, in elements; non-conv nodes contribute zero.
MoC is MACs / CIO-elements.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Optional

from .graph_ir import _KIND_NAMES, ArchGraph, Conv, Linear, Node, TransposedConv


@dataclass(frozen=True)
class LayerMetrics:
    node_id: int
    params: int
    macs: int
    cio_elements: float  # real-valued once a DS weighting is applied
    cio_bytes: float
    moc: float


@dataclass
class ModelSummary:
    name: str
    params: int = 0
    macs: int = 0
    cio_elements: float = 0
    cio_bytes: float = 0
    dtype_bytes: int = 4
    ds_weight: Optional[float] = None
    layers: list = field(default_factory=list)
    per_stride: dict = field(default_factory=dict)  # downscale factor -> dict of totals

    @property
    def params_m(self) -> float:
        return self.params / 1e6

    @property
    def macs_g(self) -> float:
        return self.macs / 1e9

    @property
    def cio_m(self) -> float:
        return self.cio_elements / 1e6

    @property
    def cio_mb(self) -> float:
        return self.cio_bytes / 2 ** 20


def is_pointwise(k: Conv) -> bool:
    return k.kernel_h == 1 and k.kernel_w == 1 and k.groups == 1


def is_depthwise(k: Conv, c_in: int) -> bool:
    return k.groups == c_in and k.out_channels == c_in


def layer_cio(graph: ArchGraph, node: Node, ds_weight: Optional[float] = None) -> float:
    """Eq.-style input+output element count; conv-family nodes only."""
    k = node.kind
    if not isinstance(k, (Conv, TransposedConv)):
        return 0
    if node.id not in graph.shapes:
        raise KeyError(f"node {node.id} has no inferred shape")
    in_shape = graph.conv_input_shape(node)
    out_shape = graph.shapes[node.id]
    cio = in_shape.element_count + out_shape.element_count
    if ds_weight is not None and isinstance(k, Conv) and (
            is_pointwise(k) or is_depthwise(k, in_shape.channels)):
        return ds_weight * cio
    return cio  # exact integer when unweighted


def layer_macs(graph: ArchGraph, node: Node) -> int:
    k = node.kind
    if node.id not in graph.shapes:
        raise KeyError(f"node {node.id} has no inferred shape")
    out = graph.shapes[node.id]
    if isinstance(k, Conv):
        c_in = graph.conv_input_shape(node).channels
        return (c_in // k.groups) * k.out_channels * k.kernel_h * k.kernel_w * out.height * out.width
    if isinstance(k, TransposedConv):
        c_in = graph.conv_input_shape(node).channels
        return c_in * k.out_channels * k.kernel * k.kernel * out.height * out.width
    if isinstance(k, Linear):
        return graph.conv_input_shape(node).element_count * k.out_features
    return 0


def layer_params(graph: ArchGraph, node: Node) -> int:
    k = node.kind
    if isinstance(k, Conv):
        c_in = graph.conv_input_shape(node).channels
        p = (c_in // k.groups) * k.out_channels * k.kernel_h * k.kernel_w
        return p + (k.out_channels if k.bias else 0)
    if isinstance(k, TransposedConv):
        return graph.conv_input_shape(node).channels * k.out_channels * k.kernel * k.kernel
    if isinstance(k, Linear):
        n_in = graph.conv_input_shape(node).element_count
        return n_in * k.out_features + k.out_features
    return 0


def node_metrics(graph: ArchGraph, node: Node, dtype_bytes: int = 4,
                 ds_weight: Optional[float] = None) -> LayerMetrics:
    macs = layer_macs(graph, node)
    cio = layer_cio(graph, node, ds_weight)
    return LayerMetrics(
        node_id=node.id,
        params=layer_params(graph, node),
        macs=macs,
        cio_elements=cio,
        cio_bytes=cio * dtype_bytes,
        moc=(macs / cio) if cio else 0.0,
    )


def model_summary(graph: ArchGraph, dtype_bytes: int = 4,
                  ds_weight: Optional[float] = None) -> ModelSummary:
    if not graph.shapes:
        raise ValueError("run shape inference before computing metrics")
    s = ModelSummary(name=graph.name, dtype_bytes=dtype_bytes, ds_weight=ds_weight)
    in_h = graph.input_shape.height
    for node in graph.nodes:
        lm = node_metrics(graph, node, dtype_bytes, ds_weight)
        s.layers.append(lm)
        s.params += lm.params
        s.macs += lm.macs
        s.cio_elements += lm.cio_elements
        s.cio_bytes += lm.cio_bytes
        stride = max(1, round(in_h / graph.shapes[node.id].height))
        bucket = s.per_stride.setdefault(stride, {"params": 0, "macs": 0, "cio_elements": 0})
        bucket["params"] += lm.params
        bucket["macs"] += lm.macs
        bucket["cio_elements"] += lm.cio_elements
    return s


def check_moc(graph: ArchGraph, threshold: float) -> list:
    """Conv nodes whose MoC falls below the threshold, ascending by MoC."""
    out = []
    for node in graph.nodes:
        if not isinstance(node.kind, (Conv, TransposedConv)):
            continue
        lm = node_metrics(graph, node)
        if lm.moc < threshold:
            out.append((node.id, lm.moc))
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
