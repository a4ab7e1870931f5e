"""The per-layer table every report reads: parameters, MACs, CIO and MoC, one row per
node class.

CIO of a convolution layer is its (possibly concatenated) input tensor size
plus its output tensor size, in elements; so is that of a concat copied in
DRAM (``concat_copy``).  Other nodes contribute zero.  MoC is MACs / CIO-elements.
"""

from functools import reduce
from operator import add
from typing import NamedTuple, Optional

from .graph_ir import ArchGraph, Concat, Conv, Linear, Table, TransposedConv, _Kind, _read_shape


class LayerMetrics(NamedTuple):
    node_id: int
    params: int
    macs: int
    cio_elements: float  # real-valued once a DS weighting is applied
    cio_bytes: float
    moc: float


class _PerClass:
    """Records kept once per node class, each with its class's first node id,
    and each node's class; ``layers`` makes one record per node on access."""

    _record = LayerMetrics

    def __init__(self, rows: list, classes: list):
        self._rows, self._classes = rows, classes

    @property
    def columns(self) -> list:
        """The ``layers`` fields as columns, one value per node."""
        fields = list(zip(*self._rows))[1:] or [()] * (len(self._record._fields) - 1)
        return [range(len(self._classes)), *(list(map(f.__getitem__, self._classes))
                                             for f in fields)]

    @property
    def layers(self) -> list:
        return list(map(self._record, *self.columns))

    def table(self, keys: tuple) -> Table:
        """A report table: ``id`` per node, and the other fields, named ``keys``, per class."""
        return Table(("id",), (range(len(self._classes)),), keys, tuple(zip(*self._rows))[1:],
                     self._classes)


def _layer_row(shapes: list, nid: int, k: _Kind, inputs: tuple, dtype_bytes: int,
               ds_weight: Optional[float], concat_copy: bool = False) -> LayerMetrics:
    """Node ``nid``'s params, MACs, CIO and MoC: the only place these formulas
    live.  A conv, transposed conv, Linear or copied concat reads what ``_read_shape`` reads."""
    kind_type = type(k)
    if kind_type is not Conv and kind_type is not TransposedConv and kind_type is not Linear and (
            not concat_copy or kind_type is not Concat):
        return LayerMetrics(nid, 0, 0, 0, 0, 0.0)
    read = shapes[inputs[0]] if len(inputs) == 1 else _read_shape([shapes[i] for i in inputs])
    c_in = read.channels
    in_elements = c_in * read.height * read.width
    if kind_type is Linear:
        macs = in_elements * k.out_features
        return LayerMetrics(nid, macs + k.out_features, macs, 0, 0, 0.0)
    out = shapes[nid]
    out_hw = out.height * out.width
    if kind_type is Conv:
        weights = (c_in // k.groups) * k.out_channels * k.kernel_h * k.kernel_w
        params = weights + (k.out_channels if k.bias else 0)
    elif kind_type is Concat:  # a copy computes nothing
        weights = params = 0
    else:
        weights = params = c_in * k.out_channels * k.kernel * k.kernel
    macs = weights * out_hw
    cio = in_elements + out.channels * out_hw  # exact integer when unweighted
    if ds_weight is not None and kind_type is Conv and (
            k.kernel_h == k.kernel_w == 1 and k.groups == 1  # pointwise
            or k.groups == c_in == k.out_channels):  # depthwise
        cio = ds_weight * cio
    return LayerMetrics(nid, params, macs, cio, cio * dtype_bytes, macs / cio if cio else 0.0)


def _class_rows(graph: ArchGraph, dtype_bytes: int = 4, ds_weight: Optional[float] = None,
                concat_copy: bool = False) -> list:
    """One LayerMetrics per node class, from the class's first node: the
    table every report reads, broadcast to nodes through ``graph.classes``."""
    shapes, kinds, inputs = graph.shapes, graph.kinds, graph.inputs
    return [_layer_row(shapes, f, kinds[f], inputs[f], dtype_bytes, ds_weight, concat_copy)
            for f in graph.class_first]


def _node_order_sum(values):
    """Per-node ``values`` added left to right in node order (``sum`` compensates float error
    on 3.12+, so a running sum over the nodes would not match it)."""
    return reduce(add, values, 0)
