"""Per-layer and whole-model parameter, MAC, CIO and MoC accounting.

CIO of a convolution layer is its (possibly concatenated) input tensor size
plus its output tensor size, in elements; non-conv nodes contribute zero.
MoC is MACs / CIO-elements.
"""

from collections import Counter
from functools import reduce
from itertools import chain, compress
from operator import add, attrgetter, mul
from typing import NamedTuple, Optional, Sequence

from .graph_ir import (_KIND_NAMES, ArchGraph, Conv, Linear, Node, TransposedConv, _csv_head,
                       _csv_labels, _Kind)


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

    def table(self, keys: tuple) -> "Table":
        """A report table: ``id`` per node, and the other fields, named ``keys``, per class."""
        return Table(("id",), (range(len(self._classes)),), keys, tuple(zip(*self._rows))[1:],
                     self._classes)


class ModelSummary(_PerClass):
    def __init__(self, name: str, rows: list, classes: list, dtype_bytes: int = 4,
                 ds_weight: Optional[float] = None):
        super().__init__(rows, classes)
        self.name, self.dtype_bytes, self.ds_weight = name, dtype_bytes, ds_weight
        self.per_stride = {}  # downscale factor -> totals

    def __eq__(self, other):
        public = lambda s: ({k: v for k, v in vars(s).items() if k[0] != "_"}, s.layers)
        return public(self) == public(other) if type(other) is ModelSummary else NotImplemented

    @property
    def params_m(self) -> float:
        return self.params / 1e6

    @property
    def macs_g(self) -> float:
        return self.macs / 1e9

    @property
    def cio_mb(self) -> float:
        return self.cio_bytes / 2 ** 20


def _layer_row(shapes: list, nid: int, k: _Kind, inputs: tuple, dtype_bytes: int,
               ds_weight: Optional[float]) -> LayerMetrics:
    """Node ``nid``'s params, MACs, CIO and MoC: the only place these formulas
    live.  A conv or transposed conv reads the channels of all its inputs
    (their concatenation) on their one grid, which shape inference checks;
    a Linear reads the elements of that same tensor."""
    kind_type = type(k)
    if kind_type is not Conv and kind_type is not TransposedConv and kind_type is not Linear:
        return LayerMetrics(nid, 0, 0, 0, 0, 0.0)
    first = shapes[inputs[0]]
    c_in = first.channels if len(inputs) == 1 else sum(shapes[i].channels for i in inputs)
    in_elements = c_in * first.height * first.width
    if kind_type is Linear:
        macs = in_elements * k.out_features
        return LayerMetrics(nid, macs + k.out_features, macs, 0, 0, 0.0)
    out = shapes[nid]
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


def _class_rows(graph: ArchGraph, dtype_bytes: int = 4,
                ds_weight: Optional[float] = None) -> list:
    """One LayerMetrics per node class, from the class's first node: the
    table every report reads, broadcast to nodes through ``graph.classes``."""
    shapes, kinds, inputs = graph.shapes, graph.kinds, graph.inputs
    return [_layer_row(shapes, f, kinds[f], inputs[f], dtype_bytes, ds_weight)
            for f in graph.class_first]


def layer_metrics(graph: ArchGraph, dtype_bytes: int = 4,
                  ds_weight: Optional[float] = None) -> list:
    """One LayerMetrics per node, in node order.

    CIO counts conv and transposed-conv nodes only (input plus output
    elements); with ``ds_weight``, a pointwise or depthwise conv's CIO is
    scaled by it."""
    return _PerClass(_class_rows(graph, dtype_bytes, ds_weight), graph.classes).layers


def node_metrics(graph: ArchGraph, node: Node, dtype_bytes: int = 4,
                 ds_weight: Optional[float] = None) -> LayerMetrics:
    return _layer_row(graph.shapes, node.id, node.kind, node.inputs, dtype_bytes, ds_weight)


def layer_macs(graph: ArchGraph, node: Node) -> int:
    return _layer_row(graph.shapes, node.id, node.kind, node.inputs, 1, None).macs


def _totals(column, counts: list, classes: list, groups: list) -> list:
    """A per-class column summed over the nodes of each group of classes: ints
    as count × value, floats left to right in node order, as a running sum
    over the nodes adds them (``sum`` would compensate float error on 3.12+)."""
    if type(sum(column)) is float:
        def total(group):
            keep = list(map(set(group).__contains__, range(len(column))))
            return reduce(add, compress(map(column.__getitem__, classes),
                                        map(keep.__getitem__, classes)), 0)
    else:
        weighted = list(map(mul, counts, column))
        total = lambda group: sum(map(weighted.__getitem__, group))
    return list(map(total, groups))


def model_summary(graph: ArchGraph, dtype_bytes: int = 4,
                  ds_weight: Optional[float] = None) -> ModelSummary:
    if not graph.shapes:  # zip(*rows) below needs at least one row
        raise ValueError(f"graph {graph.name!r} has no nodes to summarize")
    rows, classes = _class_rows(graph, dtype_bytes, ds_weight), graph.classes[:]
    s = ModelSummary(graph.name, rows, classes, dtype_bytes, ds_weight)
    firsts, params, macs, cio, cio_bytes, _ = zip(*rows)
    # the classes of each stride, which comes in the node order of its first output height
    in_h, shapes, strides = graph.input_shape.height, graph.shapes, {}
    heights = list(map(attrgetter("height"), map(shapes.__getitem__, firsts)))
    stride = {h: max(1, round(in_h / h)) for h in dict.fromkeys(heights)}
    for c, h in enumerate(heights):
        strides.setdefault(stride[h], []).append(c)
    groups = [range(len(rows)), *strides.values()]
    counts = list(map(Counter(classes).__getitem__, groups[0]))
    (s.params, *p), (s.macs, *m), (s.cio_elements, *c), (s.cio_bytes, *_) = (
        _totals(column, counts, classes, groups) for column in (params, macs, cio, cio_bytes))
    for st, values in zip(strides, zip(p, m, c)):
        s.per_stride[st] = dict(zip(("params", "macs", "cio_elements"), values))
    return s


def check_moc(graph: ArchGraph, threshold: float) -> list:
    """(id, MoC) of each node with non-zero CIO (conv, tconv) and MoC below threshold, by MoC."""
    # per class, its MoC if low, else None: conv and transposed-conv rows have a non-zero CIO
    low = [lm.moc if lm.cio_elements and lm.moc < threshold else None for lm in _class_rows(graph)]
    out = [(nid, m) for nid, m in enumerate(map(low.__getitem__, graph.classes)) if m is not None]
    out.sort(key=lambda t: (t[1], t[0]))
    return out


# --- report rendering -------------------------------------------------------

class Table(NamedTuple):
    """Report rows as columns: row r maps ``keys[i]`` to ``columns[i][r]`` and ``class_keys[j]``
    to the class cell ``class_columns[j][classes[r]]``; ``dumps_json`` writes that list of dicts."""
    keys: tuple
    columns: tuple
    class_keys: tuple = ()
    class_columns: tuple = ()
    classes: Sequence = ()


def _rows(graph: ArchGraph, summary: ModelSummary) -> Table:
    """The per-layer report rows: ``id`` and ``label`` per node, the other
    cells once per class, and each distinct shape's text once."""
    firsts, params, macs, cio, _, moc = list(zip(*summary._rows)) or [()] * 6
    shapes = list(map(graph.shapes.__getitem__, firsts))
    texts = {i: str(s) for i, s in dict(zip(map(id, shapes), shapes)).items()}
    kinds = [_KIND_NAMES[type(graph.kinds[f])] for f in firsts]
    return Table(("id", "label"), (range(len(graph.labels)), [l or "" for l in graph.labels]),
                 ("kind", "out_shape", "params", "macs", "cio_elements", "moc"),
                 (kinds, list(map(texts.__getitem__, map(id, shapes))), params, macs, cio,
                  [round(m, 6) for m in moc]), summary._classes)


def report_csv(graph: ArchGraph, summary: ModelSummary, header: Optional[dict] = None) -> str:
    """What ``csv.writer`` writes for the per-layer rows and a TOTAL row: each
    class's cells are written once, and per node only its id and label."""
    table = _rows(graph, summary)
    keys, labels = table.keys + table.class_keys, _csv_labels(table.columns[1])
    total = ("", "TOTAL", "", "", summary.params, summary.macs, summary.cio_elements,
             round(summary.macs / summary.cio_elements, 6) if summary.cio_elements else 0)
    # csv writes a float by repr, which str() is too; no class cell holds a character it quotes
    tails = [",".join(map(str, cells)) + "\r\n" for cells in zip(*table.class_columns)]
    rows = zip(table.columns[0], labels, map(tails.__getitem__, table.classes))
    return "".join(chain((_csv_head(header, keys),), map("%d,%s,%s".__mod__, rows),
                         (",".join(map(str, total)) + "\r\n",)))


def report_json(graph: ArchGraph, summary: ModelSummary, header: Optional[dict] = None) -> str:
    from .jsonio import dumps_json
    return dumps_json({
        "header": header or {},
        "layers": _rows(graph, summary),
        "summary": {k: getattr(summary, k) for k in (
            "params", "macs", "cio_elements", "cio_bytes", "cio_mb", "dtype_bytes", "ds_weight")},
    })
