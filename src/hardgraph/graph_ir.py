"""Architecture graph IR: layer kinds, shape inference, scheduling, DOT.

Graphs are append-only and made with their input shape, so each appended
node gets its output shape at once and every node has one; every analysis in
the other modules is a pure read.
"""

from itertools import count
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence


class GraphError(ValueError):
    """Raised for malformed graphs or invalid construction steps."""


class _Value:
    """An immutable record whose fields are its ``__slots__``, set once in
    ``__init__`` through ``_setters``.  It equals, and hashes like, only
    values of its own type with equal fields, so ``Linear(8) != (8,)``."""

    __slots__ = ()

    def __init_subclass__(cls):
        slots = cls.__slots__
        cls._setters = tuple(vars(cls)[name].__set__ for name in slots)
        # the fields as a tuple, read in C (to_json hashes one kind per node);
        # attrgetter gives a bare value for one name and takes no zero names
        get = attrgetter(*slots) if slots else None
        cls._fields = property(get if len(slots) > 1 else
                               (lambda self: (get(self),)) if slots else lambda self: ())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _set_fields(self, *values) -> None:
        for set_field, value in zip(self._setters, values):
            set_field(self, value)

    def _check_counts(self, names) -> None:
        """Counts are plain positive ints; ``True`` is not a count of 1."""
        for name in names:
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise GraphError(f"{type(self).__name__}.{name} must be a positive integer, "
                                 f"got {value!r}")

    def __eq__(self, other):
        return self._fields == other._fields if type(other) is type(self) else NotImplemented

    def __hash__(self):  # by type too, so field-less kinds do not all collide
        return hash((type(self), self._fields))

    def __reduce__(self):  # for copy and pickle: __init__ takes the fields in slot order
        return type(self), self._fields

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class TensorShape(_Value):
    __slots__ = ("channels", "height", "width")

    def __init__(self, channels: int, height: int, width: int):
        set_channels, set_height, set_width = self._setters
        set_channels(self, channels)
        set_height(self, height)
        set_width(self, width)
        if not (type(channels) is type(height) is type(width) is int
                and channels > 0 and height > 0 and width > 0):
            self._check_counts(self.__slots__)

    @property
    def element_count(self) -> int:
        return self.channels * self.height * self.width

    def as_list(self) -> list:
        return [self.channels, self.height, self.width]

    def __str__(self):  # CxHxW, as reports print a shape
        return f"{self.channels}x{self.height}x{self.width}"


_SHAPES = {}  # (c, h, w) -> its one TensorShape: every shape the process has made, kept


def _shape(c: int, h: int, w: int) -> TensorShape:
    """The shape maker: equal (c, h, w) give one shared TensorShape, which is safe
    because shapes are immutable, so a repeat build makes no new shape."""
    s = _SHAPES.get((c, h, w))
    if s is None:
        try:
            s = _SHAPES[(c, h, w)] = TensorShape(c, h, w)
        except GraphError:
            raise GraphError(f"output shape would be {c}x{h}x{w}") from None
    return s


# --- layer kinds -----------------------------------------------------------

class _Kind(_Value):
    """A layer kind; ``json_params`` lists its graph-JSON params, the first without default."""

    __slots__ = ()
    json_params = ()


class Input(_Kind):
    __slots__ = ()


class Conv(_Kind):
    __slots__ = ("out_channels", "kernel_h", "kernel_w", "stride", "dilation", "groups", "bias")
    json_params = ("out_channels", "kernel", "stride", "dilation", "groups", "bias")

    def __init__(self, out_channels: int, kernel_h: int = 3, kernel_w: int = 3, stride: int = 1,
                 dilation: int = 1, groups: int = 1, bias: bool = False):
        self._set_fields(out_channels, kernel_h, kernel_w, stride, dilation, groups, bias)
        self._check_counts(self.__slots__[:-1])
        if type(bias) is not bool:
            raise GraphError(f"Conv.bias must be true or false, got {bias!r}")
        if out_channels % groups != 0:
            raise GraphError("groups must divide out_channels")

    @property
    def kernel(self) -> list:
        return [self.kernel_h, self.kernel_w]


class Pool(_Kind):
    __slots__ = json_params = ("mode", "kernel", "stride")  # mode: "avg" | "max"

    def __init__(self, mode: str, kernel: int = 2, stride: int = 2):
        self._set_fields(mode, kernel, stride)
        if mode not in ("avg", "max"):
            raise GraphError(f"unknown pool mode {mode!r}")
        self._check_counts(("kernel", "stride"))


class TransposedConv(_Kind):
    __slots__ = json_params = ("out_channels", "kernel", "stride")

    def __init__(self, out_channels: int, kernel: int = 2, stride: int = 2):
        self._set_fields(out_channels, kernel, stride)
        self._check_counts(self.__slots__)


class Concat(_Kind):
    __slots__ = ()


class Add(_Kind):
    """Element-wise sum (residual shortcut); all inputs share one shape."""
    __slots__ = ()


class GlobalPool(_Kind):
    __slots__ = ()


class Linear(_Kind):
    __slots__ = json_params = ("out_features",)

    def __init__(self, out_features: int):
        self._set_fields(out_features)
        self._check_counts(self.__slots__)


_KIND_NAMES = {Input: "input", Conv: "conv", Pool: "pool", TransposedConv: "tconv",
               Concat: "concat", Add: "add", GlobalPool: "global_pool", Linear: "linear"}


class Node(_Value):
    __slots__ = ("id", "kind", "inputs", "label")

    def __init__(self, id: int, kind: _Kind, inputs: tuple, label: Optional[str] = None):
        self._set_fields(id, kind, inputs, label)


class ArchGraph:
    """A dataflow graph as columns: node ``nid`` is ``kinds[nid]`` applied to
    ``inputs[nid]`` (earlier ids), with ``labels[nid]`` and ``shapes[nid]``.
    Nodes of one class share kind and input shapes, so analyses compute one
    row per class and broadcast it through ``classes`` (each node's class;
    class c first appears at node ``class_first[c]``)."""

    def __init__(self, name: str = "graph", *, input_shape: TensorShape):
        self.name, self.input_shape = name, input_shape
        self.kinds, self.inputs, self.labels, self.shapes = [], [], [], []
        self.classes, self.class_first = [], []

    @property
    def nodes(self) -> list:
        """Each node as a ``Node``, built from the columns on every read."""
        return list(map(Node, count(), self.kinds, self.inputs, self.labels))

    # --- construction ---

    def add(self, kind: _Kind, inputs: Iterable[int] = (), label: Optional[str] = None) -> int:
        """Append a node, in a class of its own, and shape it."""
        inputs, nid = tuple(inputs), len(self.kinds)
        # node 0 is the one Input: no other node can come first, with no earlier id to read
        _check_node(nid, kind, inputs, label, nid > 0)
        self.shapes.append(self._rule(nid, kind, inputs, label))
        self.kinds.append(kind)
        self.inputs.append(inputs)
        self.labels.append(label)
        self.classes.append(len(self.class_first))
        self.class_first.append(nid)
        return nid

    # --- shape inference ---

    def infer_shapes(self, input_shape: TensorShape) -> "ArchGraph":
        """Re-shape every node at ``input_shape``; on failure the graph keeps its
        old input and shapes.  Nodes group into classes: a node whose kind and
        input shapes are an earlier node's objects shares that node's class and
        output shape, so each class runs its shape rule once."""
        # add and from_json give node 0 as the one Input, and inputs that precede their node
        if not self.kinds:
            raise GraphError("graph must have exactly one Input node, found 0")
        before = vars(self).copy()
        self.input_shape = input_shape
        self.shapes, self.classes, self.class_first = shapes, classes, firsts = [], [], []
        index, outs, labels = {}, [], self.labels
        ids = []  # each shaped node's output shape id()
        get = ids.__getitem__
        try:
            for nid, kind, inputs in zip(count(), self.kinds, self.inputs):
                # ints, hashed in C; most nodes have one input, and a tuple display with a
                # starred map costs them ~4x
                key = ((id(kind), get(inputs[0])) if len(inputs) == 1 else
                       (id(kind), *map(get, inputs)))
                c = index.get(key)
                if c is None:
                    c = index[key] = len(firsts)
                    firsts.append(nid)
                    outs.append(self._rule(nid, kind, inputs, labels[nid]))
                classes.append(c)
                shapes.append(outs[c])
                ids.append(id(outs[c]))
        except GraphError:
            vars(self).update(before)
            raise
        return self

    def _rule(self, nid: int, kind: _Kind, inputs: tuple, label: Optional[str]) -> TensorShape:
        """A node's output shape: the one place shape rules run, several inputs (but an add's)
        are read as ``_read_shape`` reads them, and shape errors get the node's name."""
        kind_type = type(kind)
        if kind_type is Input:
            if type(self.input_shape) is not TensorShape:
                raise GraphError(f"input_shape must be a TensorShape, got {self.input_shape!r}")
            return self.input_shape
        rule, shapes = _SHAPE_RULES[kind_type], self.shapes  # _check_node let in only known kinds
        ins = [shapes[inputs[0]]] if len(inputs) == 1 else list(map(shapes.__getitem__, inputs))
        try:
            if len(ins) < 2 or kind_type is Add:
                return rule(kind, ins)
            return rule(kind, (_read_shape(ins),))
        except GraphError as e:
            given = ", ".join(map(str, ins))
            raise GraphError(f"{_node_name(nid, kind, label)}: {e}; input shapes {given}") from None

    # --- scheduling ---

    def schedule(self) -> list:
        """Deterministic topological order; ties broken by ascending node id.

        ``add`` and ``from_json`` reject any input that does not precede its
        node, so ascending id order is itself the tie-broken topological order.
        """
        return list(range(len(self.kinds)))

    # --- serialization ---

    def to_json(self) -> str:
        """``json.dumps(doc, indent=2, sort_keys=True)`` of the graph, byte for byte, each
        distinct kind encoded once (kind fields are type-checked, so equal kinds print alike)."""
        from .jsonio import graph_to_json  # not at the top: jsonio imports graph_ir
        return graph_to_json(self)

    @classmethod
    def from_json(cls, text: str, input_hw: Optional[tuple] = None) -> "ArchGraph":
        """Load graph JSON, each node checked as ``add`` checks it, then shape it in one pass at
        the stored input, or at ``input_hw`` = (height, width) with the stored channel count
        (3 if none is stored); one of the two is needed.  Nodes naming one (kind, params) pair
        share one kind object, so they group into classes and each class's shape rule runs once."""
        from .jsonio import graph_from_json
        return graph_from_json(cls, text, input_hw)


class Table(NamedTuple):
    """Report rows as columns: row r maps ``keys[i]`` to ``columns[i][r]`` and ``class_keys[j]``
    to the class cell ``class_columns[j][classes[r]]``; ``dumps_json`` writes that list of dicts."""
    keys: tuple
    columns: tuple
    class_keys: tuple = ()
    class_columns: tuple = ()
    classes: Sequence = ()


def _csv_head(header: Optional[dict], keys: tuple) -> str:
    """A CSV report's start: a ``# key: value`` line per ``header`` item, by key, then ``keys``."""
    return "".join(f"# {k}: {header[k]}\n" for k in sorted(header or ())) + ",".join(keys) + "\r\n"


def _csv_labels(labels: list) -> list:
    """Labels as ``csv.writer`` writes them: quoted, with ``"`` doubled, when they hold a
    character it quotes (graph JSON cannot carry a NUL, which csv on 3.10 refuses)."""
    special = lambda text: any(map(text.__contains__, ',"\r\n'))
    if not special("".join(labels)):
        return labels
    return ['"%s"' % l.replace('"', '""') if special(l) else l for l in labels]


def _node_name(nid: int, kind: _Kind, label: Optional[str]) -> str:
    return f"{_KIND_NAMES[type(kind)]} {nid}" + (f" ({label})" if label else "")


def _check_node(nid: int, kind: _Kind, inputs: tuple, label, has_input: bool) -> None:
    """What a node must satisfy to be appended as node ``nid``: a known kind, then its links, then
    a NUL-free label (csv.writer on 3.10, which the CSV reports match, refuses a NUL)."""
    kind_type = type(kind)
    if kind_type not in _KIND_NAMES:
        raise GraphError(f"unknown kind {kind!r}")
    if kind_type is Input:
        if has_input:
            raise GraphError("graph already has an Input node")
        if inputs:
            raise GraphError("Input node takes no inputs")
    elif not inputs:
        raise GraphError(f"{_KIND_NAMES[kind_type]} node requires >= 1 input")
    elif kind_type is Concat and len(inputs) < 2:
        raise GraphError("Concat requires >= 2 inputs")
    for i in inputs:
        if type(i) is not int or not 0 <= i < nid:
            raise GraphError(f"unknown input id {i!r} for node {nid}")
    if label is not None and (type(label) is not str or "\0" in label):
        raise GraphError(f"node {nid}: label must be a NUL-free string, got {label!r}")


# --- shape rules: (kind, input shapes) -> output shape, made by _shape ---

_channels, _spatial = attrgetter("channels"), attrgetter("height", "width")


def _read_shape(ins: Sequence) -> TensorShape:
    """What a node with several inputs reads: their channel concatenation, on their one grid."""
    if len(set(map(_spatial, ins))) > 1:
        raise GraphError("inputs disagree on spatial size")
    return _shape(sum(map(_channels, ins)), ins[0].height, ins[0].width)


def _conv_shape(k: Conv, ins: Sequence) -> TensorShape:
    s = ins[0]
    if s.channels % k.groups != 0:
        raise GraphError(f"groups={k.groups} does not divide c_in={s.channels}")
    # "same" padding for odd kernels; even kernels pad to keep stride tiling:
    # out = (size + 2 * (span // 2) - span - 1) // stride + 1, span = dilation * (kernel - 1)
    span_h, span_w = k.dilation * (k.kernel_h - 1), k.dilation * (k.kernel_w - 1)
    return _shape(k.out_channels, (s.height - 1 - span_h % 2) // k.stride + 1,
                  (s.width - 1 - span_w % 2) // k.stride + 1)


def _add_shape(k: Add, ins: list) -> TensorShape:
    if any(i != ins[0] for i in ins):
        raise GraphError("inputs must share one shape")
    return ins[0]


_SHAPE_RULES = {
    Conv: _conv_shape,
    Concat: lambda k, ins: ins[0],
    Add: _add_shape,
    Pool: lambda k, ins: _shape(
        ins[0].channels, ins[0].height // k.stride, ins[0].width // k.stride),
    TransposedConv: lambda k, ins: _shape(
        k.out_channels, ins[0].height * k.stride, ins[0].width * k.stride),
    GlobalPool: lambda k, ins: _shape(ins[0].channels, 1, 1),
    Linear: lambda k, ins: _shape(k.out_features, 1, 1),
}


def to_dot(graph: ArchGraph) -> str:
    """Graphviz DOT rendering, one DOT node per graph node; a quoted ID escapes ``\\`` and ``"``."""
    quote = lambda text: text.replace("\\", "\\\\").replace('"', '\\"')
    lines = [f'digraph "{quote(graph.name)}" {{', "  rankdir=TB;"]
    lines += [f'  n{nid} [label="{nid}: {quote(label) if label else _KIND_NAMES[type(k)]}\\n{s}"];'
              for nid, k, label, s in zip(count(), graph.kinds, graph.labels, graph.shapes)]
    lines += [f"  n{i} -> n{nid};" for nid, inputs in enumerate(graph.inputs) for i in inputs]
    lines.append("}")
    return "\n".join(lines) + "\n"
