"""Architecture graph IR: layer kinds, shape inference, scheduling, JSON I/O.

Graphs are append-only.  Once a graph knows its input shape, each appended
node gets its output shape at once, so every node of such a graph has one;
every analysis in the other modules is a pure read.
"""

from __future__ import annotations

from itertools import count
from operator import attrgetter
from typing import Iterable, Optional


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
        self._set_fields(channels, height, width)
        self._check_counts(self.__slots__)

    @property
    def element_count(self) -> int:
        return self.channels * self.height * self.width

    def as_list(self) -> list:
        return [self.channels, self.height, self.width]

    def __str__(self):  # CxHxW, as reports print a shape
        return f"{self.channels}x{self.height}x{self.width}"


def _interner():
    """A shape maker: equal (c, h, w) give one shared TensorShape, which is
    safe because shapes are immutable."""
    table = {}

    def shape(c: int, h: int, w: int) -> TensorShape:
        s = table.get((c, h, w))
        if s is None:
            try:
                s = table[(c, h, w)] = TensorShape(c, h, w)
            except GraphError:
                raise GraphError(f"output shape would be {c}x{h}x{w}") from None
        return s
    return shape


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
_NAME_KINDS = {v: k for k, v in _KIND_NAMES.items()}


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

    def __init__(self, name: str = "graph", *, input_shape: Optional[TensorShape] = None):
        self.name, self.input_shape = name, input_shape
        self.kinds, self.inputs, self.labels, self.shapes = [], [], [], {}
        self.classes, self.class_first = [], []
        # the shape maker the shape rules call; equal shapes share one object
        self._shape = _interner()

    @property
    def nodes(self) -> list:
        """Each node as a ``Node``, built from the columns on every read."""
        return list(map(Node, count(), self.kinds, self.inputs, self.labels))

    # --- construction ---

    def add(self, kind: _Kind, inputs: Iterable[int] = (), label: Optional[str] = None) -> int:
        """Append a node, in a class of its own; with ``input_shape`` set, shape it now."""
        inputs, nid = tuple(inputs), len(self.kinds)
        # node 0 is the one Input: no other node can come first, with no earlier id to read
        _check_links(nid, type(kind), inputs, nid > 0)
        if self.input_shape is not None:
            self.shapes[nid] = self._rule(nid, kind, inputs, label)
        self.kinds.append(kind)
        self.inputs.append(inputs)
        self.labels.append(label)
        self.classes.append(len(self.class_first))
        self.class_first.append(nid)
        return nid

    def validate(self) -> None:
        # add and from_json give node 0 as the one Input, and inputs that precede their node
        if not self.kinds:
            raise GraphError("graph must have exactly one Input node, found 0")

    # --- shape inference ---

    def infer_shapes(self, input_shape: TensorShape) -> "ArchGraph":
        """Shape every node at ``input_shape``: for a graph built without an
        input shape, or to re-shape a graph at a new one.  Nodes group into
        classes: a node whose kind and input shapes are an earlier node's
        objects shares that node's class and output shape, so each class runs
        its shape rule once."""
        self.validate()
        before = vars(self).copy()
        self.input_shape, self._shape = input_shape, _interner()
        self.shapes, self.classes, self.class_first = shapes, classes, firsts = {}, [], []
        index, outs, labels = {}, [], self.labels
        get = shapes.__getitem__
        try:
            for nid, kind, inputs in zip(count(), self.kinds, self.inputs):
                key = (id(kind), *map(id, map(get, inputs)))  # ints: hashed in C
                c = index.get(key)
                if c is None:
                    c = index[key] = len(firsts)
                    firsts.append(nid)
                    outs.append(self._rule(nid, kind, inputs, labels[nid]))
                classes.append(c)
                shapes[nid] = outs[c]
        except GraphError:
            vars(self).update(before)
            raise
        return self

    def _rule(self, nid: int, kind: _Kind, inputs: tuple, label: Optional[str]) -> TensorShape:
        """A node's output shape: the one place shape rules run and shape errors get its name."""
        kind_type = type(kind)
        if kind_type is Input:
            return self.input_shape
        rule = _SHAPE_RULES.get(kind_type)
        if rule is None:
            raise GraphError(f"unknown kind {kind!r}")
        try:
            ins = [self.shapes[i] for i in inputs]
            return rule(kind, ins, self._shape)
        except KeyError as e:  # input_shape was set by hand, not by infer_shapes
            raise GraphError(f"{_node_name(nid, kind, label)}: input {e} has no shape; "
                             "call infer_shapes") from None
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
        """``json.dumps(doc, indent=2, sort_keys=True)`` of the graph, byte for byte:
        one template per node, each distinct kind's name and params encoded
        once (kind fields are type-checked, so equal kinds print alike)."""
        # metrics holds the JSON writer and loads json, which a cold start skips
        from .metrics import _block, _dumps, _frame, _template
        plain = _template(("id", "inputs", "kind", "params"), 2)
        labelled = _template(("id", "inputs", "kind", "label", "params"), 2)
        head, sep, tail = _frame("[", "]", 3)  # an inputs list
        kinds, texts = {}, []
        for nid, k, inputs, label in zip(count(), self.kinds, self.inputs, self.labels):
            kind = kinds.get(k)
            if kind is None:
                kind = kinds[k] = (_dumps(_KIND_NAMES[type(k)], 3),
                                   _dumps({p: getattr(k, p) for p in k.json_params}, 3))
            # inputs are ints (see _check_links), which JSON writes as str() does
            ins = head + sep.join(map(str, inputs)) + tail if inputs else "[]"
            texts.append(labelled % (nid, ins, kind[0], _dumps(label, 3), kind[1])
                         if label else plain % (nid, ins, *kind))
        return _template(("input", "name", "nodes"), 0) % (
            _dumps(self.input_shape.as_list() if self.input_shape else None, 1),
            _dumps(self.name, 1), _block("[", texts, "]", 1) if texts else "[]")

    @classmethod
    def from_json(cls, text: str, input_hw: Optional[tuple] = None) -> "ArchGraph":
        """Load graph JSON in one pass over its nodes, then one shape pass.

        Each node passes the checks ``add`` makes.  Each distinct (kind,
        params) pair is built and validated once and shared by every node
        that names it, so nodes group into classes and each class's shape
        rule runs once: at the stored input, or at ``input_hw`` = (height,
        width) when given, with the stored channel count (3 if the file
        stores no input).  The load makes no reference cycles, so the cyclic
        collector is paused over it, then left as the caller had it.
        """
        import gc, marshal
        collecting = gc.isenabled()
        gc.disable()
        try:
            doc, name = _json_object(text, "graph")
            records = doc.get("nodes")
            if type(records) is not list:
                raise GraphError("graph JSON needs a 'nodes' list")
            # nodes may come in any order, but ids 0 .. n-1 must each appear once
            n = len(records)
            kinds, inputs, labels = [None] * n, [None] * n, [None] * n
            interned, has_input = {}, False
            for d in records:
                nid = d.get("id") if type(d) is dict else None
                if type(nid) is not int:
                    raise GraphError("every node must be an object with an integer id, "
                                     f"got {nid!r}")
                if not 0 <= nid < n or kinds[nid] is not None:
                    where = "repeats" if 0 <= nid < n else f"is outside 0..{n - 1}"
                    raise GraphError(f"node id {nid} {where}: node ids must be contiguous from 0")
                kind_name, params = d.get("kind"), d.get("params", {})
                # marshal writes each value's type and exact bits (true, 1, 1.0 and
                # -0.0 stay apart, in a kernel list too), and version 2 no back-references
                try:
                    kind = interned.get(key := (kind_name, marshal.dumps(params, 2)))
                except (TypeError, ValueError):  # unhashable or too deep: the build raises
                    key = kind = None
                if kind is None:
                    kind = interned[key] = _kind_from_json(kind_name, params, nid)
                ins = d.get("inputs", [])
                if type(ins) is not list:
                    raise GraphError(f"node {nid}: inputs must be a list of node ids, got {ins!r}")
                kinds[nid], inputs[nid] = kind, tuple(ins)
                _check_links(nid, type(kind), inputs[nid], has_input)
                has_input = has_input or type(kind) is Input
                label = labels[nid] = d.get("label")
                # a NUL would stop csv on 3.10 and has no use in a layer name
                if label is not None and (type(label) is not str or "\0" in label):
                    raise GraphError(f"node {nid}: label must be a NUL-free string, got {label!r}")
            shape, input_shape = doc.get("input"), None
            if shape is not None:
                if type(shape) is not list or len(shape) != 3:
                    raise GraphError(f"input must be [channels, height, width], got {shape!r}")
                try:
                    input_shape = TensorShape(*shape)
                except GraphError as e:
                    raise GraphError(f"input {shape!r}: {e}") from None
            if input_hw is not None:
                input_shape = TensorShape(input_shape.channels if input_shape else 3, *input_hw)
            g = cls(name)
            g.kinds, g.inputs, g.labels = kinds, inputs, labels
            if input_shape is not None:
                return g.infer_shapes(input_shape)
            g.classes, g.class_first = list(range(n)), list(range(n))
            return g
        finally:
            if collecting:
                gc.enable()


def _json_object(text: str, what: str) -> tuple:
    """Parse ``what`` JSON (graph or platform): an object whose optional
    ``name``, ``what`` by default, is a string.  Returns (object, name)."""
    import json
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise GraphError(f"malformed {what} JSON: {e}") from e
    if type(doc) is not dict:
        raise GraphError(f"{what} JSON must be an object, got {type(doc).__name__}")
    name = doc.get("name", what)
    if type(name) is not str:
        raise GraphError(f"{what} name must be a string, got {name!r}")
    return doc, name


def _node_name(nid: int, kind: _Kind, label: Optional[str]) -> str:
    return f"{_KIND_NAMES[type(kind)]} {nid}" + (f" ({label})" if label else "")


def _check_links(nid: int, kind_type: type, inputs: tuple, has_input: bool) -> None:
    """What a node of ``kind_type`` must satisfy to be appended as node ``nid``."""
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


# --- shape rules: (kind, input shapes, shape maker) -> output shape ---

def _same_spatial(ins: list) -> bool:
    s = ins[0]
    return all(i.height == s.height and i.width == s.width for i in ins)


def _conv_shape(k: Conv, ins: list, shape) -> TensorShape:
    s = ins[0]
    c_in = s.channels
    if len(ins) > 1:
        if not _same_spatial(ins):
            raise GraphError("spatial mismatch among concatenated inputs")
        c_in = sum(i.channels for i in ins)
    if c_in % k.groups != 0:
        raise GraphError(f"groups={k.groups} does not divide c_in={c_in}")
    return shape(k.out_channels, _conv_out(s.height, k.kernel_h, k.stride, k.dilation),
                 _conv_out(s.width, k.kernel_w, k.stride, k.dilation))


def _concat_shape(k: Concat, ins: list, shape) -> TensorShape:
    if not _same_spatial(ins):
        raise GraphError("inputs disagree on spatial size")
    return shape(sum(i.channels for i in ins), ins[0].height, ins[0].width)


def _add_shape(k: Add, ins: list, shape) -> TensorShape:
    if any(i != ins[0] for i in ins):
        raise GraphError("inputs must share one shape")
    return ins[0]


_SHAPE_RULES = {
    Conv: _conv_shape,
    Concat: _concat_shape,
    Add: _add_shape,
    Pool: lambda k, ins, shape: shape(
        ins[0].channels, ins[0].height // k.stride, ins[0].width // k.stride),
    TransposedConv: lambda k, ins, shape: shape(
        k.out_channels, ins[0].height * k.stride, ins[0].width * k.stride),
    GlobalPool: lambda k, ins, shape: shape(ins[0].channels, 1, 1),
    Linear: lambda k, ins, shape: shape(k.out_features, 1, 1),
}


def _conv_out(size: int, kernel: int, stride: int, dilation: int) -> int:
    # "same" padding for odd kernels; even kernels pad to keep stride tiling.
    pad = dilation * (kernel - 1) // 2
    return (size + 2 * pad - dilation * (kernel - 1) - 1) // stride + 1


def _kind_from_json(name, params, nid: int) -> _Kind:
    cls = _NAME_KINDS.get(name) if type(name) is str else None
    if cls is None:
        raise GraphError(f"node {nid}: unknown node kind {name!r}")
    if type(params) is not dict:
        raise GraphError(f"node {nid}: params must be an object, got {params!r}")
    unknown = params.keys() - cls.json_params
    if unknown:
        raise GraphError(f"node {nid}: unknown {name} params {sorted(unknown)}")
    args = dict(params)
    if cls is Conv and "kernel" in args:
        kernel = args.pop("kernel")
        if type(kernel) is not list or len(kernel) != 2:
            raise GraphError(f"node {nid}: conv kernel must be [height, width], got {kernel!r}")
        args["kernel_h"], args["kernel_w"] = kernel
    missing = [p for p in cls.json_params[:1] if p not in params]
    if missing:
        raise GraphError(f"node {nid}: {name} needs params {missing}")
    try:
        return cls(**args)
    except GraphError as e:
        raise GraphError(f"node {nid}: {e}") from None


def to_dot(graph: ArchGraph) -> str:
    """Graphviz DOT rendering, one DOT node per graph node; a quoted ID escapes ``\\`` and ``"``.
    Each class's kind name and shape text are made once."""
    quote = lambda text: text.replace("\\", "\\\\").replace('"', '\\"')
    kinds, shapes, firsts = graph.kinds, graph.shapes, graph.class_first
    names = [_KIND_NAMES[type(kinds[nid])] for nid in firsts]  # for unlabelled nodes
    tails = [f'\\n{shapes[nid]}"];' if nid in shapes else '"];' for nid in firsts]
    lines = [f'digraph "{quote(graph.name)}" {{', "  rankdir=TB;"]
    lines += [f'  n{nid} [label="{nid}: {quote(label) if label else names[c]}{tails[c]}'
              for nid, label, c in zip(count(), graph.labels, graph.classes)]
    lines += [f"  n{i} -> n{nid};" for nid, inputs in enumerate(graph.inputs) for i in inputs]
    lines.append("}")
    return "\n".join(lines) + "\n"
