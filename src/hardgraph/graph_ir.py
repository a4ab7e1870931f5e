"""Architecture graph IR: layer kinds, shape inference, scheduling, JSON I/O.

Graphs are append-only.  Once a graph knows its input shape, each appended
node gets its output shape at once, so every node of such a graph has one;
every analysis in the other modules is a pure read.
"""

from __future__ import annotations

from typing import Iterable, Optional


class GraphError(ValueError):
    """Raised for malformed graphs or invalid construction steps."""


class _Value:
    """An immutable record whose fields are its ``__slots__``, set once in
    ``__init__`` through ``_setters``.  It equals, and hashes like, only
    values of its own type with equal fields, so ``Linear(8) != (8,)``."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

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

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._fields() == other._fields() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):  # for copy and pickle: __init__ takes the fields in slot order
        return type(self), self._fields()

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
        # built once per graph node, so unpacked setters rather than _set_fields's loop
        set_id, set_kind, set_inputs, set_label = self._setters
        set_id(self, id)
        set_kind(self, kind)
        set_inputs(self, inputs)
        set_label(self, label)


class ArchGraph:
    def __init__(self, name: str = "graph", nodes: Optional[list] = None,
                 shapes: Optional[dict] = None, input_shape: Optional[TensorShape] = None):
        self.name, self.input_shape = name, input_shape
        self.nodes = [] if nodes is None else nodes
        self.shapes = {} if shapes is None else shapes
        # the shape maker the shape rules call; equal shapes share one object
        self._shape = _interner()

    # --- construction ---

    def add(self, kind: _Kind, inputs: Iterable[int] = (), label: Optional[str] = None) -> int:
        """Append a node; with ``input_shape`` set, its shape is inferred now."""
        inputs = tuple(inputs)
        nid = len(self.nodes)
        kind_type = type(kind)
        has_input = kind_type is Input and any(type(n.kind) is Input for n in self.nodes)
        _check_links(nid, kind_type, inputs, has_input)
        node = Node(nid, kind, inputs, label)
        if self.input_shape is not None:
            self._shape_nodes((node,))
        self.nodes.append(node)
        return nid

    def node(self, nid: int) -> Node:
        return self.nodes[nid]

    def validate(self) -> None:
        n_inputs = sum(type(n.kind) is Input for n in self.nodes)
        if n_inputs != 1:
            raise GraphError(f"graph must have exactly one Input node, found {n_inputs}")
        for n in self.nodes:
            if n.inputs and max(n.inputs) >= n.id:
                bad = next(i for i in n.inputs if i >= n.id)
                raise GraphError(f"node {n.id} references non-preceding input {bad}")

    # --- shape inference ---

    def infer_shapes(self, input_shape: TensorShape) -> "ArchGraph":
        """Shape every node at ``input_shape``: for a graph built without an
        input shape, or to re-shape a graph at a new one."""
        self.validate()
        before = self.input_shape, self.shapes, self._shape
        self.input_shape, self.shapes, self._shape = input_shape, {}, _interner()
        try:
            self._shape_nodes(self.nodes)
        except GraphError:
            self.input_shape, self.shapes, self._shape = before
            raise
        return self

    def _shape_nodes(self, nodes: Iterable[Node]) -> None:
        """Give each node, in order, its output shape from its inputs' shapes:
        the one place shape rules run, and where shape errors get the node's
        name.  ``add`` passes one node, ``infer_shapes`` all of them."""
        shapes, shape, input_shape = self.shapes, self._shape, self.input_shape
        for n in nodes:
            kind_type = type(n.kind)
            if kind_type is Input:
                shapes[n.id] = input_shape
                continue
            rule = _SHAPE_RULES.get(kind_type)
            if rule is None:
                raise GraphError(f"unknown kind {n.kind!r}")
            try:
                ins = [shapes[i] for i in n.inputs]
                shapes[n.id] = rule(n.kind, ins, shape)
            except KeyError as e:  # nodes or input_shape were set without add()
                raise GraphError(f"{_node_name(n)}: input {e} has no shape; "
                                 "call infer_shapes") from None
            except GraphError as e:
                given = ", ".join(f"{s.channels}x{s.height}x{s.width}" for s in ins)
                raise GraphError(f"{_node_name(n)}: {e}; input shapes {given}") from None

    def conv_input_shape(self, n: Node) -> TensorShape:
        """Effective (possibly concatenated) input tensor of a node."""
        ins = [self.shapes[i] for i in n.inputs]
        if len(ins) == 1:
            return ins[0]
        return TensorShape(sum(i.channels for i in ins), ins[0].height, ins[0].width)

    # --- scheduling ---

    def schedule(self) -> list:
        """Deterministic topological order; ties broken by ascending node id.

        validate() rejects any input that does not precede its node, so
        ascending id order is itself the tie-broken topological order.
        """
        self.validate()
        return [n.id for n in self.nodes]

    # --- serialization ---

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "input": self.input_shape.as_list() if self.input_shape else None,
            "nodes": [
                {
                    "id": n.id,
                    "kind": _KIND_NAMES[type(n.kind)],
                    "params": {p: getattr(n.kind, p) for p in n.kind.json_params},
                    "inputs": list(n.inputs),
                    **({"label": n.label} if n.label else {}),
                }
                for n in self.nodes
            ],
        }
        import json  # only graph JSON I/O needs it, so a cold start skips it
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, input_hw: Optional[tuple] = None) -> "ArchGraph":
        """Load graph JSON in one pass over its nodes.

        Each node passes the checks ``add`` makes.  Each distinct (kind,
        params) pair is built and validated once and shared by every node
        that names it (see ``_kind_key``).  Shapes are inferred once: at
        the stored input, or at ``input_hw`` = (height, width) when given,
        with the stored channel count (3 if the file stores no input).
        """
        import json
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:  # JSONDecodeError is a ValueError
            raise GraphError(f"malformed graph JSON: {e}") from e
        if type(doc) is not dict:
            raise GraphError(f"graph JSON must be an object, got {type(doc).__name__}")
        name, records = doc.get("name", "graph"), doc.get("nodes")
        if type(name) is not str:
            raise GraphError(f"graph name must be a string, got {name!r}")
        if type(records) is not list:
            raise GraphError("graph JSON needs a 'nodes' list")
        # nodes may come in any order, but ids 0 .. n-1 must each appear once
        ordered = [None] * len(records)
        for d in records:
            nid = d.get("id") if type(d) is dict else None
            if type(nid) is not int:
                raise GraphError(f"every node must be an object with an integer id, got {nid!r}")
            if not 0 <= nid < len(ordered) or ordered[nid] is not None:
                raise GraphError("node ids must be contiguous from 0")
            ordered[nid] = d
        g = cls(name=name)
        nodes, kinds, has_input = g.nodes, {}, False
        for nid, d in enumerate(ordered):
            kind_name, params = d.get("kind"), d.get("params", {})
            key = _kind_key(kind_name, params)
            try:
                kind = kinds.get(key)
            except TypeError:  # a list or object where a number belongs: the build raises
                kind = None
            if kind is None:
                kind = kinds[key] = _kind_from_json(kind_name, params, nid)
            inputs = d.get("inputs", [])
            if type(inputs) is not list:
                raise GraphError(f"node {nid}: inputs must be a list of node ids, got {inputs!r}")
            inputs = tuple(inputs)
            kind_type = type(kind)
            _check_links(nid, kind_type, inputs, has_input)
            has_input = has_input or kind_type is Input
            label = d.get("label")
            if label is not None and type(label) is not str:
                raise GraphError(f"node {nid}: label must be a string, got {label!r}")
            nodes.append(Node(nid, kind, inputs, label))
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
        if input_shape is not None:
            # each node passed _check_links, so a graph with nodes has its one
            # Input at node 0: of validate()'s checks, only the empty graph is left
            if not nodes:
                raise GraphError("graph must have exactly one Input node, found 0")
            g.input_shape = input_shape
            g._shape_nodes(nodes)
        return g


def _node_name(n: Node) -> str:
    return f"{_KIND_NAMES[type(n.kind)]} {n.id}" + (f" ({n.label})" if n.label else "")


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


def _kind_key(name, params):
    """``from_json``'s key for a kind: its name, each param's name, type and value
    (``true``, ``1``, ``1.0`` stay apart, in a kernel list too)."""
    if type(params) is not dict:
        return None  # the build raises, so None is never stored
    kernel = params.get("kernel")
    if type(kernel) is list:  # the one list a kind accepts
        params = {**params, "kernel": (*map(type, kernel), *kernel)}
    values = params.values()
    return (name, *params, *map(type, values), *values)


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
    """Graphviz DOT rendering, one DOT node per graph node."""
    lines = [f'digraph "{graph.name}" {{', "  rankdir=TB;"]
    for n in graph.nodes:
        kind = _KIND_NAMES[type(n.kind)]
        shape = graph.shapes.get(n.id)
        extra = f"\\n{shape.channels}x{shape.height}x{shape.width}" if shape else ""
        label = n.label or kind
        lines.append(f'  n{n.id} [label="{n.id}: {label}{extra}"];')
    for n in graph.nodes:
        for i in n.inputs:
            lines.append(f"  n{i} -> n{n.id};")
    lines.append("}")
    return "\n".join(lines) + "\n"
