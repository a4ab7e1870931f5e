"""Graph JSON I/O, and the JSON-object check that graph and platform files share."""

import gc, marshal
from itertools import count
from typing import Optional

from .graph_ir import _KIND_NAMES, ArchGraph, Conv, GraphError, Input, TensorShape, _check_node

_NAME_KINDS = {v: k for k, v in _KIND_NAMES.items()}
# a node record's default params and inputs, shared by every load: it copies, never changes, them
_NO_PARAMS, _NO_INPUTS = {}, []


def graph_to_json(g: ArchGraph) -> str:
    """The text of ``ArchGraph.to_json``."""
    from .jsonwriter import _block, _dumps, _frame, _template  # not at the top: a load writes none
    plain = _template(("id", "inputs", "kind", "params"), 2)
    labelled = _template(("id", "inputs", "kind", "label", "params"), 2)
    head, sep, tail = _frame("[", "]", 3)  # an inputs list
    kinds, texts = {}, []
    for nid, k, inputs, label in zip(count(), g.kinds, g.inputs, g.labels):
        kind = kinds.get(k)
        if kind is None:
            kind = kinds[k] = (_dumps(_KIND_NAMES[type(k)], 3),
                               _dumps({p: getattr(k, p) for p in k.json_params}, 3))
        # inputs are ints (see _check_node), which JSON writes as str() does
        ins = head + sep.join(map(str, inputs)) + tail if inputs else "[]"
        texts.append(labelled % (nid, ins, kind[0], _dumps(label, 3), kind[1])
                     if label else plain % (nid, ins, *kind))
    return _template(("input", "name", "nodes"), 0) % (
        _dumps(g.input_shape.as_list(), 1),
        _dumps(g.name, 1), _block("[", texts, "]", 1) if texts else "[]")


def graph_from_json(cls, text: str, input_hw: Optional[tuple] = None) -> ArchGraph:
    """The graph of ``ArchGraph.from_json``, made by ``cls``."""
    collecting = gc.isenabled()  # the load makes no reference cycles: pause the collector
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
            kind_name, params = d.get("kind"), d.get("params", _NO_PARAMS)
            # marshal writes each value's type and exact bits (true, 1, 1.0 and
            # -0.0 stay apart, in a kernel list too), and version 2 no back-references
            try:
                kind = interned.get(key := (kind_name, marshal.dumps(params, 2)))
            except (TypeError, ValueError):  # unhashable or too deep: the build raises
                key = kind = None
            if kind is None:
                kind = interned[key] = _kind_from_json(kind_name, params, nid)
            ins = d.get("inputs", _NO_INPUTS)
            if type(ins) is not list:
                raise GraphError(f"node {nid}: inputs must be a list of node ids, got {ins!r}")
            kinds[nid], inputs[nid] = kind, tuple(ins)
            label = labels[nid] = d.get("label")
            _check_node(nid, kind, inputs[nid], label, has_input)
            has_input = has_input or type(kind) is Input
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
        elif input_shape is None:
            raise GraphError("graph JSON has no input shape; pass --input HxW")
        g = cls(name, input_shape=input_shape)
        g.kinds, g.inputs, g.labels = kinds, inputs, labels
        return g.infer_shapes(input_shape)
    finally:
        if collecting:
            gc.enable()


def _json_object(text: str, what: str) -> tuple:
    """Parse ``what`` JSON (graph or platform): an object whose optional
    ``name``, ``what`` by default, is a string.  Returns (object, name)."""
    import json  # not at the top: writing graph JSON needs no json
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


def _kind_from_json(name, params, nid: int):
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
