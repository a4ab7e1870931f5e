"""Graph JSON I/O and the JSON writer: the one module that loads ``json``."""

import gc, json, marshal
from itertools import chain, count, repeat
from json.encoder import encode_basestring_ascii
from math import copysign
from operator import not_
from typing import Optional

from .graph_ir import _KIND_NAMES, ArchGraph, Conv, GraphError, Input, TensorShape, _check_links
from .metrics import Table

_NAME_KINDS = {v: k for k, v in _KIND_NAMES.items()}


def graph_to_json(g: ArchGraph) -> str:
    """The text of ``ArchGraph.to_json``."""
    plain = _template(("id", "inputs", "kind", "params"), 2)
    labelled = _template(("id", "inputs", "kind", "label", "params"), 2)
    head, sep, tail = _frame("[", "]", 3)  # an inputs list
    kinds, texts = {}, []
    for nid, k, inputs, label in zip(count(), g.kinds, g.inputs, g.labels):
        kind = kinds.get(k)
        if kind is None:
            kind = kinds[k] = (_dumps(_KIND_NAMES[type(k)], 3),
                               _dumps({p: getattr(k, p) for p in k.json_params}, 3))
        # inputs are ints (see _check_links), which JSON writes as str() does
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
            # csv.writer on 3.10, which the CSV reports match, refuses a NUL; no label needs one
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


# --- JSON writer ------------------------------------------------------------

_encode_scalar = json.JSONEncoder().encode
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__}  # as json writes them


def dumps_json(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, with a ``Table`` written
    as its list of rows; keys must be strings.  With an indent the stdlib takes one Python
    step per token; a table is instead encoded column by column, its class cells once per
    class, and an object's text is joined once, so a table's text is copied once per level."""
    return _dumps(doc, 0)


def _dumps(value, level: int) -> str:
    text = _SCALAR_TEXT.get(type(value))
    if text is not None:
        return text(value)
    if type(value) is Table:
        return _dumps_table(value, level)
    if isinstance(value, dict) and value:
        head, sep, tail = _frame("{", "}", level)
        parts = [head]
        for k, v in sorted(value.items()):
            # encode_basestring_ascii raises TypeError on a key that is not a str
            parts += encode_basestring_ascii(k), ": ", _dumps(v, level + 1), sep
        parts[-1] = tail
        return "".join(parts)
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


def _template(keys, level: int, node_keys=()) -> str:
    """A JSON object at ``level`` whose sorted ``keys`` each hold a ``%s`` slot, or a NUL
    for ``node_keys``; a key's '%' is doubled, so ``%`` fills only the slots."""
    return _block("{", [encode_basestring_ascii(k).replace("%", "%%")
                        + (": \0" if k in node_keys else ": %s") for k in sorted(keys)], "}", level)


def _dumps_table(table: Table, level: int) -> str:
    """Class cells fill the row text around the node cells once per class; those pieces, through
    ``classes``, and the node cells fill one list for one join.  No class columns: one class."""
    classes = table.classes if table.class_keys else [0] * len((table.columns or [()])[0])
    if not classes:
        return "[]"
    head, sep, tail = _frame("[", "]", level)
    row = _template(table.keys + table.class_keys, level + 1, table.keys) + sep
    by_class = sorted(zip(table.class_keys, table.class_columns))
    cells = zip(*[_encode_column(c, level + 2) for _, c in by_class]) if by_class else [()]
    # each class's row, cut at the node cells (no NUL in a cell): piece j of class c at c*width+j
    pieces, width = "\0".join(map(row.__mod__, cells)).split("\0"), len(table.keys) + 1
    nodes = [_encode_column(c, level + 2) for _, c in sorted(zip(table.keys, table.columns))]
    columns = [map(pieces[j::width].__getitem__, classes) for j in range(width)]
    parts = [head] + [None] * (len(classes) * (2 * width - 1))  # filled a column at a time, in C
    for j, column in enumerate([*chain.from_iterable(zip(columns, nodes)), columns[-1]]):
        parts[1 + j::2 * width - 1] = column
    parts[-1] = parts[-1][:-len(sep)] + tail  # the last row closes the list
    return "".join(parts)


def _encode_column(column, level: int) -> list:
    """A table column's values as JSON text: strings in one call, all ints or all floats once
    per distinct value, unless -0.0 (== 0.0), NaN or an infinity (spelt apart) is there."""
    if type(column) is range:  # node ids
        return list(map(int.__repr__, column))
    types = set(map(type, column))
    if types == {str}:
        return list(map(encode_basestring_ascii, column))
    if types == {int} or types == {float} and min(
            map(copysign, repeat(1.0), filter(not_, column)), default=1.0) > 0:
        texts = dict(zip(distinct := set(column), map(repr, distinct)))
        if {"nan", "inf", "-inf"}.isdisjoint(texts.values()):
            return list(map(texts.__getitem__, column))
    return [_dumps(v, level) for v in column]
