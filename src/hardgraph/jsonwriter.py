"""The JSON writer of the reports and graph JSON.  It loads no ``json``: strings go through
the C encoder json uses, and only a value of a type no table here holds, such as a subclass
of a scalar type, loads json's own encoder."""

from _json import encode_basestring_ascii
from itertools import chain

from .graph_ir import Table

# JSON's literals as json writes them, the non-finite floats (its allow_nan) by their repr
_LITERALS = {None: "null", True: "true", False: "false",
             "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SCALAR_TEXT = {str: encode_basestring_ascii, int: int.__repr__,  # as json writes them
                float: lambda x: _LITERALS.get(text := float.__repr__(x), text),
                bool: _LITERALS.__getitem__, type(None): _LITERALS.__getitem__}


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
    if isinstance(value, dict):
        if not value:
            return "{}"
        head, sep, tail = _frame("{", "}", level)
        parts = [head]
        for k, v in sorted(value.items()):
            # encode_basestring_ascii raises TypeError on a key that is not a str
            parts += encode_basestring_ascii(k), ": ", _dumps(v, level + 1), sep
        parts[-1] = tail
        return "".join(parts)
    if isinstance(value, (list, tuple)):
        return _block("[", [_dumps(v, level + 1) for v in value], "]", level) if value else "[]"
    from json import dumps  # a scalar subclass or an unsupported value: json's text or TypeError
    return dumps(value)


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
    """A table column's values as JSON text: if they share one type that ``_SCALAR_TEXT``
    holds, its function mapped over them, else ``_dumps`` of each."""
    types = {int} if type(column) is range else set(map(type, column))  # a range: node ids
    text = _SCALAR_TEXT.get(types.pop()) if len(types) == 1 else None
    return list(map(text, column)) if text else [_dumps(v, level) for v in column]
