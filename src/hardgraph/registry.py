"""Single lookup point for every built-in model name."""

from __future__ import annotations

from typing import Optional

from . import harmonic
from .graph_ir import ArchGraph, TensorShape

# model name -> its builder's (kinds, inputs, labels), equal kinds one object.
# Builders read only the channel counts of shapes, which no input changes, so a
# model has the same nodes at every input; the name alone is the key.
_NODES = {}


def __getattr__(name: str):  # imports references for MODEL_NAMES only when it is read
    if name != "MODEL_NAMES":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .references import REFERENCE_MODELS
    global MODEL_NAMES
    MODEL_NAMES = tuple(sorted(harmonic.HARDNET_VARIANTS + REFERENCE_MODELS))
    return MODEL_NAMES


def default_input(name: str) -> TensorShape:
    return harmonic.default_input(name.lower())


def build(name: str, input_shape: Optional[TensorShape] = None) -> ArchGraph:
    """Build a catalog model.  Its builder runs once per process, at the
    model's default input; every build copies those nodes and shapes them in
    one pass at ``input_shape``, which groups nodes into classes."""
    key = name.lower()
    nodes = _NODES.get(key)
    if nodes is None:
        if key in harmonic.HARDNET_VARIANTS:
            g = harmonic.build_model(key)
        else:
            from . import references
            if key not in references.REFERENCE_MODELS:
                raise KeyError(f"unknown model {name!r}; see list-models")
            g = references.build_reference(key)
        canon = {}  # equal kinds merged, so the shape pass groups their nodes by id()
        nodes = _NODES[key] = (tuple(canon.setdefault(k, k) for k in g.kinds),
                               tuple(g.inputs), tuple(g.labels))
    g = ArchGraph(key)
    g.kinds, g.inputs, g.labels = map(list, nodes)
    return g.infer_shapes(input_shape or default_input(key))
