"""Single lookup point for every built-in model name."""

from typing import Optional

# model name -> the module whose _BUILDERS builds it (a test holds the tables equal)
_FAMILIES = dict.fromkeys("fc-hardnet-ref100 fc-hardnet68 fc-hardnet76 fc-hardnet84 hardnet117l "
                          "hardnet117s hardnet138l hardnet138s hardnet39ds hardnet68 hardnet96l "
                          "hardnet96s".split(), "harmonic")
_FAMILIES.update(dict.fromkeys("densenet121 densenet201 densenet264 fc-densenet-ref100 "
                               "fc-densenet103 fc-densenet56 fc-densenet67 fc-sparsenet-ref100 "
                               "resnet101 resnet152 resnet18 resnet50 vgg16".split(), "references"))
MODEL_NAMES = tuple(sorted(_FAMILIES))

# model name -> its builder's (kinds, inputs, labels), equal kinds one object.
# Builders read only the channel counts of shapes, which no input changes, so a
# model has the same nodes at every input; the name alone is the key.
_NODES = {}


def default_input(name: str) -> "TensorShape":
    """A model's default input: 352x480 for segmentation (``fc-``) models, else 224x224."""
    if name.lower() not in _FAMILIES:
        raise KeyError(f"unknown model {name!r}; see list-models")
    from .graph_ir import _shape  # not at the top: list-models loads no graph_ir
    return _shape(3, 352, 480) if name.lower().startswith("fc-") else _shape(3, 224, 224)


def build(name: str, input_shape: Optional["TensorShape"] = None) -> "ArchGraph":
    """Build a catalog model.  Its builder runs once per process, at the
    model's default input; every build copies those nodes and shapes them in
    one pass at ``input_shape``, which groups nodes into classes."""
    key, default = name.lower(), default_input(name)  # which checks the name
    nodes = _NODES.get(key)
    if nodes is None:
        if _FAMILIES[key] == "harmonic":
            from . import harmonic
            g = harmonic.build_model(key, default)
        else:
            from . import references
            g = references.build_reference(key, default)
        canon = {}  # equal kinds merged, so the shape pass groups their nodes by id()
        nodes = _NODES[key] = (tuple(canon.setdefault(k, k) for k in g.kinds),
                               tuple(g.inputs), tuple(g.labels))
    from .graph_ir import ArchGraph
    g = ArchGraph(key, input_shape=input_shape or default)
    g.kinds, g.inputs, g.labels = map(list, nodes)
    return g.infer_shapes(g.input_shape)
