"""The block skeletons HarDNet and the reference models share: the dense-block loop, the
transition, the classification and FC encoder-decoder skeletons, and the class counts."""

import math
from typing import Optional

from .graph_ir import (ArchGraph, Concat, Conv, GlobalPool, Input, Linear, Pool, TensorShape,
                       TransposedConv, _Value)


def round_even(x: float) -> int:
    """Largest even integer <= x; channel counts stay hardware-friendly."""
    return 2 * int(math.floor(x / 2))


def log_links(layer_index: int) -> list:
    """Input layer indices of layer k under the log rule of LogDenseNet and
    SparseNet: {k - 2**n : k - 2**n >= 0}, descending."""
    if layer_index < 1:
        raise ValueError("layer_index must be >= 1")
    return [layer_index - 2 ** n for n in range(layer_index.bit_length())]


class TransitionSpec(_Value):
    __slots__ = ("red", "t", "inverted", "downsample")  # red: rate, t: channels out

    def __init__(self, red: Optional[float] = None, t: Optional[int] = None,
                 inverted: bool = False, downsample: bool = True):
        self._set_fields(red, t, inverted, downsample)
        if (red is None) == (t is None):
            raise ValueError("exactly one of red / t must be given")


def _build_block(graph: ArchGraph, node: int, depth: int, links, emit, outputs,
                 prefix: str, first: int = 1) -> tuple:
    """The one dense-block loop: HDB, DenseNet, LogDenseNet and SparseNet.

    Index 0 is the block input ``node``.  Layer l = 1..depth reads layers
    ``links(l)``, through a concat if several, and ``emit(graph, src, l,
    label)`` appends its nodes and returns the last; labels are
    ``{prefix}l{l - 1 + first}``.  The block passes on the concat of layers
    ``outputs(depth)``.  Returns (output node, {layer index: node id})."""
    nodes = {0: node}
    for l in range(1, depth + 1):
        label = f"{prefix}l{l - 1 + first}"
        srcs = [nodes[i] for i in links(l)]
        src = graph.add(Concat(), srcs, label=f"{label}/cat") if len(srcs) > 1 else srcs[0]
        nodes[l] = emit(graph, src, l, label)
    parts = [nodes[i] for i in outputs(depth)]
    out = graph.add(Concat(), parts, label=f"{prefix}out") if len(parts) > 1 else parts[0]
    return out, nodes


def build_transition(input_node: int, spec: TransitionSpec, graph: ArchGraph,
                     tag: str = "trans") -> int:
    """Channel-compressing transition after ``input_node``, an HDB output.

    standard: Conv1x1 then 2x2 average pooling (if downsampling);
    inverted: avg+max pool -> concat -> Conv1x1.
    """
    c_in = graph.shapes[input_node].channels
    t_out = spec.t if spec.t is not None else round_even(spec.red * c_in)
    if spec.inverted:
        if not spec.downsample:
            raise ValueError("inverted transition implies down-sampling")
        a = graph.add(Pool("avg"), [input_node], label=f"{tag}/avg")
        b = graph.add(Pool("max"), [input_node], label=f"{tag}/max")
        cat = graph.add(Concat(), [a, b], label=f"{tag}/cat")
        return graph.add(Conv(t_out, kernel_h=1, kernel_w=1), [cat], label=f"{tag}/conv")
    conv = graph.add(Conv(t_out, kernel_h=1, kernel_w=1), [input_node], label=f"{tag}/conv")
    if spec.downsample:
        return graph.add(Pool("avg"), [conv], label=f"{tag}/pool")
    return conv


NUM_CLASSES = 1000
FC_NUM_CLASSES = 12  # CamVid: 11 classes + void


def _build_cls(name: str, input_shape: TensorShape, stem: tuple, body) -> ArchGraph:
    """The classification skeleton: input, the ``stem`` convs of (channels,
    kernel, stride), a max pool, ``body(graph, node)``, which appends the body
    and returns its output, then global pooling and the FC head."""
    g = ArchGraph(name=name, input_shape=input_shape)
    node = g.add(Input(), [])
    for i, (c, ksz, stride) in enumerate(stem):
        label = f"stem{i}" if len(stem) > 1 else "stem"
        node = g.add(Conv(c, kernel_h=ksz, kernel_w=ksz, stride=stride), [node], label=label)
    node = g.add(Pool("max"), [node], label="stem/pool")
    node = g.add(GlobalPool(), [body(g, node)], label="gap")
    g.add(Linear(NUM_CLASSES), [node], label="fc")
    return g


def _build_fc(name: str, input_shape: TensorShape, first_conv: int, depths: tuple,
              block, pool: str) -> ArchGraph:
    """The FC encoder-decoder (Jegou et al., 2017).  ``depths`` lists the
    encoder blocks, then the bottom block; ``block(graph, node, i, tag,
    keep_base)`` appends block ``i`` after ``node`` and returns its output."""
    g = ArchGraph(name=name, input_shape=input_shape)
    node = g.add(Conv(first_conv), [g.add(Input(), [])], label="stem")
    skips = []
    n_down = len(depths) - 1
    for bi in range(n_down):
        skips.append(block(g, node, bi, f"enc{bi}", True))
        c = g.shapes[skips[bi]].channels  # a same-width down-transition
        node = g.add(Conv(c, kernel_h=1, kernel_w=1), [skips[bi]], label=f"down{bi}/conv")
        node = g.add(Pool(pool), [node], label=f"down{bi}/pool")
    node = block(g, node, n_down, "bottom", False)
    for ui in range(n_down - 1, -1, -1):
        c = g.shapes[node].channels
        node = g.add(TransposedConv(c, kernel=3, stride=2), [node], label=f"up{ui}/tconv")
        node = g.add(Concat(), [node, skips[ui]], label=f"up{ui}/skip")
        # the top decoder block keeps its input so the classifier sees the
        # full-resolution concat, as in the FC-DenseNet head
        node = block(g, node, ui, f"dec{ui}", ui == 0)
    g.add(Conv(FC_NUM_CLASSES, kernel_h=1, kernel_w=1, bias=True), [node], label="classifier")
    return g
