"""Harmonic dense blocks and the HarDNet / FC-HarDNet model family.

Connection rule: layer k reads layer k - 2**n for every non-negative n with
2**n dividing k and k - 2**n >= 0; layer 0 is the block input.  Layers whose
index is divisible by a higher power of two are widened by the multiplier m.
"""

import math
from typing import NamedTuple, Optional

from .graph_ir import (ArchGraph, Concat, Conv, GlobalPool, Input, Linear, Pool,
                       TensorShape, TransposedConv, _Value)


def round_even(x: float) -> int:
    """Largest even integer <= x; channel counts stay hardware-friendly."""
    return 2 * int(math.floor(x / 2))


def v2(k: int) -> int:
    """2-adic valuation: largest n with 2**n dividing k."""
    if k <= 0:
        raise ValueError("v2 requires a positive integer")
    return (k & -k).bit_length() - 1


def hdb_links(layer_index: int) -> list:
    """Input layer indices of layer k: {k - 2**n : 2**n | k, k - 2**n >= 0},
    descending."""
    if layer_index < 1:
        raise ValueError("layer_index must be >= 1 (0 is the block input)")
    return [layer_index - 2 ** n for n in range(v2(layer_index) + 1)]


def log_links(layer_index: int) -> list:
    """Input layer indices of layer k under the log rule of LogDenseNet and
    SparseNet: {k - 2**n : k - 2**n >= 0}, descending."""
    if layer_index < 1:
        raise ValueError("layer_index must be >= 1")
    return [layer_index - 2 ** n for n in range(layer_index.bit_length())]


def channel_width(layer_index: int, k: int, m: float) -> int:
    """Output channels of layer l: k * m**v2(l), even-floored; odd layers get
    exactly k."""
    if layer_index < 1:
        raise ValueError("layer_index must be >= 1")
    n = v2(layer_index)
    if n == 0:
        return k
    return round_even(k * m ** n)


def bottleneck_channels(c_in: int, c_out: int) -> int:
    """sqrt(c_in / c_out) * c_out, even-floored, never wider than c_in."""
    if c_in < 1 or c_out < 1:
        raise ValueError("channel counts must be >= 1")
    return min(round_even(math.sqrt(c_in / c_out) * c_out), c_in)


class TransitionSpec(_Value):
    __slots__ = ("red", "t", "inverted", "downsample")  # red: rate, t: channels out

    def __init__(self, red: Optional[float] = None, t: Optional[int] = None,
                 inverted: bool = False, downsample: bool = True):
        self._set_fields(red, t, inverted, downsample)
        if (red is None) == (t is None):
            raise ValueError("exactly one of red / t must be given")


class HDBSpec(_Value):
    __slots__ = ("depth", "growth_rate", "multiplier", "use_bottleneck", "depthwise", "keep_base")

    def __init__(self, depth: int, growth_rate: int, multiplier: float,
                 use_bottleneck: bool = False, depthwise: bool = False, keep_base: bool = False):
        self._set_fields(depth, growth_rate, multiplier, use_bottleneck, depthwise, keep_base)
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if growth_rate < 1:
            raise ValueError("growth_rate must be >= 1")
        if not 1.0 < multiplier <= 3.0:
            raise ValueError("multiplier must be in (1, 3]")


class HDBResult(NamedTuple):
    output: int
    layer_nodes: dict  # HDB layer index -> node id


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


def _conv3x3(width):
    """Emitter: one 3x3 conv of ``width(l)`` channels."""
    return lambda graph, src, l, label: graph.add(Conv(width(l)), [src], label=label)


def _hdb_layer(spec: HDBSpec):
    """Emitter: a 1x1 bottleneck on every fourth layer (when it narrows the
    input), then a Conv3x3, or a pointwise+depthwise pair in DS mode."""
    def emit(graph, src, l, label):
        width = channel_width(l, spec.growth_rate, spec.multiplier)
        if spec.use_bottleneck and l % 4 == 0:
            c_in = graph.shapes[src].channels
            b = bottleneck_channels(c_in, width)
            if b < c_in:
                src = graph.add(Conv(b, kernel_h=1, kernel_w=1), [src], label=f"{label}/bneck")
        if spec.depthwise:
            pw = graph.add(Conv(width, kernel_h=1, kernel_w=1), [src], label=f"{label}/pw")
            return graph.add(Conv(width, groups=width), [pw], label=f"{label}/dw")
        return graph.add(Conv(width), [src], label=label)
    return emit


def build_hdb(spec: HDBSpec, input_node: int, graph: ArchGraph, tag: str = "hdb") -> HDBResult:
    """Emit layers 1..L plus the odd-layer output concat; returns the block
    output node and the per-layer node map."""
    # output: layer L, preceding odd layers descending, optionally layer 0
    return HDBResult(*_build_block(
        graph, input_node, spec.depth, hdb_links, _hdb_layer(spec),
        lambda L: [L, *range(L - 1, 0, -2)] + ([0] if spec.keep_base else []), f"{tag}/"))


def build_bare_hdb(spec: HDBSpec, input_shape: TensorShape) -> tuple:
    """Standalone HDB without the odd-layer output concat, for liveness
    studies of the raw connection pattern."""
    g = ArchGraph(name=f"bare-hdb-L{spec.depth}", input_shape=input_shape)
    emit = _conv3x3(lambda l: channel_width(l, spec.growth_rate, spec.multiplier))
    return g, HDBResult(*_build_block(g, g.add(Input(), []), spec.depth, hdb_links, emit,
                                      lambda L: [L], ""))


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


# --- class counts, shared with references ---------------------------------

NUM_CLASSES = 1000
FC_NUM_CLASSES = 12  # CamVid: 11 classes + void


# --- model catalog ---------------------------------------------------------

class _ClsConfig(NamedTuple):
    """One HarDNet classification model (per-stride HDB stacks)."""
    stem: tuple                      # (out_channels, kernel, stride) tuples
    blocks: tuple                    # (depth, k, t) per HDB, in order
    downsample_after: tuple          # indices into blocks after which to max-pool
    m: float
    depthwise: bool


# Per-HDB (depth, k, t); HarDNet-68/39DS carry explicit per-block k and t.
_HARDNET_CONFIGS = {
    "hardnet68": _ClsConfig(
        stem=((32, 3, 2), (64, 3, 1)),
        blocks=((8, 14, 128), (16, 16, 256), (16, 20, 320), (16, 40, 640), (4, 160, 1024)),
        downsample_after=(0, 2, 3),
        m=1.7, depthwise=False,
    ),
    "hardnet39ds": _ClsConfig(
        stem=((24, 3, 2), (48, 1, 1)),
        blocks=((4, 16, 96), (16, 20, 320), (8, 64, 640), (4, 160, 1024)),
        downsample_after=(0, 1, 2),
        m=1.6, depthwise=True,
    ),
}

# s/L family: global dense connection, bottlenecks, red=0.85 transitions.
_SL_LAYOUT = {
    # name -> (k, m, per-stride HDB depth lists)
    "hardnet96s": (20, 1.6, ((8,), (16,), (16, 16), (16,))),
    "hardnet96l": (26, 1.6, ((8,), (16,), (16, 16), (16,))),
    "hardnet117s": (26, 1.6, ((8,), (16,), (16, 16, 16), (16,))),
    "hardnet117l": (30, 1.6, ((8,), (16,), (16, 16, 16), (16,))),
    "hardnet138s": (30, 1.6, ((8,), (16,), (16, 16, 16), (16, 16))),
    "hardnet138l": (32, 1.65, ((8,), (16,), (16, 16, 16), (16, 16))),
}

_SL_RED = 0.85


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


def _build_sl(name: str, input_shape: TensorShape) -> ArchGraph:
    k, m, stages = _SL_LAYOUT[name]

    def body(g, node):
        bi = 0
        for si, stage in enumerate(stages):
            for pi, depth in enumerate(stage):
                spec = HDBSpec(depth, k, m, use_bottleneck=True, keep_base=True)
                res = build_hdb(spec, node, g, tag=f"hdb{bi}")
                last_stage = si == len(stages) - 1
                last_in_stage = pi == len(stage) - 1
                # the final HDB keeps a (non-downsampling) transition before pooling
                tr = TransitionSpec(red=_SL_RED, downsample=last_in_stage and not last_stage)
                node = build_transition(res.output, tr, g, tag=f"trans{bi}")
                bi += 1
        return node

    return _build_cls(name, input_shape, ((64, 7, 2),), body)


def _build_hardnet_cls(name: str, input_shape: TensorShape) -> ArchGraph:
    cfg = _HARDNET_CONFIGS[name]

    def body(g, node):
        for bi, (depth, k, t) in enumerate(cfg.blocks):
            spec = HDBSpec(depth, k, cfg.m, depthwise=cfg.depthwise)
            res = build_hdb(spec, node, g, tag=f"hdb{bi}")
            node = build_transition(res.output, TransitionSpec(t=t, downsample=False), g,
                                    tag=f"trans{bi}")
            if bi in cfg.downsample_after:
                node = g.add(Pool("max"), [node], label=f"down{bi}")
        return node

    return _build_cls(name, input_shape, cfg.stem, body)


# --- FC (segmentation) models ---------------------------------------------

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


class _FCConfig(NamedTuple):
    first_conv: int
    depths: tuple        # 6 encoder blocks, last one is the bottom block
    growth: tuple        # per-block growth rates (len 6)
    m: float


_FC_CONFIGS = {
    "fc-hardnet68": _FCConfig(8, (4, 4, 4, 4, 8, 8), (4, 6, 8, 8, 10, 10), 1.7),
    "fc-hardnet76": _FCConfig(24, (4, 4, 4, 8, 8, 8), (8, 10, 12, 12, 12, 14), 1.7),
    "fc-hardnet84": _FCConfig(32, (4, 4, 8, 8, 8, 8), (10, 12, 14, 16, 20, 22), 1.7),
    "fc-hardnet-ref100": _FCConfig(48, (8, 8, 8, 8, 8, 8), (10,) * 6, 1.54),
}


def _build_fc_hardnet(name: str, input_shape: TensorShape) -> ArchGraph:
    """Encoder-decoder segmentation net with HDBs and block-level skips."""
    cfg = _FC_CONFIGS[name]

    def block(graph, node, i, tag, keep_base):
        spec = HDBSpec(cfg.depths[i], cfg.growth[i], cfg.m, keep_base=keep_base)
        return build_hdb(spec, node, graph, tag=tag).output

    return _build_fc(name, input_shape, cfg.first_conv, cfg.depths, block, "avg")


_BUILDERS = {**dict.fromkeys(_HARDNET_CONFIGS, _build_hardnet_cls),
             **dict.fromkeys(_SL_LAYOUT, _build_sl),
             **dict.fromkeys(_FC_CONFIGS, _build_fc_hardnet)}


def build_model(name: str, input_shape: TensorShape) -> ArchGraph:
    """Build a HarDNet-family variant by its stable CLI name (``registry.build`` checks names)."""
    return _BUILDERS[name](name, input_shape)
