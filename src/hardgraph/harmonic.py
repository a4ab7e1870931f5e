"""Harmonic dense blocks and the HarDNet / FC-HarDNet model family.

Connection rule: layer k reads layer k - 2**n for every non-negative n with
2**n dividing k and k - 2**n >= 0; layer 0 is the block input.  Layers whose
index is divisible by a higher power of two are widened by the multiplier m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .graph_ir import (ArchGraph, Concat, Conv, GlobalPool, Input, Linear, Pool,
                       TensorShape, TransposedConv)


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
    out = []
    p = 1
    while layer_index % p == 0 and layer_index - p >= 0:
        out.append(layer_index - p)
        p *= 2
    return out


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


@dataclass(frozen=True)
class TransitionSpec:
    red: Optional[float] = None  # reduction rate on input channels
    t: Optional[int] = None      # explicit output channel count
    inverted: bool = False
    downsample: bool = True
    pool: str = "avg"

    def __post_init__(self):
        if (self.red is None) == (self.t is None):
            raise ValueError("exactly one of red / t must be given")


@dataclass(frozen=True)
class HDBSpec:
    depth: int
    growth_rate: int
    multiplier: float
    use_bottleneck: bool = False
    depthwise: bool = False
    keep_base: bool = False
    transition: Optional[TransitionSpec] = None

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if self.growth_rate < 1:
            raise ValueError("growth_rate must be >= 1")
        if not 1.0 < self.multiplier <= 3.0:
            raise ValueError("multiplier must be in (1, 3]")


@dataclass
class HDBResult:
    output: int
    internal: list = field(default_factory=list)
    layer_nodes: dict = field(default_factory=dict)  # HDB layer index -> node id


def _emit_conv_layer(graph, src, width, spec, tag):
    """One HDB layer: Conv3x3, or pointwise+depthwise pair in DS mode."""
    ids = []
    if spec.depthwise:
        pw = graph.add(Conv(width, kernel_h=1, kernel_w=1), [src], label=f"{tag}/pw")
        dw = graph.add(Conv(width, groups=width), [pw], label=f"{tag}/dw")
        ids += [pw, dw]
        return dw, ids
    cid = graph.add(Conv(width), [src], label=tag)
    return cid, [cid]


def build_hdb(spec: HDBSpec, input_node: int, graph: ArchGraph, tag: str = "hdb") -> HDBResult:
    """Emit layers 1..L plus the odd-layer output concat; returns the block
    output node and the per-layer node map."""
    res = HDBResult(output=input_node)
    res.layer_nodes[0] = input_node
    widths = {}
    for l in range(1, spec.depth + 1):
        links = hdb_links(l)
        srcs = [res.layer_nodes[i] for i in links]
        if len(srcs) > 1:
            src = graph.add(Concat(), srcs, label=f"{tag}/l{l}/cat")
            res.internal.append(src)
        else:
            src = srcs[0]
        width = channel_width(l, spec.growth_rate, spec.multiplier)
        if spec.use_bottleneck and l % 4 == 0:
            c_in = sum(widths[i] if i else graph.shapes[input_node].channels for i in links)
            b = bottleneck_channels(c_in, width)
            if b < c_in:
                src = graph.add(Conv(b, kernel_h=1, kernel_w=1), [src], label=f"{tag}/l{l}/bneck")
                res.internal.append(src)
        out, ids = _emit_conv_layer(graph, src, width, spec, f"{tag}/l{l}")
        res.internal += ids
        res.layer_nodes[l] = out
        widths[l] = width
    # output: layer L, preceding odd layers descending, optionally layer 0
    parts = [res.layer_nodes[spec.depth]]
    parts += [res.layer_nodes[i] for i in range(spec.depth - 1, 0, -2)]
    if spec.keep_base:
        parts.append(input_node)
    if len(parts) > 1:
        res.output = graph.add(Concat(), parts, label=f"{tag}/out")
        res.internal.append(res.output)
    else:
        res.output = parts[0]
    return res


def build_bare_hdb(spec: HDBSpec, input_shape: TensorShape) -> tuple:
    """Standalone HDB without the odd-layer output concat, for liveness
    studies of the raw connection pattern."""
    g = ArchGraph(name=f"bare-hdb-L{spec.depth}", input_shape=input_shape)
    inp = g.add(Input(), [])
    res = HDBResult(output=inp)
    res.layer_nodes[0] = inp
    for l in range(1, spec.depth + 1):
        srcs = [res.layer_nodes[i] for i in hdb_links(l)]
        if len(srcs) > 1:
            src = g.add(Concat(), srcs, label=f"l{l}/cat")
        else:
            src = srcs[0]
        cid = g.add(Conv(channel_width(l, spec.growth_rate, spec.multiplier)), [src], label=f"l{l}")
        res.layer_nodes[l] = cid
    res.output = res.layer_nodes[spec.depth]
    return g, res


def build_transition(input_node: int, spec: TransitionSpec, graph: ArchGraph,
                     c_in: int, tag: str = "trans") -> int:
    """Channel-compressing transition after an HDB.

    standard: Conv1x1 then 2x2 pooling (if downsampling);
    inverted: avg+max pool -> concat -> Conv1x1.
    """
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
        return graph.add(Pool(spec.pool), [conv], label=f"{tag}/pool")
    return conv


# --- model catalog ---------------------------------------------------------

@dataclass(frozen=True)
class _ClsConfig:
    """One HarDNet classification model (per-stride HDB stacks)."""
    name: str
    stem: tuple                      # (out_channels, kernel, stride, depthwise) tuples
    blocks: tuple                    # (depth, k, t_or_None) per HDB, in order
    downsample_after: tuple          # indices into blocks after which to down-sample
    m: float
    red: Optional[float]
    bottleneck: bool
    depthwise: bool
    keep_base: bool
    pool: str                        # down-sampling flavor: "max" or "avg"


# Per-HDB (depth, k, t); HarDNet-68/39DS carry explicit per-block k and t.
_HARDNET_CONFIGS = {
    "hardnet68": _ClsConfig(
        "hardnet68",
        stem=((32, 3, 2, False), (64, 3, 1, False)),
        blocks=((8, 14, 128), (16, 16, 256), (16, 20, 320), (16, 40, 640), (4, 160, 1024)),
        downsample_after=(0, 2, 3),
        m=1.7, red=None, bottleneck=False, depthwise=False, keep_base=False, pool="max",
    ),
    "hardnet39ds": _ClsConfig(
        "hardnet39ds",
        stem=((24, 3, 2, False), (48, 1, 1, False)),
        blocks=((4, 16, 96), (16, 20, 320), (8, 64, 640), (4, 160, 1024)),
        downsample_after=(0, 1, 2),
        m=1.6, red=None, bottleneck=False, depthwise=True, keep_base=False, pool="max",
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

NUM_CLASSES = 1000
_SL_RED = 0.85


def _build_sl(name: str, input_shape: TensorShape) -> ArchGraph:
    k, m, stages = _SL_LAYOUT[name]
    g = ArchGraph(name=name, input_shape=input_shape)
    node = g.add(Input(), [])
    node = g.add(Conv(64, kernel_h=7, kernel_w=7, stride=2), [node], label="stem")
    node = g.add(Pool("max"), [node], label="stem/pool")
    bi = 0
    for si, stage in enumerate(stages):
        for pi, depth in enumerate(stage):
            spec = HDBSpec(depth, k, m, use_bottleneck=True, keep_base=True)
            res = build_hdb(spec, node, g, tag=f"hdb{bi}")
            c = g.shapes[res.output].channels
            last_stage = si == len(stages) - 1
            last_in_stage = pi == len(stage) - 1
            # the final HDB keeps a (non-downsampling) transition before pooling
            tr = TransitionSpec(red=_SL_RED, downsample=last_in_stage and not last_stage,
                                pool="avg")
            node = build_transition(res.output, tr, g, c, tag=f"trans{bi}")
            bi += 1
    node = g.add(GlobalPool(), [node], label="gap")
    g.add(Linear(NUM_CLASSES), [node], label="fc")
    return g


def _build_hardnet_cls(cfg: _ClsConfig, input_shape: TensorShape) -> ArchGraph:
    g = ArchGraph(name=cfg.name, input_shape=input_shape)
    node = g.add(Input(), [])
    for i, (c, ksz, stride, _) in enumerate(cfg.stem):
        node = g.add(Conv(c, kernel_h=ksz, kernel_w=ksz, stride=stride), [node], label=f"stem{i}")
    node = g.add(Pool(cfg.pool), [node], label="stem/pool")
    for bi, (depth, k, t) in enumerate(cfg.blocks):
        spec = HDBSpec(depth, k, cfg.m, use_bottleneck=cfg.bottleneck,
                       depthwise=cfg.depthwise, keep_base=cfg.keep_base)
        res = build_hdb(spec, node, g, tag=f"hdb{bi}")
        c = g.shapes[res.output].channels
        tr = TransitionSpec(t=t, downsample=False) if t else TransitionSpec(red=cfg.red, downsample=False)
        node = build_transition(res.output, tr, g, c, tag=f"trans{bi}")
        if bi in cfg.downsample_after:
            node = g.add(Pool(cfg.pool), [node], label=f"down{bi}")
    node = g.add(GlobalPool(), [node], label="gap")
    g.add(Linear(NUM_CLASSES), [node], label="fc")
    return g


# --- FC (segmentation) models ---------------------------------------------

@dataclass(frozen=True)
class _FCConfig:
    name: str
    first_conv: int
    depths: tuple        # 6 encoder blocks, last one is the bottom block
    growth: tuple        # per-block growth rates (len 6)
    m: float


_FC_CONFIGS = {
    "fc-hardnet68": _FCConfig("fc-hardnet68", 8, (4, 4, 4, 4, 8, 8), (4, 6, 8, 8, 10, 10), 1.7),
    "fc-hardnet76": _FCConfig("fc-hardnet76", 24, (4, 4, 4, 8, 8, 8), (8, 10, 12, 12, 12, 14), 1.7),
    "fc-hardnet84": _FCConfig("fc-hardnet84", 32, (4, 4, 8, 8, 8, 8), (10, 12, 14, 16, 20, 22), 1.7),
    "fc-hardnet-ref100": _FCConfig("fc-hardnet-ref100", 48, (8, 8, 8, 8, 8, 8), (10,) * 6, 1.54),
}

FC_NUM_CLASSES = 12  # CamVid: 11 classes + void
_FC_RED = 1.0  # down-transitions keep their channel count, FC-DenseNet style


def _build_fc_hardnet(cfg: _FCConfig, input_shape: TensorShape) -> ArchGraph:
    """Encoder-decoder segmentation net with HDBs and block-level skips."""
    g = ArchGraph(name=cfg.name, input_shape=input_shape)
    node = g.add(Input(), [])
    node = g.add(Conv(cfg.first_conv), [node], label="stem")
    skips = []
    n_down = len(cfg.depths) - 1
    for bi in range(n_down):
        spec = HDBSpec(cfg.depths[bi], cfg.growth[bi], cfg.m, keep_base=True)
        res = build_hdb(spec, node, g, tag=f"enc{bi}")
        skips.append(res.output)
        c = g.shapes[res.output].channels
        node = build_transition(res.output, TransitionSpec(red=_FC_RED, pool="avg"),
                                g, c, tag=f"down{bi}")
    # bottom block
    spec = HDBSpec(cfg.depths[-1], cfg.growth[-1], cfg.m, keep_base=False)
    res = build_hdb(spec, node, g, tag="bottom")
    node = res.output
    for ui in range(n_down - 1, -1, -1):
        c = g.shapes[node].channels
        node = g.add(TransposedConv(c, kernel=3), [node], label=f"up{ui}/tconv")
        node = g.add(Concat(), [node, skips[ui]], label=f"up{ui}/skip")
        # the top decoder block keeps its input so the classifier sees the
        # full-resolution concat, as in the FC-DenseNet head
        spec = HDBSpec(cfg.depths[ui], cfg.growth[ui], cfg.m, keep_base=(ui == 0))
        res = build_hdb(spec, node, g, tag=f"dec{ui}")
        node = res.output
    g.add(Conv(FC_NUM_CLASSES, kernel_h=1, kernel_w=1, bias=True), [node], label="classifier")
    return g


HARDNET_VARIANTS = tuple(sorted(
    list(_HARDNET_CONFIGS) + list(_SL_LAYOUT) + list(_FC_CONFIGS)))

DEFAULT_CLS_INPUT = TensorShape(3, 224, 224)
DEFAULT_FC_INPUT = TensorShape(3, 352, 480)


def default_input(name: str) -> TensorShape:
    return DEFAULT_FC_INPUT if name.startswith("fc-") else DEFAULT_CLS_INPUT


def build_model(name: str, input_shape: Optional[TensorShape] = None) -> ArchGraph:
    """Build a HarDNet-family variant by its stable CLI name."""
    name = name.lower()
    if input_shape is None:
        input_shape = default_input(name)
    if name in _HARDNET_CONFIGS:
        return _build_hardnet_cls(_HARDNET_CONFIGS[name], input_shape)
    if name in _SL_LAYOUT:
        return _build_sl(name, input_shape)
    if name in _FC_CONFIGS:
        return _build_fc_hardnet(_FC_CONFIGS[name], input_shape)
    raise KeyError(f"unknown HarDNet variant {name!r}")
