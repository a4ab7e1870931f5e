"""Harmonic dense blocks and the HarDNet / FC-HarDNet model family.

Connection rule: layer k reads layer k - 2**n for every non-negative n with
2**n dividing k and k - 2**n >= 0; layer 0 is the block input.  Layers whose
index is divisible by a higher power of two are widened by the multiplier m.
"""

import math
from typing import NamedTuple

from .blocks import (TransitionSpec, _build_block, _build_cls, _build_fc, build_transition,
                     round_even)
from .graph_ir import ArchGraph, Conv, Input, Pool, TensorShape, _Value


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
    return g, HDBResult(*_build_block(g, g.add(Input(), []), spec.depth, hdb_links,
                                      _hdb_layer(spec), lambda L: [L], ""))


# --- classification models --------------------------------------------------

def _explicit_blocks(m: float, depthwise: bool, blocks: tuple, pools_after: tuple):
    """HarDNet-68/39DS: per HDB (depth, k, t), a transition to t channels at the
    same resolution, and a max pool after each HDB ``pools_after`` lists."""
    for bi, (depth, k, t) in enumerate(blocks):
        yield (HDBSpec(depth, k, m, depthwise=depthwise), TransitionSpec(t=t, downsample=False),
               bi in pools_after)


def _stage_blocks(k: int, m: float, stages: tuple):
    """HarDNet-S/L: bottlenecked HDBs that keep their input, each with a red=0.85
    transition, which down-samples at the end of every stage but the last."""
    for si, stage in enumerate(stages):
        for pi, depth in enumerate(stage):
            down = pi == len(stage) - 1 and si < len(stages) - 1
            yield (HDBSpec(depth, k, m, use_bottleneck=True, keep_base=True),
                   TransitionSpec(red=0.85, downsample=down), False)


# name -> (stem convs as (out_channels, kernel, stride), expansion, its layout);
# the expansion turns the layout into one (HDBSpec, TransitionSpec, max pool after?) per HDB
_CLS_LAYOUTS = {
    # (m, depthwise, per-HDB (depth, k, t), indices of the HDBs a max pool follows)
    "hardnet68": (((32, 3, 2), (64, 3, 1)), _explicit_blocks, 1.7, False,
                  ((8, 14, 128), (16, 16, 256), (16, 20, 320), (16, 40, 640), (4, 160, 1024)),
                  (0, 2, 3)),
    "hardnet39ds": (((24, 3, 2), (48, 1, 1)), _explicit_blocks, 1.6, True,
                    ((4, 16, 96), (16, 20, 320), (8, 64, 640), (4, 160, 1024)), (0, 1, 2)),
    # global dense connection: (k, m, the HDB depths of each stage)
    "hardnet96s": (((64, 7, 2),), _stage_blocks, 20, 1.6, ((8,), (16,), (16, 16), (16,))),
    "hardnet96l": (((64, 7, 2),), _stage_blocks, 26, 1.6, ((8,), (16,), (16, 16), (16,))),
    "hardnet117s": (((64, 7, 2),), _stage_blocks, 26, 1.6, ((8,), (16,), (16, 16, 16), (16,))),
    "hardnet117l": (((64, 7, 2),), _stage_blocks, 30, 1.6, ((8,), (16,), (16, 16, 16), (16,))),
    "hardnet138s": (((64, 7, 2),), _stage_blocks, 30, 1.6,
                    ((8,), (16,), (16, 16, 16), (16, 16))),
    "hardnet138l": (((64, 7, 2),), _stage_blocks, 32, 1.65,
                    ((8,), (16,), (16, 16, 16), (16, 16))),
}


def _build_hardnet_cls(name: str, input_shape: TensorShape) -> ArchGraph:
    """The stem, then per HDB: the block, its transition and the max pool the layout asks for."""
    stem, expand, *layout = _CLS_LAYOUTS[name]

    def body(g, node):
        for bi, (spec, trans, pool) in enumerate(expand(*layout)):
            res = build_hdb(spec, node, g, tag=f"hdb{bi}")
            node = build_transition(res.output, trans, g, tag=f"trans{bi}")
            if pool:
                node = g.add(Pool("max"), [node], label=f"down{bi}")
        return node

    return _build_cls(name, input_shape, stem, body)


# --- FC (segmentation) models ---------------------------------------------

_FC_CONFIGS = {
    # name -> (first conv ch, depths of encoder blocks then bottom, growth per block, m)
    "fc-hardnet68": (8, (4, 4, 4, 4, 8, 8), (4, 6, 8, 8, 10, 10), 1.7),
    "fc-hardnet76": (24, (4, 4, 4, 8, 8, 8), (8, 10, 12, 12, 12, 14), 1.7),
    "fc-hardnet84": (32, (4, 4, 8, 8, 8, 8), (10, 12, 14, 16, 20, 22), 1.7),
    "fc-hardnet-ref100": (48, (8, 8, 8, 8, 8, 8), (10,) * 6, 1.54),
}


def _build_fc_hardnet(name: str, input_shape: TensorShape) -> ArchGraph:
    """Encoder-decoder segmentation net with HDBs and block-level skips."""
    first, depths, growth, m = _FC_CONFIGS[name]

    def block(graph, node, i, tag, keep_base):
        spec = HDBSpec(depths[i], growth[i], m, keep_base=keep_base)
        return build_hdb(spec, node, graph, tag=tag).output

    return _build_fc(name, input_shape, first, depths, block, "avg")


_BUILDERS = {**dict.fromkeys(_CLS_LAYOUTS, _build_hardnet_cls),
             **dict.fromkeys(_FC_CONFIGS, _build_fc_hardnet)}


def build_model(name: str, input_shape: TensorShape) -> ArchGraph:
    """Build a HarDNet-family variant by its stable CLI name (``registry.build`` checks names)."""
    return _BUILDERS[name](name, input_shape)
