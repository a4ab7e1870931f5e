"""Comparison architectures: DenseNet, LogDenseNet/SparseNet link rules,
ResNet, VGG-16, and the FC-DenseNet segmentation family.

External architectures follow their canonical published configurations.
"""

from __future__ import annotations

from enum import Enum
from typing import Optional

from .graph_ir import (Add, ArchGraph, Concat, Conv, GlobalPool, Input, Linear,
                       Pool, TensorShape, TransposedConv)


class SparseRule(Enum):
    DENSE_ALL = "dense_all"
    LOG = "log"
    SPARSE_FIXED_OUTPUT = "sparse_fixed_output"


def sparse_links(rule: SparseRule, layer_index: int) -> list:
    """Predecessor layer indices under a sparsified dense-connection rule."""
    if layer_index < 1:
        raise ValueError("layer_index must be >= 1")
    if rule is SparseRule.DENSE_ALL:
        return list(range(layer_index))
    # LOG and SPARSE_FIXED_OUTPUT share the per-layer rule; the fixed block
    # output of the latter is a block-level property, not a link change.
    out = []
    p = 1
    while layer_index - p >= 0:
        out.append(layer_index - p)
        p *= 2
    return out


# --- DenseNet (classification) ----------------------------------------------

_DENSENET_BLOCKS = {
    "densenet121": (6, 12, 24, 16),
    "densenet201": (6, 12, 48, 32),
    "densenet264": (6, 12, 64, 48),
}
_DENSENET_GROWTH = 32
NUM_CLASSES = 1000


def _build_densenet(name: str, input_shape: TensorShape) -> ArchGraph:
    blocks = _DENSENET_BLOCKS[name]
    k = _DENSENET_GROWTH
    g = ArchGraph(name=name, input_shape=input_shape)
    node = g.add(Input(), [])
    node = g.add(Conv(2 * k, kernel_h=7, kernel_w=7, stride=2), [node], label="stem")
    node = g.add(Pool("max"), [node], label="stem/pool")
    channels = 2 * k
    for bi, depth in enumerate(blocks):
        feats = [node]
        for li in range(depth):
            src = g.add(Concat(), feats, label=f"b{bi}/l{li}/cat") if len(feats) > 1 else feats[0]
            b = g.add(Conv(4 * k, kernel_h=1, kernel_w=1), [src], label=f"b{bi}/l{li}/bneck")
            c = g.add(Conv(k), [b], label=f"b{bi}/l{li}")
            feats.append(c)
        channels += depth * k
        node = g.add(Concat(), feats, label=f"b{bi}/out")
        if bi < len(blocks) - 1:
            channels = channels // 2
            node = g.add(Conv(channels, kernel_h=1, kernel_w=1), [node], label=f"t{bi}/conv")
            node = g.add(Pool("avg"), [node], label=f"t{bi}/pool")
    node = g.add(GlobalPool(), [node], label="gap")
    g.add(Linear(NUM_CLASSES), [node], label="fc")
    return g


# --- ResNet ------------------------------------------------------------------

_RESNET_LAYOUT = {
    # name -> (block kind, per-stage block counts)
    "resnet18": ("basic", (2, 2, 2, 2)),
    "resnet50": ("bottleneck", (3, 4, 6, 3)),
    "resnet101": ("bottleneck", (3, 4, 23, 3)),
    "resnet152": ("bottleneck", (3, 8, 36, 3)),
}
_RESNET_STAGE_CH = (64, 128, 256, 512)


def _build_resnet(name: str, input_shape: TensorShape) -> ArchGraph:
    kind, counts = _RESNET_LAYOUT[name]
    expansion = 1 if kind == "basic" else 4
    g = ArchGraph(name=name, input_shape=input_shape)
    node = g.add(Input(), [])
    node = g.add(Conv(64, kernel_h=7, kernel_w=7, stride=2), [node], label="stem")
    node = g.add(Pool("max"), [node], label="stem/pool")
    in_ch = 64
    for si, (c, n_blocks) in enumerate(zip(_RESNET_STAGE_CH, counts)):
        for bi in range(n_blocks):
            stride = 2 if (si > 0 and bi == 0) else 1
            tag = f"s{si}b{bi}"
            identity = node
            if kind == "basic":
                x = g.add(Conv(c, stride=stride), [node], label=f"{tag}/c1")
                x = g.add(Conv(c), [x], label=f"{tag}/c2")
            else:
                x = g.add(Conv(c, kernel_h=1, kernel_w=1), [node], label=f"{tag}/c1")
                # stride carried by the 3x3, torchvision-style
                x = g.add(Conv(c, stride=stride), [x], label=f"{tag}/c2")
                x = g.add(Conv(c * expansion, kernel_h=1, kernel_w=1), [x], label=f"{tag}/c3")
            out_ch = c * expansion
            if stride != 1 or in_ch != out_ch:
                identity = g.add(Conv(out_ch, kernel_h=1, kernel_w=1, stride=stride),
                                 [node], label=f"{tag}/proj")
            node = g.add(Add(), [x, identity], label=f"{tag}/add")
            in_ch = out_ch
    node = g.add(GlobalPool(), [node], label="gap")
    g.add(Linear(NUM_CLASSES), [node], label="fc")
    return g


# --- VGG-16 ------------------------------------------------------------------

_VGG16_LAYOUT = ((64, 64), (128, 128), (256, 256, 256), (512, 512, 512), (512, 512, 512))


def _build_vgg16(name: str, input_shape: TensorShape) -> ArchGraph:
    g = ArchGraph(name=name, input_shape=input_shape)
    node = g.add(Input(), [])
    for si, stage in enumerate(_VGG16_LAYOUT):
        for ci, c in enumerate(stage):
            node = g.add(Conv(c, bias=True), [node], label=f"s{si}c{ci}")
        node = g.add(Pool("max"), [node], label=f"s{si}/pool")
    node = g.add(Linear(4096), [node], label="fc1")
    node = g.add(Linear(4096), [node], label="fc2")
    g.add(Linear(NUM_CLASSES), [node], label="fc3")
    return g


# --- FC-DenseNet / FC-SparseNet (segmentation) -------------------------------

_FC_CONFIGS = {
    # name -> (first conv ch, down depths, bottleneck depth, growth, rule)
    "fc-densenet56": (48, (4, 4, 4, 4, 4), 4, 12, SparseRule.DENSE_ALL),
    "fc-densenet67": (48, (5, 5, 5, 5, 5), 5, 16, SparseRule.DENSE_ALL),
    "fc-densenet103": (48, (4, 5, 7, 10, 12), 15, 16, SparseRule.DENSE_ALL),
    "fc-densenet-ref100": (48, (8, 8, 8, 8, 8), 8, 10, SparseRule.DENSE_ALL),
    "fc-sparsenet-ref100": (48, (8, 8, 8, 8, 8), 8, 26, SparseRule.SPARSE_FIXED_OUTPUT),
}
FC_NUM_CLASSES = 12  # CamVid: 11 classes + void


def _dense_block(g, node, depth, k, rule, tag):
    """Returns (new-feature concat ids, layer node list).  Layer inputs follow
    the given connection rule over [block input, layer 1, ..]."""
    layers = [node]  # index 0 is the block input
    for li in range(1, depth + 1):
        srcs = [layers[i] for i in sparse_links(rule, li)]
        src = g.add(Concat(), srcs, label=f"{tag}/l{li}/cat") if len(srcs) > 1 else srcs[0]
        layers.append(g.add(Conv(k), [src], label=f"{tag}/l{li}"))
    return layers


def _block_output(g, layers, depth, rule, tag, include_input):
    """Concat forming the tensor a block passes on."""
    if rule is SparseRule.SPARSE_FIXED_OUTPUT:
        # the block output plays the role of layer depth+1
        parts = [layers[i] for i in sparse_links(SparseRule.LOG, depth + 1) if i >= 0]
    else:
        parts = layers[1:][::-1]
        if include_input:
            parts.append(layers[0])
    if len(parts) == 1:
        return parts[0]
    return g.add(Concat(), parts, label=f"{tag}/out")


def _build_fc_densenet(name: str, input_shape: TensorShape) -> ArchGraph:
    first, depths, bottom_depth, k, rule = _FC_CONFIGS[name]
    g = ArchGraph(name=name, input_shape=input_shape)
    node = g.add(Input(), [])
    node = g.add(Conv(first), [node], label="stem")
    skips = []
    for bi, depth in enumerate(depths):
        layers = _dense_block(g, node, depth, k, rule, f"enc{bi}")
        out = _block_output(g, layers, depth, rule, f"enc{bi}", include_input=True)
        skips.append(out)
        c = g.shapes[out].channels
        node = g.add(Conv(c, kernel_h=1, kernel_w=1), [out], label=f"down{bi}/conv")
        node = g.add(Pool("max"), [node], label=f"down{bi}/pool")
    layers = _dense_block(g, node, bottom_depth, k, rule, "bottom")
    node = _block_output(g, layers, bottom_depth, rule, "bottom", include_input=False)
    for ui in range(len(depths) - 1, -1, -1):
        c = g.shapes[node].channels
        node = g.add(TransposedConv(c, kernel=3, stride=2), [node], label=f"up{ui}/tconv")
        node = g.add(Concat(), [node, skips[ui]], label=f"up{ui}/skip")
        layers = _dense_block(g, node, depths[ui], k, rule, f"dec{ui}")
        last = ui == 0
        node = _block_output(g, layers, depths[ui], rule, f"dec{ui}", include_input=last)
    g.add(Conv(FC_NUM_CLASSES, kernel_h=1, kernel_w=1, bias=True), [node], label="classifier")
    return g


REFERENCE_MODELS = tuple(sorted(
    list(_DENSENET_BLOCKS) + list(_RESNET_LAYOUT) + ["vgg16"] + list(_FC_CONFIGS)))

DEFAULT_CLS_INPUT = TensorShape(3, 224, 224)
DEFAULT_FC_INPUT = TensorShape(3, 352, 480)


def default_input(name: str) -> TensorShape:
    return DEFAULT_FC_INPUT if name.startswith("fc-") else DEFAULT_CLS_INPUT


def build_reference(name: str, input_shape: Optional[TensorShape] = None) -> ArchGraph:
    """Build a reference architecture by its stable CLI name."""
    name = name.lower()
    if input_shape is None:
        input_shape = default_input(name)
    if name in _DENSENET_BLOCKS:
        return _build_densenet(name, input_shape)
    if name in _RESNET_LAYOUT:
        return _build_resnet(name, input_shape)
    if name == "vgg16":
        return _build_vgg16(name, input_shape)
    if name in _FC_CONFIGS:
        return _build_fc_densenet(name, input_shape)
    raise KeyError(f"unknown reference model {name!r}")
