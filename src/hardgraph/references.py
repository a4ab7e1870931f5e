"""Comparison architectures: DenseNet, ResNet, VGG-16, and the FC-DenseNet
and FC-SparseNet segmentation family.

External architectures follow their canonical published configurations.
"""

from .graph_ir import Add, ArchGraph, Conv, Input, Linear, Pool, TensorShape
from .harmonic import (NUM_CLASSES, TransitionSpec, _build_block, _build_cls, _build_fc,
                       _conv3x3, build_transition, log_links)


# --- DenseNet (classification) ----------------------------------------------

_DENSENET_BLOCKS = {
    "densenet121": (6, 12, 24, 16),
    "densenet201": (6, 12, 48, 32),
    "densenet264": (6, 12, 64, 48),
}
_DENSENET_GROWTH = 32


def _build_densenet(name: str, input_shape: TensorShape) -> ArchGraph:
    blocks = _DENSENET_BLOCKS[name]
    k = _DENSENET_GROWTH

    def layer(graph, src, l, label):  # DenseNet-B: a 1x1 bottleneck of 4k, then a 3x3 of k
        b = graph.add(Conv(4 * k, kernel_h=1, kernel_w=1), [src], label=f"{label}/bneck")
        return graph.add(Conv(k), [b], label=label)

    def body(g, node):
        for bi, depth in enumerate(blocks):
            # layer l reads every layer before it; the block passes on its input,
            # then every layer in order; labels count layers from 0
            node, _ = _build_block(g, node, depth, range, layer, lambda L: range(L + 1),
                                   f"b{bi}/", first=0)
            if bi < len(blocks) - 1:
                node = build_transition(node, TransitionSpec(red=0.5), g, tag=f"t{bi}")
        return node

    return _build_cls(name, input_shape, ((2 * k, 7, 2),), body)


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

    def body(g, node):
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
                if stride != 1 or g.shapes[node].channels != out_ch:
                    identity = g.add(Conv(out_ch, kernel_h=1, kernel_w=1, stride=stride),
                                     [node], label=f"{tag}/proj")
                node = g.add(Add(), [x, identity], label=f"{tag}/add")
        return node

    return _build_cls(name, input_shape, ((64, 7, 2),), body)


# --- VGG-16 ------------------------------------------------------------------

_VGG16_LAYOUT = ((64, 64), (128, 128), (256, 256, 256), (512, 512, 512), (512, 512, 512))


def _build_vgg16(name: str, input_shape: TensorShape) -> ArchGraph:
    g = ArchGraph(name=name, input_shape=input_shape)
    node = g.add(Input(), [])
    for si, stage in enumerate(_VGG16_LAYOUT):
        for ci, c in enumerate(stage):
            node = g.add(Conv(c, bias=True), [node], label=f"s{si}c{ci}")
        node = g.add(Pool("max"), [node], label=f"s{si}/pool")
    for i, features in enumerate((4096, 4096, NUM_CLASSES)):
        node = g.add(Linear(features), [node], label=f"fc{i + 1}")
    return g


# --- FC-DenseNet / FC-SparseNet (segmentation) -------------------------------

def _all_outputs(depth: int, keep_base: bool) -> list:
    """FC-DenseNet block output: every layer, last first, then the block
    input when kept."""
    return [*range(depth, 0, -1)] + ([0] if keep_base else [])


def _fixed_outputs(depth: int, keep_base: bool) -> list:
    """SparseNet's fixed block output: the layers a layer depth + 1 would read
    under the log rule, whether or not the block input is kept."""
    return log_links(depth + 1)


_FC_CONFIGS = {
    # name -> (first conv ch, depths of encoder blocks then bottom, growth, link, output rule)
    "fc-densenet56": (48, (4, 4, 4, 4, 4, 4), 12, range, _all_outputs),
    "fc-densenet67": (48, (5, 5, 5, 5, 5, 5), 16, range, _all_outputs),
    "fc-densenet103": (48, (4, 5, 7, 10, 12, 15), 16, range, _all_outputs),
    "fc-densenet-ref100": (48, (8, 8, 8, 8, 8, 8), 10, range, _all_outputs),
    "fc-sparsenet-ref100": (48, (8, 8, 8, 8, 8, 8), 26, log_links, _fixed_outputs),
}


def _build_fc_densenet(name: str, input_shape: TensorShape) -> ArchGraph:
    first, depths, k, links, outputs = _FC_CONFIGS[name]
    emit = _conv3x3(lambda l: k)

    def block(graph, node, i, tag, keep_base):
        return _build_block(graph, node, depths[i], links, emit,
                            lambda L: outputs(L, keep_base), f"{tag}/")[0]

    return _build_fc(name, input_shape, first, depths, block, "max")


_BUILDERS = {**dict.fromkeys(_DENSENET_BLOCKS, _build_densenet),
             **dict.fromkeys(_RESNET_LAYOUT, _build_resnet), "vgg16": _build_vgg16,
             **dict.fromkeys(_FC_CONFIGS, _build_fc_densenet)}


def build_reference(name: str, input_shape: TensorShape) -> ArchGraph:
    """Build a reference architecture by its stable CLI name (``registry.build`` checks names)."""
    return _BUILDERS[name](name, input_shape)
