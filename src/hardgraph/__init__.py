"""Computation-graph profiler for HarDNet-family and reference CNNs:
parameters, MACs, CIO, MoC, feature-map liveness, and roofline latency.
Each public name is imported from its module on first access (PEP 562)."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "blocks": ("TransitionSpec", "build_transition", "log_links"),
    "graph_ir": ("Add", "ArchGraph", "Concat", "Conv", "GlobalPool", "GraphError", "Input",
                 "Linear", "Pool", "TensorShape", "TransposedConv", "to_dot"),
    "harmonic": ("HDBSpec", "bottleneck_channels", "build_hdb", "channel_width", "hdb_links"),
    "latency": ("PlatformModel", "model_latency"),
    "liveness": ("peak_memory", "tensor_lifetimes", "verify_flush"),
    "metrics": ("ModelSummary", "check_moc", "model_summary"),
    "registry": ("MODEL_NAMES", "build", "default_input"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a module, as ``hardgraph.metrics``
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(import_module(f".{_HOME[name]}", __name__), name))
