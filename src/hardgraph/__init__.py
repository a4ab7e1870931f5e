"""Computation-graph profiler for HarDNet-family and reference CNNs:
parameters, MACs, CIO, MoC, feature-map liveness, and roofline latency."""

from .graph_ir import (Add, ArchGraph, Concat, Conv, GlobalPool, GraphError, Input,
                       Linear, Pool, TensorShape, TransposedConv, to_dot)
from .harmonic import (HDBSpec, TransitionSpec, bottleneck_channels, build_hdb,
                       build_transition, channel_width, hdb_links)
from .latency import PlatformModel, layer_time, model_latency
from .liveness import peak_memory, tensor_lifetimes, verify_flush
from .metrics import ModelSummary, check_moc, layer_macs, model_summary
from .references import SparseRule, build_reference, sparse_links
from .registry import MODEL_NAMES, build, default_input

__version__ = "0.1.0"
