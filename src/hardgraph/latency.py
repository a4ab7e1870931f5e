"""Roofline-style latency estimate from the per-layer table's MACs and CIO bytes.

Each layer with CIO costs max(compute time, memory time); it is memory-bound
when its MoC falls below the platform's critical MoC
(peak_macs / dram_bytes * dtype_bytes), or when it has no MACs (a copied concat).
"""

import math
from typing import NamedTuple

from .graph_ir import ArchGraph, _Value
from .layer_table import _class_rows, _node_order_sum, _PerClass


class PlatformModel(_Value):
    __slots__ = ("name", "peak_macs_per_second", "dram_bytes_per_second")

    def __init__(self, name: str, peak_macs_per_second: float, dram_bytes_per_second: float):
        self._set_fields(name, peak_macs_per_second, dram_bytes_per_second)
        if not peak_macs_per_second > 0 or not dram_bytes_per_second > 0:
            raise ValueError("platform rates must be strictly positive")

    def critical_moc(self, dtype_bytes: int = 4) -> float:
        # an infinite peak is checked first: inf / inf would give NaN
        peak = self.peak_macs_per_second
        return math.inf if math.isinf(peak) else peak / self.dram_bytes_per_second * dtype_bytes

    @classmethod
    def from_json(cls, text: str) -> "PlatformModel":
        """Load platform JSON: an object whose two rates are JSON numbers
        (not booleans) and whose optional ``name`` is a string."""
        from .jsonio import _json_object
        doc, name = _json_object(text, "platform")
        rates = []
        for key in ("peak_macs_per_second", "dram_bytes_per_second"):
            if key not in doc:
                raise ValueError(f"platform JSON needs {key}")
            rate = doc[key]
            if type(rate) not in (int, float):
                raise ValueError(f"platform {key} must be a number, got {rate!r}")
            rates.append(float(rate))
        return cls(name, *rates)


# illustrative presets, not measured hardware
PRESETS = {
    "gpu-like": PlatformModel("gpu-like", 1e13, 6e11),
    "edge-like": PlatformModel("edge-like", 1e11, 1e10),
}


class LayerTime(NamedTuple):
    node_id: int
    seconds: float
    bound: str  # "compute" | "memory" | "none"


class LatencyReport(_PerClass):
    _record = LayerTime

    def __init__(self, total_seconds: float, rows: list, classes: list):
        super().__init__(rows, classes)
        self.total_seconds = total_seconds


def model_latency(graph: ArchGraph, platform: PlatformModel,
                  dtype_bytes: int = 4, concat_copy: bool = False) -> LatencyReport:
    crit, rows, classes = platform.critical_moc(dtype_bytes), [], graph.classes[:]
    peak, dram = platform.peak_macs_per_second, platform.dram_bytes_per_second
    for lm in _class_rows(graph, dtype_bytes, concat_copy=concat_copy):
        nid, t, bound = lm.node_id, 0.0, "none"
        if lm.cio_elements:
            t = max(lm.macs / peak, lm.cio_bytes / dram)
            bound = "memory" if lm.moc < crit or not lm.macs else "compute"
        rows.append(LayerTime(nid, t, bound))
    seconds = [row.seconds for row in rows]
    return LatencyReport(_node_order_sum(map(seconds.__getitem__, classes)), rows, classes)
