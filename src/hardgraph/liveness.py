"""Tensor lifetimes and peak feature-map memory under the topological schedule.

Execution is strictly sequential, one node per step.  A node's output tensor
is live from its own step through the step of its last consumer; tensors
nobody consumes (graph outputs) stay live to the end.  Concat materializes a
new tensor by default; concat_free mode treats it as a zero-copy view, which
extends the lifetimes of its inputs instead.

Peak memory is one sweep over birth and death events.  A tensor is born at its
producer's step, so events are indexed by step with no sort: each tensor adds
its size at its birth step and subtracts it one step after its death, and a
running sum of those changes gives the live bytes at every step.  The cost is
O(nodes + edges).
"""

from __future__ import annotations

import csv
import io
from typing import Mapping, NamedTuple, Optional

from .graph_ir import ArchGraph, Concat


class LifeInterval(NamedTuple):
    tensor_id: int   # = producing node id
    birth: int       # schedule step of the producer
    death: int       # schedule step of the last consumer
    size_elements: int


class MemoryProfile:
    def __init__(self, steps: Optional[list] = None, peak_bytes: int = 0, peak_step: int = 0,
                 dtype_bytes: int = 4, weight_bytes: int = 0):
        self.steps = [] if steps is None else steps  # live bytes per step
        self.peak_bytes, self.peak_step = peak_bytes, peak_step
        self.dtype_bytes, self.weight_bytes = dtype_bytes, weight_bytes


def tensor_lifetimes(graph: ArchGraph, schedule: list,
                     concat_free: bool = False) -> list:
    """One LifeInterval per node output, in schedule order."""
    pos = {nid: i for i, nid in enumerate(schedule)}
    last = len(schedule) - 1
    # one pass over the inputs: a tensor dies at its latest consumer's step,
    # or at the last step if nothing consumes it
    death = dict.fromkeys(schedule, -1)
    for n in graph.nodes:
        step = pos[n.id]
        for i in n.inputs:
            if death[i] < step:
                death[i] = step
    for nid, d in death.items():
        if d < 0:
            death[nid] = last
    if concat_free:
        # a zero-copy concat keeps its inputs alive as long as its own output
        for nid in reversed(schedule):
            n = graph.node(nid)
            if type(n.kind) is Concat:
                for i in n.inputs:
                    death[i] = max(death[i], death[nid])
    out = []
    for nid in schedule:
        size = graph.shapes[nid].element_count
        if concat_free and type(graph.node(nid).kind) is Concat:
            size = 0
        out.append(LifeInterval(nid, pos[nid], death[nid], size))
    return out


def peak_memory(graph: ArchGraph, schedule: Optional[list] = None,
                dtype_bytes: int = 4, concat_free: bool = False,
                include_weights: bool = False) -> MemoryProfile:
    """Live bytes at every step; the peak is the first step with the maximum."""
    if schedule is None:
        schedule = graph.schedule()
    intervals = tensor_lifetimes(graph, schedule, concat_free=concat_free)
    prof = MemoryProfile(dtype_bytes=dtype_bytes)
    if include_weights:
        from .metrics import model_summary
        prof.weight_bytes = model_summary(graph, dtype_bytes).params * dtype_bytes
    delta = [0] * (len(schedule) + 1)   # change in live elements at each step
    for iv in intervals:
        delta[iv.birth] += iv.size_elements
        delta[iv.death + 1] -= iv.size_elements
    live = 0
    for step in range(len(schedule)):
        live += delta[step]
        total = live * dtype_bytes + prof.weight_bytes
        prof.steps.append(total)
        if total > prof.peak_bytes:
            prof.peak_bytes = total
            prof.peak_step = step
    return prof


def verify_flush(graph: ArchGraph, layer_nodes: Mapping[int, int]) -> list:
    """Check the power-of-two flush property on a bare harmonic block.

    After the layer at index 2**n executes, every tensor of layers
    1 .. 2**n - 1 must be dead.  Returns [(2**n, [flushed layer ids])];
    raises AssertionError on violation.
    """
    schedule = graph.schedule()
    pos = {nid: i for i, nid in enumerate(schedule)}
    intervals = {iv.tensor_id: iv for iv in tensor_lifetimes(graph, schedule)}
    depth = max(i for i in layer_nodes if i > 0)
    out = []
    p = 2
    while p <= depth:
        step = pos[layer_nodes[p]]
        flushed = []
        for l in range(1, p):
            iv = intervals[layer_nodes[l]]
            if iv.death > step:
                raise AssertionError(
                    f"layer {l} still live after layer {p} (dies at step {iv.death} > {step})")
            flushed.append(l)
        out.append((p, flushed))
        p *= 2
    return out


def timeline_csv(graph: ArchGraph, profile: MemoryProfile,
                 schedule: Optional[list] = None,
                 header: Optional[dict] = None) -> str:
    """Memory timeline: step,node,live_bytes."""
    if schedule is None:
        schedule = graph.schedule()
    buf = io.StringIO()
    if header:
        for k in sorted(header):
            buf.write(f"# {k}: {header[k]}\n")
    w = csv.writer(buf)
    w.writerow(["step", "node", "live_bytes"])
    for step, nid in enumerate(schedule):
        label = graph.node(nid).label or str(nid)
        w.writerow([step, label, profile.steps[step]])
    return buf.getvalue()
