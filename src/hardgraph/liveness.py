"""Tensor lifetimes and peak feature-map memory under the topological schedule.

Execution is strictly sequential, one node per step.  A node's output tensor
is live from its own step through the step of its last consumer; tensors
nobody consumes (graph outputs) stay live to the end.  Concat materializes a
new tensor by default; concat_free mode treats it as a zero-copy view, which
extends the lifetimes of its inputs instead.

Peak memory is one sweep over per-step changes, with no sort: each tensor
adds its size at its birth (its producer's step) and subtracts it one step
after its death, and their running sum is the live size at every step.
"""

from __future__ import annotations

import csv
import io
from itertools import accumulate
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


def _lifetimes(graph: ArchGraph, schedule: list, concat_free: bool) -> tuple:
    """Each tensor's death step and size in elements, as two columns in
    schedule order; a tensor's birth step is its index."""
    nodes = [graph.nodes[nid] for nid in schedule]
    # walking the schedule, each consumer overwrites its inputs' death, so the
    # latest one is kept; a tensor nothing consumes lives to the last step
    death = dict.fromkeys(schedule, len(schedule) - 1)
    for step, n in enumerate(nodes):
        for i in n.inputs:
            death[i] = step
    shapes = graph.shapes
    sizes = [shapes[nid].element_count for nid in schedule]
    if concat_free:
        # a zero-copy concat stores nothing and keeps its inputs alive as
        # long as its own output
        for step, n in reversed(list(enumerate(nodes))):
            if type(n.kind) is Concat:
                sizes[step] = 0
                for i in n.inputs:
                    death[i] = max(death[i], death[n.id])
    return [death[nid] for nid in schedule], sizes


def tensor_lifetimes(graph: ArchGraph, schedule: list,
                     concat_free: bool = False) -> list:
    """One LifeInterval per node output, in schedule order."""
    deaths, sizes = _lifetimes(graph, schedule, concat_free)
    return list(map(LifeInterval, schedule, range(len(schedule)), deaths, sizes))


def peak_memory(graph: ArchGraph, schedule: Optional[list] = None,
                dtype_bytes: int = 4, concat_free: bool = False,
                include_weights: bool = False) -> MemoryProfile:
    """Live bytes at every step; the peak is the first step with the maximum."""
    if schedule is None:
        schedule = graph.schedule()
    deaths, sizes = _lifetimes(graph, schedule, concat_free)
    prof = MemoryProfile(dtype_bytes=dtype_bytes)
    if include_weights:
        from .metrics import model_summary
        prof.weight_bytes = model_summary(graph, dtype_bytes).params * dtype_bytes
    delta = sizes + [0]  # change in live elements at each step: births, then deaths
    for death, size in zip(deaths, sizes):
        delta[death + 1] -= size
    weight_bytes = prof.weight_bytes
    prof.steps = [live * dtype_bytes + weight_bytes for live in accumulate(delta[:-1])]
    peak = max(prof.steps, default=0)
    if peak > 0:
        prof.peak_bytes, prof.peak_step = peak, prof.steps.index(peak)
    return prof


def verify_flush(graph: ArchGraph, layer_nodes: Mapping[int, int]) -> list:
    """Check the power-of-two flush property on a bare harmonic block.

    After the layer at index 2**n executes, every tensor of layers
    1 .. 2**n - 1 must be dead.  Returns [(2**n, [flushed layer ids])];
    raises AssertionError on violation.
    """
    schedule = graph.schedule()
    pos = {nid: i for i, nid in enumerate(schedule)}
    death = dict(zip(schedule, _lifetimes(graph, schedule, False)[0]))
    depth = max(i for i in layer_nodes if i > 0)
    out = []
    p = 2
    while p <= depth:
        step = pos[layer_nodes[p]]
        for l in range(1, p):
            if death[layer_nodes[l]] > step:
                raise AssertionError(f"layer {l} still live after layer {p} "
                                     f"(dies at step {death[layer_nodes[l]]} > {step})")
        out.append((p, list(range(1, p))))
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
    labels = [graph.nodes[nid].label or str(nid) for nid in schedule]
    w = csv.writer(buf)
    w.writerow(["step", "node", "live_bytes"])
    w.writerows(zip(range(len(schedule)), labels, profile.steps))
    return buf.getvalue()
