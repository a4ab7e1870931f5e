"""Tensor lifetimes and peak feature-map memory, run in node-id order.

Execution is strictly sequential, one node per step, and step i runs node i:
``add`` and ``from_json`` make every input precede its node, so node-id order
is the topological order.  A node's output tensor is live from its own step
through the step of its last consumer; tensors nobody consumes (graph
outputs) stay live to the end.  Concat materializes a new tensor by default;
concat_free mode treats it as a zero-copy view, which extends the lifetimes
of its inputs instead.

Peak memory is one sweep over per-step changes, with no sort: each tensor
adds its size at its birth (its producer's step) and subtracts it one step
after its death, and their running sum is the live size at every step.
"""

from itertools import accumulate, compress, count
from typing import Mapping, Optional

from .graph_ir import ArchGraph, Concat, _csv_head, _csv_labels


class MemoryProfile:
    def __init__(self, steps: list, dtype_bytes: int):
        self.steps, self.dtype_bytes = steps, dtype_bytes
        self.peak_bytes = max(steps, default=0)
        self.peak_step = steps.index(self.peak_bytes) if steps else 0


def tensor_lifetimes(graph: ArchGraph, *, concat_free: bool = False) -> tuple:
    """Each tensor's death step and size in elements, as two columns indexed
    by node id; a tensor's birth step is its node id."""
    inputs, shapes, classes = graph.inputs, graph.shapes, graph.classes
    n = len(inputs)
    # in node order each consumer overwrites its inputs' death, so the latest
    # one is kept; a tensor nothing consumes lives to the last step
    death = [n - 1] * n
    for nid, ins in enumerate(inputs):
        for i in ins:
            death[i] = nid
    sizes = list(map([shapes[f].element_count for f in graph.class_first].__getitem__, classes))
    if concat_free:
        # a zero-copy concat stores nothing and keeps its inputs alive as long
        # as its own output; latest first, so a concat of concats passes it on
        concat = [type(graph.kinds[f]) is Concat for f in graph.class_first]
        for nid in reversed(list(compress(range(n), map(concat.__getitem__, classes)))):
            sizes[nid], last = 0, death[nid]
            for i in inputs[nid]:
                if death[i] < last:
                    death[i] = last
    return death, sizes


def peak_memory(graph: ArchGraph, *, dtype_bytes: int = 4,
                concat_free: bool = False) -> MemoryProfile:
    """Live bytes at every step; the peak is the first step with the maximum."""
    deaths, sizes = tensor_lifetimes(graph, concat_free=concat_free)
    delta = sizes + [0]  # change in live elements at each step: births, then deaths
    for death, size in zip(deaths, sizes):
        delta[death + 1] -= size
    return MemoryProfile([live * dtype_bytes for live in accumulate(delta[:-1])], dtype_bytes)


def verify_flush(graph: ArchGraph, layer_nodes: Mapping[int, int]) -> list:
    """Check the power-of-two flush property on a bare harmonic block.

    After the layer at index 2**n executes, every tensor of layers
    1 .. 2**n - 1 must be dead.  Returns [(2**n, [flushed layer ids])];
    raises AssertionError on violation.
    """
    death = tensor_lifetimes(graph)[0]
    depth = max(i for i in layer_nodes if i > 0)
    out = []
    p = 2
    while p <= depth:
        step = layer_nodes[p]
        for l in range(1, p):
            if death[layer_nodes[l]] > step:
                raise AssertionError(f"layer {l} still live after layer {p} "
                                     f"(dies at step {death[layer_nodes[l]]} > {step})")
        out.append((p, list(range(1, p))))
        p *= 2
    return out


def timeline_csv(graph: ArchGraph, profile: MemoryProfile, *,
                 header: Optional[dict] = None) -> str:
    """Memory timeline: step,node,live_bytes."""
    labels = _csv_labels([label or str(nid) for nid, label in enumerate(graph.labels)])
    rows = zip(count(), labels, profile.steps)
    return _csv_head(header, ("step", "node", "live_bytes")) + "".join(
        map("%d,%s,%d\r\n".__mod__, rows))
