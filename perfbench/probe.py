"""Host-speed probes: fixed stdlib tasks timed alongside the ops.

The machine this benchmark was defined on is shared, and it switches
between speed states for seconds to minutes at a time: the same op takes up
to 1.7x longer in the slow state, and a 30-second run can fall wholly inside
one.  Medians over a run cannot remove that.  So a probe is timed between
ops, and each op's time is scaled by reference_s / (the median of the probes
taken within a second or so of it), where reference_s is the probe's time on
that machine in its fast state: scaled times read as if measured there.
Ops and probes slow down by different amounts, so this removes most of the
slowdown, not all of it: over ten seeds, the spread of deep-hdb op_p90_ms fell
from about 30% to 5%.  The probes run none of hardgraph's code, so a change
to hardgraph cannot move them.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

_DOC = [{"id": i, "kind": "conv", "label": f"hdb{i // 16}/l{i % 16}",
         "params": {"kernel": [3, 3], "stride": 1, "groups": 1}, "inputs": [i - 1, i - 2]}
        for i in range(250)]
_INTERVALS = [(i, i + (i * 7919) % 300, i * 3) for i in range(2000)]


def _task() -> int:
    # half allocation-heavy JSON encoding, half a tight interval scan: the
    # two kinds of work the analyzer does, which the slow state slows by
    # different amounts
    n = len(json.loads(json.dumps(_DOC, indent=2, sort_keys=True)))
    for step in range(0, 2000, 27):
        n += sum(size for birth, death, size in _INTERVALS if birth <= step <= death)
    return n


def _in_process() -> float:
    """Seconds the task takes now: the better of two tries, so one
    interrupt does not count as a slow host."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _task()
        best = min(best, time.perf_counter() - t0)
    return best


def _cold_start() -> float:
    """Seconds a fresh interpreter takes to start and import the stdlib
    modules hardgraph imports: the start-up work of a cli-cold op."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import argparse, csv, dataclasses, json"],
                   check=True)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Probe:
    measure: Callable[[], float]  # seconds, now
    reference_s: float  # its time on the reference machine in its fast state


# In-process ops are scaled by the task above; subprocess ops, whose time is
# mostly interpreter start, by a cold start, which tracks them better.
IN_PROCESS = Probe(_in_process, 0.0093)
COLD_START = Probe(_cold_start, 0.060)


class Scaler:
    """Probes at most every ``interval`` seconds between ops, and gives each
    op the median of the probes taken within ``window`` seconds of it."""

    def __init__(self, probe: Probe, interval: float = 0.5, window: float = 1.0):
        self.probe, self.interval, self.window = probe, interval, window
        self.probes = []    # (time, seconds) since the last flush
        self.history = []   # every probe's seconds
        self.pending = []   # (start, end, record) awaiting their probe
        self._probe()

    def _probe(self) -> None:
        self.probes.append((time.perf_counter(), self.probe.measure()))
        self.history.append(self.probes[-1][1])

    def add(self, record, start: float, end: float) -> None:
        """Queue ``record``, measured from ``start`` to ``end``; ``flush``
        sets its ``probe_s``."""
        self.pending.append((start, end, record))
        if end - self.probes[-1][0] >= self.interval:
            self._probe()

    def flush(self) -> None:
        self._probe()
        for start, end, record in self.pending:
            near = [p for t, p in self.probes if start - self.window <= t <= end + self.window]
            record.probe_s = statistics.median(near)
        self.pending = []
        del self.probes[:-1]
