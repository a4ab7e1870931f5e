"""Output checks applied to every op.

Each op must exit 0, write nothing to stderr, and produce report bytes whose
digest equals the one recorded in refs.json at the commit that defined the
benchmark.  Two further checks do not depend on the program under test:

* ``analyze`` at a model's default input: TOTAL params and MACs fall within
  the tolerances of the paper's tables (data/expected_tables.json).
* deep-hdb reports describe a bare harmonic dense block of L layers, whose
  layer l has k * m**v2(l) channels, floored to even, computed here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

REFS = Path(__file__).resolve().parent / "refs.json"
EXPECTED_TABLES = "src/hardgraph/data/expected_tables.json"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def load_refs() -> dict:
    return json.loads(REFS.read_text())


def load_expected(root: Path) -> dict:
    """model -> {"params_m": (low, high), "macs_g": (low, high)} from the
    paper's tables."""
    doc = json.loads((root / EXPECTED_TABLES).read_text())
    out = {}
    for row in doc["rows"]:
        bands = {}
        for field in ("params_m", "macs_g"):
            if field in row:
                tol = row[f"{field}_tol_pct"] / 100.0
                bands[field] = (row[field] * (1 - tol), row[field] * (1 + tol))
        if bands:
            out[row["model"]] = bands
    return out


def hdb_width(layer: int, growth: int, multiplier: float) -> int:
    n = (layer & -layer).bit_length() - 1
    if n == 0:
        return growth
    return 2 * math.floor(growth * multiplier ** n / 2)


class Checker:
    def __init__(self, refs: dict, expected: dict):
        self.refs = refs
        self.expected = expected

    def check(self, op, rc, stdout: bytes, stderr: str, written: bytes) -> list:
        """Failure messages for one op; empty when the op is correct."""
        if rc != 0:
            return [f"exit code {rc}"]
        problems = []
        if stderr:
            problems.append(f"stderr: {stderr.strip()[:200]}")
        if op.output and stdout:
            problems.append("wrote to stdout as well as to -o")
        report = written if op.output else stdout
        ref = self.refs.get(op.key)
        if ref is None:
            problems.append("no reference recorded for this op")
        elif digest(report) != ref:
            problems.append("report differs from the recorded reference")
        if op.depth is not None:
            problems += self._check_hdb(op, report)
        elif op.kind.startswith("analyze") and op.size is None:
            problems += self._check_totals(op, report)
        return problems

    def _check_totals(self, op, report: bytes) -> list:
        bands = self.expected.get(op.models[0])
        if not bands:
            return []
        if op.kind == "analyze-json":
            summary = json.loads(report)["summary"]
            params, macs = summary["params"], summary["macs"]
        else:
            text = report.decode()
            rows = csv.DictReader(line for line in io.StringIO(text)
                                  if not line.startswith("#"))
            total = [r for r in rows if r["label"] == "TOTAL"]
            if len(total) != 1:
                return ["analyze CSV has no TOTAL row"]
            params, macs = int(total[0]["params"]), int(total[0]["macs"])
        problems = []
        for field, value in (("params_m", params / 1e6), ("macs_g", macs / 1e9)):
            if field in bands:
                low, high = bands[field]
                if not low <= value <= high:
                    problems.append(f"{field}={value:.3f} outside [{low:.3f}, {high:.3f}]")
        return problems

    def _check_hdb(self, op, report: bytes) -> list:
        L = op.depth
        # input, L convs, and one concat for every even layer (>= 2 links)
        n_nodes = 1 + L + L // 2
        text = report.decode()
        if op.kind == "analyze-json":
            convs = [r for r in json.loads(text)["layers"] if r["kind"] == "conv"]
            if len(convs) != L:
                return [f"{len(convs)} conv rows, expected L={L}"]
            for l, row in enumerate(convs, start=1):
                want = hdb_width(l, op.growth, op.multiplier)
                got = int(row["out_shape"].split("x")[0])
                if row["label"] != f"l{l}" or got != want:
                    return [f"conv row {l} ({row['label']}) has {got} channels, "
                            f"expected {want}"]
            return []
        if op.kind == "latency":
            layers = json.loads(text)["layers"]
            busy = sum(1 for lt in layers if lt["bound"] != "none")
            if len(layers) != n_nodes or busy != L:
                return [f"latency lists {len(layers)} layers ({busy} timed), "
                        f"expected {n_nodes} ({L})"]
            return []
        rows = [line for line in text.splitlines() if line and not line.startswith("#")]
        if len(rows) - 1 != n_nodes:
            return [f"liveness timeline has {len(rows) - 1} steps, expected {n_nodes}"]
        return []
