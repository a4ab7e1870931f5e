"""Published-table expected values and the checks that reproduce them.

The numbers live in data/expected_tables.json, nowhere else.  Failures are
reported, not raised, so a full report is always produced.
"""

import json
from importlib import resources
from typing import NamedTuple

from .graph_ir import ArchGraph, TransposedConv
from .metrics import ModelSummary, model_summary
from .registry import build


class CheckResult(NamedTuple):
    model: str
    field: str
    expected: float
    actual: float
    low: float
    high: float
    provenance: str

    @property
    def passed(self) -> bool:
        return self.low <= self.actual <= self.high

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.model:20s} {self.field:14s} "
                f"actual={self.actual:10.3f}  expected={self.expected:10.3f} "
                f"range=[{self.low:.3f}, {self.high:.3f}]  ({self.provenance})")


def expected_tables() -> dict:
    text = resources.files("hardgraph.data").joinpath("expected_tables.json").read_text()
    return json.loads(text)


def seg_gmacs(graph: ArchGraph, summary: ModelSummary) -> float:
    """GMACs under the segmentation-table convention: multiply and add counted
    separately, transposed convolutions costed on their input grid."""
    tu = sum(macs for kind, macs in zip(graph.kinds, summary.columns[2])
             if isinstance(kind, TransposedConv))
    return 2 * (summary.macs - tu + tu // 4) / 1e9


def validate_catalog() -> list:
    """Build every cataloged model and compare against the expected rows.
    Returns a list of CheckResult."""
    doc = expected_tables()
    results, built = [], {}  # model -> (graph, summary): one build per model per call

    def summary(model: str) -> tuple:
        if model not in built:
            g = build(model)
            built[model] = g, model_summary(g)
        return built[model]

    for row in doc["rows"]:
        g, s = summary(row["model"])
        for field, actual in (("params_m", s.params_m),
                              ("macs_g", s.macs_g),
                              ("seg_gmacs", seg_gmacs(g, s)),
                              ("cio_mb", s.cio_mb)):
            if field not in row:
                continue
            exp = row[field]
            tol = row[f"{field}_tol_pct"] / 100.0
            results.append(CheckResult(row["model"], field, exp, actual,
                                       exp * (1 - tol), exp * (1 + tol),
                                       row["provenance"]))
    for row in doc["cio_ratios"]:
        _, s = summary(row["model"])
        _, sb = summary(row["baseline"])
        ratio = s.cio_elements / sb.cio_elements
        if "tol_abs" in row:
            low, high = row["paper_ratio"] - row["tol_abs"], row["paper_ratio"] + row["tol_abs"]
        else:
            low, high = row["low"], row["high"]
        results.append(CheckResult(f"{row['model']}/{row['baseline']}", "cio_ratio",
                                   row["paper_ratio"], ratio, low, high, row["provenance"]))
    for row in doc["cio_reductions"]:
        _, s = summary(row["model"])
        _, sb = summary(row["baseline"])
        reduction = 100.0 * (1 - s.cio_elements / sb.cio_elements)
        results.append(CheckResult(f"{row['model']} vs {row['baseline']}", "cio_reduction_pct",
                                   row["min_reduction_pct"], reduction,
                                   row["min_reduction_pct"], float("inf"),
                                   row["provenance"]))
    return results
