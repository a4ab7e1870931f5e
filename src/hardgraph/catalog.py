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
    for field, rows in (("cio_ratio", doc["cio_ratios"]),
                        ("cio_reduction_pct", doc["cio_reductions"])):
        for row in rows:
            model, base = row["model"], row["baseline"]
            ratio = summary(model)[1].cio_elements / summary(base)[1].cio_elements
            if field == "cio_ratio":
                name, exp, actual = f"{model}/{base}", row["paper_ratio"], ratio
                low, high = ((exp - row["tol_abs"], exp + row["tol_abs"]) if "tol_abs" in row
                             else (row["low"], row["high"]))
            else:
                name, exp = f"{model} vs {base}", row["min_reduction_pct"]
                actual, low, high = 100.0 * (1 - ratio), exp, float("inf")
            results.append(CheckResult(name, field, exp, actual, low, high, row["provenance"]))
    return results
