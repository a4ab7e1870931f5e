"""The four absolute CIO figures of the paper's Table 4, which ``validate-tables``
checks only as the ratios of two pairs.

The figures, in M elements, are parsed from the provenance strings of the
``cio_ratios`` rows of ``expected_tables.json`` (``CIO <model> / <baseline>``),
so they are written once.  Each bound is the measured gap rounded up to the
next percent; README's "Where our numbers differ from the paper's" lists the
gaps.  These checks stay out of ``validate-tables``, whose 20 checks stay as
they are.
"""

import re

import pytest

import hardgraph
from hardgraph.catalog import expected_tables

# model -> |ours / paper - 1| bound, in percent (measured gap: -0.95%, +5.20%, +11.14%, +2.42%)
BOUND_PCT = {"hardnet68": 2, "resnet50": 6, "hardnet138s": 12, "resnet152": 3}


def quoted_cio() -> list:
    """(model, Table 4 CIO in M elements) for each figure a provenance string quotes."""
    figures = []
    for row in expected_tables()["cio_ratios"]:
        for match in re.finditer(r"\bCIO ([\d.]+) / ([\d.]+)\)", row["provenance"]):
            figures += zip((row["model"], row["baseline"]), map(float, match.groups()))
    return figures


def test_exactly_the_four_table_4_figures_are_quoted():
    figures = quoted_cio()
    assert len(figures) == 4
    assert sorted(model for model, _ in figures) == sorted(BOUND_PCT)


@pytest.mark.parametrize("model", sorted(BOUND_PCT))
def test_absolute_cio_is_within_its_measured_gap(model):
    paper = dict(quoted_cio())[model]
    ours = hardgraph.model_summary(hardgraph.build(model)).cio_elements / 1e6
    gap_pct = 100 * (ours / paper - 1)
    assert abs(gap_pct) <= BOUND_PCT[model], (model, ours, paper, gap_pct)
