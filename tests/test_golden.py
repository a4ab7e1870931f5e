"""Byte-identity of the reports every model and bare HDB produce.

golden_digests.json holds the SHA-256 of each report.  A change to a node
label, a concat input order, a width or a report format shows up here as a
changed digest.  When a report is meant to change, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and say in CHANGES.md which
reports moved and why.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from hardgraph.cli import run
from hardgraph.graph_ir import TensorShape
from hardgraph.harmonic import HDBSpec, build_bare_hdb
from hardgraph.registry import MODEL_NAMES

DIGESTS = Path(__file__).with_name("golden_digests.json")
INPUTS = (None, "256x320")  # None is each model's default input
BARE_DEPTHS = (1, 2, 3, 7, 64, 4096)


def _cli_cases():
    for model in MODEL_NAMES:
        for hw in INPUTS:
            for cmd in ("build", "analyze"):
                yield [cmd, model] + (["--input", hw] if hw else [])


def _cli_text(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(argv) == 0
    return buf.getvalue()


def _bare_text(depth: int) -> str:
    g, _ = build_bare_hdb(HDBSpec(depth, 8, 1.6), TensorShape(16, 64, 64))
    return g.to_json()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _all_digests() -> dict:
    doc = {" ".join(argv): _sha(_cli_text(argv)) for argv in _cli_cases()}
    doc.update({f"bare-hdb L={d}": _sha(_bare_text(d)) for d in BARE_DEPTHS})
    return doc


GOLDEN = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def test_golden_covers_every_case():
    keys = [" ".join(argv) for argv in _cli_cases()] + [f"bare-hdb L={d}" for d in BARE_DEPTHS]
    assert sorted(GOLDEN) == sorted(keys)


@pytest.mark.parametrize("argv", list(_cli_cases()), ids=" ".join)
def test_cli_report_bytes(argv):
    assert _sha(_cli_text(argv)) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("depth", BARE_DEPTHS)
def test_bare_hdb_json_bytes(depth):
    assert _sha(_bare_text(depth)) == GOLDEN[f"bare-hdb L={depth}"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_all_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
