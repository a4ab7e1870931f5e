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
import os
import sys
import tempfile
from contextlib import redirect_stdout
from functools import lru_cache
from pathlib import Path

import pytest

from hardgraph.cli import run
from hardgraph.graph_ir import TensorShape
from hardgraph.harmonic import HDBSpec, build_bare_hdb
from hardgraph.registry import MODEL_NAMES

DIGESTS = Path(__file__).with_name("golden_digests.json")
INPUTS = (None, "256x320")  # None is each model's default input
BARE_DEPTHS = (1, 2, 3, 7, 64, 4096)
# the per-layer reports, each run on every model and on the deepest bare HDB
REPORTS = (["analyze", "--format", "json"], ["analyze", "--format", "json", "--ds-weight", "0.6"],
           ["export-dot"], ["latency", "--platform", "gpu-like"],
           ["liveness"], ["liveness", "--concat-free"])
BARE_FILE = "bare-hdb-L4096.json"  # a relative path: the report headers name it


def _cli_cases():
    for model in MODEL_NAMES:
        for hw in INPUTS:
            size = ["--input", hw] if hw else []
            for cmd in ("build", "analyze"):
                yield [cmd, model] + size
            for cmd, *flags in REPORTS:
                yield [cmd, model] + size + flags


def _bare_cases():
    for cmd, *flags in REPORTS:
        yield [cmd, BARE_FILE] + flags


def _cli_text(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert run(argv) == 0
    return buf.getvalue()


@lru_cache(maxsize=None)
def _bare_text(depth: int) -> str:
    g, _ = build_bare_hdb(HDBSpec(depth, 8, 1.6), TensorShape(16, 64, 64))
    return g.to_json()


def _bare_cli_text(argv) -> str:
    """The report of ``argv`` on the L=4096 bare HDB, saved as BARE_FILE in
    a fresh directory that is the working directory while the CLI runs."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, BARE_FILE).write_text(_bare_text(4096))
        os.chdir(tmp)
        try:
            return _cli_text(argv)
        finally:
            os.chdir(cwd)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _all_digests() -> dict:
    doc = {" ".join(argv): _sha(_cli_text(argv)) for argv in _cli_cases()}
    doc.update({" ".join(argv): _sha(_bare_cli_text(argv)) for argv in _bare_cases()})
    doc.update({f"bare-hdb L={d}": _sha(_bare_text(d)) for d in BARE_DEPTHS})
    return doc


GOLDEN = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def test_golden_covers_every_case():
    keys = [" ".join(argv) for argv in (*_cli_cases(), *_bare_cases())]
    assert sorted(GOLDEN) == sorted(keys + [f"bare-hdb L={d}" for d in BARE_DEPTHS])


@pytest.mark.parametrize("argv", list(_cli_cases()), ids=" ".join)
def test_cli_report_bytes(argv):
    assert _sha(_cli_text(argv)) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("argv", list(_bare_cases()), ids=" ".join)
def test_bare_hdb_report_bytes(argv):
    assert _sha(_bare_cli_text(argv)) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("depth", BARE_DEPTHS)
def test_bare_hdb_json_bytes(depth):
    assert _sha(_bare_text(depth)) == GOLDEN[f"bare-hdb L={depth}"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(_all_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
