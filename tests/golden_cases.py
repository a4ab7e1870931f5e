"""The golden cases: each report argv, each bare HDB depth, and how a digest of
one is taken.  Stdlib only, so that test_golden.py and tools/golden.py read
the same case list, the latter without pytest.
"""

import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stdout
from functools import lru_cache
from pathlib import Path

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


def cli_cases():
    for model in MODEL_NAMES:
        for hw in INPUTS:
            size = ["--input", hw] if hw else []
            for cmd in ("build", "analyze"):
                yield [cmd, model] + size
            for cmd, *flags in REPORTS:
                yield [cmd, model] + size + flags


def bare_cases():
    for cmd, *flags in REPORTS:
        yield [cmd, BARE_FILE] + flags


def cli_text(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    if code != 0:
        raise AssertionError(f"hardgraph {' '.join(argv)} exited {code}")
    return buf.getvalue()


@lru_cache(maxsize=None)
def bare_text(depth: int) -> str:
    g, _ = build_bare_hdb(HDBSpec(depth, 8, 1.6), TensorShape(16, 64, 64))
    return g.to_json()


def bare_cli_text(argv) -> str:
    """The report of ``argv`` on the L=4096 bare HDB, saved as BARE_FILE in
    a fresh directory that is the working directory while the CLI runs."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, BARE_FILE).write_text(bare_text(4096))
        os.chdir(tmp)
        try:
            return cli_text(argv)
        finally:
            os.chdir(cwd)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def all_digests() -> dict:
    doc = {" ".join(argv): sha(cli_text(argv)) for argv in cli_cases()}
    doc.update({" ".join(argv): sha(bare_cli_text(argv)) for argv in bare_cases()})
    doc.update({f"bare-hdb L={d}": sha(bare_text(d)) for d in BARE_DEPTHS})
    return doc


def golden() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
