"""Byte-identity of the reports every model and bare HDB produce.

golden_digests.json holds the SHA-256 of each report; golden_cases.py holds
the cases, which tools/golden.py also checks without pytest.  A change to a
node label, a concat input order, a width or a report format shows up here as
a changed digest.  When a report is meant to change, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and say in CHANGES.md which
reports moved and why.
"""

import json
import sys

import pytest

from golden_cases import (BARE_DEPTHS, DIGESTS, all_digests, bare_cases, bare_cli_text, bare_text,
                          cli_cases, cli_text, golden, sha)

GOLDEN = golden()


def test_golden_covers_every_case():
    keys = [" ".join(argv) for argv in (*cli_cases(), *bare_cases())]
    assert sorted(GOLDEN) == sorted(keys + [f"bare-hdb L={d}" for d in BARE_DEPTHS])


@pytest.mark.parametrize("argv", list(cli_cases()), ids=" ".join)
def test_cli_report_bytes(argv):
    assert sha(cli_text(argv)) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("argv", list(bare_cases()), ids=" ".join)
def test_bare_hdb_report_bytes(argv):
    assert sha(bare_cli_text(argv)) == GOLDEN[" ".join(argv)]


@pytest.mark.parametrize("depth", BARE_DEPTHS)
def test_bare_hdb_json_bytes(depth):
    assert sha(bare_text(depth)) == GOLDEN[f"bare-hdb L={depth}"]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(all_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}", file=sys.stderr)
