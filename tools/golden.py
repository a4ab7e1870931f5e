"""Check every digest in tests/golden_digests.json without pytest.

    python tools/golden.py

Reads the case list of tests/golden_cases.py, as tests/test_golden.py does,
and runs the whole list twice in one process, the second time in reverse
order.  The second run of each argv goes through the parsers the first runs
built and cached, and comes after other builds than its first run did, so a
report that depends on what earlier builds left in the process-wide shape
table fails one of its runs.  Both digests of every report must match the
recorded one, and the recorded keys must be exactly the cases.  Prints each
mismatch and a summary line; exits 1 on any mismatch.  Uses ``src`` of this
checkout.  Stdlib only, so any Python the package supports can run it.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import golden_cases as cases  # noqa: E402


def main() -> int:
    recorded = cases.golden()
    runs = [(argv, cases.cli_text) for argv in cases.cli_cases()]
    runs += [(argv, cases.bare_cli_text) for argv in cases.bare_cases()]
    keys = [" ".join(argv) for argv, _ in runs] + [f"bare-hdb L={d}" for d in cases.BARE_DEPTHS]
    unmatched = [f"not recorded: {k}" for k in keys if k not in recorded]
    unmatched += [f"recorded but no case: {k}" for k in sorted(set(recorded) - set(keys))]
    bad = []
    for d in cases.BARE_DEPTHS:
        if cases.sha(cases.bare_text(d)) != recorded.get(f"bare-hdb L={d}"):
            bad.append(f"bare-hdb L={d}")
    for n, order in ((1, runs), (2, runs[::-1])):
        for argv, text in order:
            if cases.sha(text(argv)) != recorded.get(" ".join(argv)):
                bad.append(f"run {n}: {' '.join(argv)}")
    for line in unmatched + bad:
        print(f"MISMATCH {line}")
    checked = len(cases.BARE_DEPTHS) + 2 * len(runs)
    print(f"{checked - len(bad)}/{checked} digests match ({len(runs)} reports run twice, "
          f"{len(cases.BARE_DEPTHS)} bare HDB graphs once), Python {sys.version.split()[0]}")
    return 1 if unmatched or bad else 0


if __name__ == "__main__":
    sys.exit(main())
