"""Record the reference digest of every report a seed can draw.

    PYTHONPATH=src python3 perfbench/record_refs.py

Run from the checkout root, at the commit whose reports are the reference.
Every op in ``workloads.all_ops()`` runs in-process once; refs.json maps its
key (argv without the output path) to the first 16 hex digits of the report's
SHA-256.  An op that fails or fails an independent check stops the run.
"""

import json
import sys
from pathlib import Path

import checks
import run
import spans
import workloads


def main() -> int:
    mods = spans.hardgraph_modules()
    ops = workloads.all_ops()
    files = sorted({(op.depth, op.growth, op.multiplier) for op in ops if op.depth})
    workloads.write_hdb_files(mods, files)
    Path(workloads.OUT_DIR).mkdir(parents=True, exist_ok=True)
    runner = run.InProcess(mods["cli"].run)
    checker = checks.Checker({}, checks.load_expected(Path.cwd()))
    refs = {}
    for op in ops:
        res = runner.run(op)
        report = res.written if op.output else res.stdout
        refs[op.key] = checks.digest(report)
        problems = [p for p in checker.check(op, res.rc, res.stdout, res.stderr, res.written)
                    if not p.startswith("no reference")]
        if problems:
            print(f"{op.key}: {'; '.join(problems)}", file=sys.stderr)
            return 1
    checks.REFS.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"{len(refs)} references written to {checks.REFS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
