"""Checks on the benchmark itself, not on the program.

    python3 perfbench/selftest.py

1. The output check rejects wrong reports: a changed byte, a wrong width in
   a deep-hdb report, a non-zero exit and output on stderr.
2. Shape evaluations per node, counted from spans, match the values
   measured by hand when the benchmark was defined (hardnet68 6.1,
   hardnet138s 8.8, fc-hardnet84 7.0, densenet264 1.0).  A change to how
   builders infer shapes is expected to move them; update them then.
3. Two traced runs with one seed give identical counts.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks      # noqa: E402
import run         # noqa: E402
import spans       # noqa: E402
import workloads   # noqa: E402

SHAPE_EVALS = {"hardnet68": 6.1, "hardnet138s": 8.8, "fc-hardnet84": 7.0,
               "densenet264": 1.0}
DETERMINISTIC = ("_calls_", "shape_evals_per_node", "out_kb_per_op")


def check_rejections(mods) -> list:
    checker = checks.Checker(checks.load_refs(), checks.load_expected(ROOT))
    runner = run.InProcess(mods["cli"].run)
    errors = []

    def expect(what, op, rc, out, err="", written=b"", rejected=True):
        problems = checker.check(op, rc, out, err, written)
        if bool(problems) != rejected:
            errors.append(f"{what}: check gave {problems or 'no problem'}")

    ops = {op.key: op for op in workloads.all_ops()}
    op = ops["analyze hardnet68 --format csv"]
    res = runner.run(op)
    expect("unchanged report", op, res.rc, res.stdout, rejected=False)
    total = res.stdout.rindex(b"TOTAL")
    expect("one byte changed", op, res.rc,
           res.stdout[:total] + res.stdout[total:].replace(b"1", b"2", 1))
    expect("exit code 2", op, 2, res.stdout)
    expect("stderr written", op, 0, res.stdout, "warning: something")

    # the independent width rule rejects a report even with no reference
    op = ops[f"analyze {workloads.hdb_path(512, 16, 1.7)} --format json"]
    workloads.write_hdb_files(mods, [(512, 16, 1.7)])
    res = runner.run(op)
    expect("deep-hdb report", op, res.rc, res.stdout, rejected=False)
    doc = json.loads(res.stdout)
    conv = next(r for r in doc["layers"] if r["label"] == "l8")
    c, hw = conv["out_shape"].split("x", 1)
    conv["out_shape"] = f"{int(c) + 2}x{hw}"
    checker.refs = {}
    problems = checker.check(op, 0, json.dumps(doc).encode(), "", b"")
    if not any("conv row 8" in p for p in problems):
        errors.append(f"wrong HDB width not caught: {problems}")
    return errors


def check_shape_evals(mods) -> list:
    tracer = spans.Tracer()
    spans.install(tracer, mods)
    errors = []
    for model, want in SHAPE_EVALS.items():
        tracer.spans.clear()
        mods["registry"].build(model)
        got = spans.layer_metrics(tracer, 1, {}, {})["graph_ir.shape_evals_per_node"]
        if round(got, 1) != want:
            errors.append(f"{model}: {got:.2f} shape evaluations per node, expected {want}")
        print(f"  {model}: {got:.3f} shape evaluations per node")
    return errors


def check_counts_repeat() -> list:
    errors = []
    for name in workloads.WORKLOADS:
        counts = []
        for _ in range(2):
            p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                                "--seed", "7", "--seconds", "1", "--trace", "1"],
                               capture_output=True, text=True, cwd=ROOT, timeout=600)
            metrics = json.loads(p.stdout.strip().splitlines()[-1])["metrics"]
            counts.append({k: v["value"] for k, v in metrics.items()
                           if any(d in k for d in DETERMINISTIC)})
        print(f"  {name}: {counts[0]}")
        if counts[0] != counts[1]:
            errors.append(f"{name}: counts differ between runs: {counts}")
    return errors


def main() -> int:
    os.chdir(ROOT)
    mods = spans.hardgraph_modules()
    errors = check_rejections(mods)
    print(f"output check: {'ok' if not errors else errors}")
    errors += check_shape_evals(mods)
    errors += check_counts_repeat()
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
