"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/baseline.py --seeds 1-10 --seconds 30 --out perfbench/baseline.json

Each run is ``run.py --workload W --seed S --seconds T --trace 0``, one at a
time.  For each workload and end-to-end metric the summary holds the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
interquartile distance as a share of the median.  It also records what the
runs drew: op-mix shares, the node counts of the graphs the ops analysed, and
the share of ops whose (model, input) pairs were all seen earlier in the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads   # noqa: E402


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if p.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {p.returncode}: {p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def drawn(workload: str, seed: int, passes: int, node_counts: dict) -> dict:
    """What a run with this seed drew: one pass of its sequence, replayed
    ``passes`` times."""
    ops = workloads.WORKLOADS[workload](seed).sequence()
    kinds, nodes, seen = Counter(op.kind for op in ops), [], set()
    repeated = with_model = 0
    for op in ops:
        if op.depth is not None:
            pairs = {(op.argv[1], None)}
            nodes.append(1 + op.depth + op.depth // 2)
        else:
            pairs = {(m, op.size) for m in op.models}
            nodes += [node_counts[m] for m in op.models]
        if pairs:
            with_model += 1
            repeated += pairs <= seen
            seen |= pairs
    first = repeated / with_model if with_model else 0.0
    return {"op_mix": {k: n / len(ops) for k, n in sorted(kinds.items())},
            "nodes": nodes,
            "repeat_share_first_pass": first,
            # every op of a later pass repeats a pair seen in the first
            "repeat_share_run": (first + passes - 1) / passes if with_model else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from hardgraph import registry
    node_counts = {m: len(registry.build(m).nodes) for m in workloads.MODELS}

    doc = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "machine": "shared with other tenants; its speed changes for seconds to "
                      "minutes at a time, which probe.py scales out",
           "seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            res = run_once(name, seed, args.seconds, 0)
            if not res["correct"]:
                print(f"{name} seed {seed}: {res['failed']} failed ops", file=sys.stderr)
            runs.append((seed, res))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        metrics = {k: summarise([r["metrics"][k]["value"] for _, r in runs])
                   for k in runs[0][1]["metrics"]}
        length = workloads.WORKLOADS[name].length
        draws = [drawn(name, seed, r["attempted"] // length, node_counts) for seed, r in runs]
        nodes = sorted(n for d in draws for n in d["nodes"])
        doc["workloads"][name] = {
            "seeds": [s for s, _ in runs],
            "attempted": [r["attempted"] for _, r in runs],
            "failed": [r["failed"] for _, r in runs],
            "metrics": metrics,
            "op_mix": {k: statistics.median(d["op_mix"].get(k, 0.0) for d in draws)
                       for k in sorted({k for d in draws for k in d["op_mix"]})},
            "nodes_per_graph": {"min": nodes[0], "median": statistics.median(nodes),
                                "max": nodes[-1],
                                "quartiles": statistics.quantiles(nodes, n=4)},
            "repeat_share_first_pass":
                statistics.median(d["repeat_share_first_pass"] for d in draws),
            "repeat_share_run": statistics.median(d["repeat_share_run"] for d in draws),
        }
        for k, m in metrics.items():
            print(f"  {name} {k}: median {m['median']:.4g} "
                  f"[{m['q1']:.4g}, {m['q3']:.4g}] spread {100 * m['spread']:.1f}%", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
