"""Cold-start wall times of the CLI in two checkouts, without and with a bytecode cache.

    python tools/coldstart.py [--rounds N] CHECKOUT_A CHECKOUT_B

Each op of one pass of perfbench's cli-cold mix (the pass ``perfbench/run.py
--workload cli-cold --seed 1`` replays) runs as a fresh ``python -m
hardgraph.cli`` process in each checkout, with the checkout as working
directory and its ``src`` alone on PYTHONPATH.  So does one op no pass runs:
``liveness`` of the bare-HDB L=4096 graph JSON file, deep-hdb's deepest graph,
which the script writes to a temporary directory with this repository's
``src``.  Every one-shot run on a graph JSON file pays such a cold load.  Each
round runs every op once per checkout, and which checkout goes first
alternates from round to round.
Two settings, set in the child processes only:

- no cache: PYTHONDONTWRITEBYTECODE=1, as cli-cold runs, so each process
  compiles hardgraph's source (bytecode left in a ``__pycache__`` next to the
  source would still be read; the script warns if it finds one);
- cache: PYTHONPYCACHEPREFIX set to a new temporary directory, warmed by one
  run of each op per checkout, so each process reads bytecode, as it does for
  an installed package (pip byte-compiles on install).

For each op it prints the min and the median in ms for A and for B, and in how
many rounds B was faster than A; then the total of one pass, each op's median
times the number of times the pass runs it (0 for the graph JSON op).  Nothing
is asserted about the times; an op that exits non-zero stops the script.
Stdlib only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


SEED = 1


def one_pass() -> dict:
    """Each distinct argv of one cli-cold pass, with how often the pass runs it."""
    counts = {}
    for op in workloads.CliCold(SEED).sequence():
        counts[op.argv] = counts.get(op.argv, 0) + 1
    return dict(sorted(counts.items()))


def write_hdb_file(directory: str) -> str:
    """Write the bare HDB L=4096 graph JSON to ``directory``; return its path."""
    sys.dont_write_bytecode = True  # a __pycache__ in a checkout would serve the no-cache runs
    sys.path.insert(0, str(ROOT / "src"))
    from hardgraph.graph_ir import TensorShape
    from hardgraph.harmonic import HDBSpec, build_bare_hdb
    graph, _ = build_bare_hdb(HDBSpec(4096, 16, 1.7), TensorShape(*workloads.HDB_INPUT))
    path = Path(directory) / "hdb-L4096-k16-m1.7.json"
    path.write_text(graph.to_json())
    return str(path)


def child_env(checkout: Path, cache) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.pop("PYTHONPYCACHEPREFIX", None)
    if cache is None:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPYCACHEPREFIX"] = cache
    return env


def run_ms(checkout: Path, argv: tuple, env: dict) -> float:
    t0 = time.perf_counter()
    p = subprocess.run([sys.executable, "-m", "hardgraph.cli", *argv], cwd=checkout, env=env,
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    ms = 1000.0 * (time.perf_counter() - t0)
    if p.returncode != 0:
        sys.exit(f"{checkout}: hardgraph {' '.join(argv)} exited {p.returncode}\n"
                 + p.stderr.decode(errors="replace"))
    return ms


def measure(checkouts: list, ops: dict, rounds: int, cache) -> dict:
    """argv -> (A's times, B's times), in ms."""
    envs = [child_env(c, cache) for c in checkouts]
    if cache is not None:  # the first run of each op writes the bytecode it reads
        for checkout, env in zip(checkouts, envs):
            for argv in ops:
                run_ms(checkout, argv, env)
    times = {argv: ([], []) for argv in ops}
    for r in range(rounds):
        for argv in ops:
            for side in ((0, 1) if r % 2 == 0 else (1, 0)):
                times[argv][side].append(run_ms(checkouts[side], argv, envs[side]))
    return times


def report(title: str, ops: dict, times: dict) -> None:
    print(f"\n{title}")
    print(f"{'op':52} {'A min':>7} {'A med':>7} {'B min':>7} {'B med':>7} {'B wins':>7}")
    totals = [0.0, 0.0]
    for argv, n in ops.items():
        a, b = times[argv]
        medians = statistics.median(a), statistics.median(b)
        totals = [t + n * m for t, m in zip(totals, medians)]
        wins = sum(y < x for x, y in zip(a, b))
        shown = " ".join(os.path.basename(arg) for arg in argv)  # a file by its name
        print(f"{shown:52} {min(a):7.1f} {medians[0]:7.1f} {min(b):7.1f} "
              f"{medians[1]:7.1f} {wins:>4}/{len(a)}")
    print(f"one {sum(ops.values())}-op pass, sum of count x median: A {totals[0]:.0f} ms, "
          f"B {totals[1]:.0f} ms ({100.0 * (totals[1] / totals[0] - 1):+.1f}%)")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout_a", type=Path)
    p.add_argument("checkout_b", type=Path)
    p.add_argument("--rounds", type=int, default=10)
    args = p.parse_args()
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    checkouts = [args.checkout_a.resolve(), args.checkout_b.resolve()]
    for checkout in checkouts:
        if (checkout / "src" / "hardgraph" / "__pycache__").exists():
            print(f"warning: {checkout}/src/hardgraph/__pycache__ exists, so runs without "
                  "a cache read its bytecode", file=sys.stderr)
    with tempfile.TemporaryDirectory(prefix="coldstart-") as tmp:
        ops = {**one_pass(), ("liveness", write_hdb_file(tmp)): 0}
        print(f"A = {checkouts[0]}\nB = {checkouts[1]}\n{args.rounds} round(s), Python "
              f"{sys.version.split()[0]}, cli-cold pass of seed {SEED}; times in ms")
        report("no bytecode cache (PYTHONDONTWRITEBYTECODE=1)", ops,
               measure(checkouts, ops, args.rounds, None))
        report("bytecode cache (PYTHONPYCACHEPREFIX, warmed once)", ops,
               measure(checkouts, ops, args.rounds, os.path.join(tmp, "pycache")))


if __name__ == "__main__":
    main()
