"""hardgraph benchmark: one workload, closed loop, outputs checked.

    python3 perfbench/run.py --workload catalog-mix --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The package is used from ``src/`` as is:
in-process through ``hardgraph.cli.run(argv)``, or as ``python -m
hardgraph.cli`` subprocesses (cli-cold).  One client sends each op only after
the previous one finished; nothing runs in parallel.  The seeded op sequence
is replayed until ``--seconds`` have passed (at least MIN_PASSES times), every
op is checked, and times are scaled to reference host speed (probe.py).
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from spans placed by spans.py.  The last line of stdout is the JSON
result; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks      # noqa: E402
import probe       # noqa: E402
import spans       # noqa: E402
import workloads   # noqa: E402

SETUP_REPS = 5
MIN_PASSES = 3
MAX_FAILURES_SHOWN = 20


@dataclass
class Result:
    rc: object
    stdout: bytes
    stderr: str
    written: bytes
    seconds: float
    cpu_seconds: float
    import_ms: float = 0.0
    probe_s: float = 0.0   # host probe time next to the op, set by probe.Scaler
    out_bytes: int = 0


def _purge_hardgraph() -> None:
    for name in [n for n in sys.modules if n == "hardgraph" or n.startswith("hardgraph.")]:
        del sys.modules[name]


def _read_output(op) -> bytes:
    path = Path(op.output)
    return path.read_bytes() if path.exists() else b""


def _clear_output(op) -> None:
    if op.output:
        Path(op.output).unlink(missing_ok=True)


class InProcess:
    """Calls ``cli.run(argv)`` with ``sys.argv`` set as a real invocation
    would set it (the report header reads ``sys.argv``)."""

    def __init__(self, run_fn):
        self.run_fn = run_fn

    def run(self, op) -> Result:
        _clear_output(op)
        out, err = io.StringIO(), io.StringIO()
        saved = sys.argv
        sys.argv = ["hardgraph", *op.argv]
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.run_fn(list(op.argv))
        except Exception as e:  # an op that raises is a failed op, not a crash
            rc = f"raised {type(e).__name__}: {e}"
        finally:
            t1, c1 = time.perf_counter(), time.process_time()
            sys.argv = saved
        written = _read_output(op) if op.output else b""
        return Result(rc, out.getvalue().encode(), err.getvalue(), written, t1 - t0, c1 - c0)


class Subprocess:
    """One ``python -m hardgraph.cli`` process per op.  Traced, the op runs
    under ``-X importtime`` through traced_cli.py, which dumps its spans."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.spans_file = Path(workloads.WORK) / "child-spans.json"

    def run(self, op) -> Result:
        _clear_output(op)
        if self.tracer is None:
            cmd = [sys.executable, "-m", "hardgraph.cli", *op.argv]
        else:
            cmd = [sys.executable, "-X", "importtime", str(HERE / "traced_cli.py"),
                   str(self.spans_file), *op.argv]
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        c0, t0 = time.process_time(), time.perf_counter()
        p = subprocess.run(cmd, capture_output=True, env=self.env, cwd=ROOT, timeout=120)
        t1, c1 = time.perf_counter(), time.process_time()
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (c1 - c0) + (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
        stderr, import_ms = p.stderr.decode(errors="replace"), 0.0
        if self.tracer is not None:
            kept = []
            for line in stderr.splitlines(keepends=True):
                if not line.startswith("import time:"):
                    kept.append(line)
                elif line.rsplit("|", 1)[-1].strip() == "hardgraph":
                    import_ms = int(line.split("|")[1]) / 1000.0
            stderr = "".join(kept)
            self.tracer.merge(self.spans_file, self.tracer.op)
        written = _read_output(op) if op.output else b""
        return Result(p.returncode, p.stdout, stderr, written, t1 - t0, cpu, import_ms)


class Run:
    """Set-up state and results of one benchmark invocation."""

    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.cls = workloads.WORKLOADS[name]
        self.failures = []
        self.import_ms = []
        if self.cls.in_process:
            self.scaler = probe.Scaler(probe.IN_PROCESS)
        else:
            self.scaler = probe.Scaler(probe.COLD_START, interval=1.0, window=1.5)

    def setup_once(self) -> float:
        """Imports, input generation and warm-up; returns its duration,
        scaled to the reference host speed."""
        host = self.scaler.probe
        p0 = host.measure()
        t0 = time.perf_counter()
        self.checker = checks.Checker(checks.load_refs(), checks.load_expected(ROOT))
        Path(workloads.OUT_DIR).mkdir(parents=True, exist_ok=True)
        wl = self.cls(self.seed)
        if wl.in_process:
            _purge_hardgraph()
            i0 = time.perf_counter()
            self.mods = spans.hardgraph_modules()
            self.import_ms.append(1000.0 * (time.perf_counter() - i0))
            workloads.write_hdb_files(self.mods, wl.hdb_files())
            self.runner = InProcess(self.mods["cli"].run)
        else:
            self.runner = Subprocess()
        self.ops = wl.sequence()
        for op in wl.warmup():
            self.runner.run(op)
        seconds = time.perf_counter() - t0
        factor = host.reference_s / ((p0 + host.measure()) / 2)
        if wl.in_process:
            self.import_ms[-1] *= factor
        return seconds * factor

    def one_pass(self, runner, first_id: int = 0, tracer=None) -> list:
        """Run the sequence once, checking every op; returns its Results,
        each with the host probe time next to it."""
        results = []
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = first_id + i
            start = time.perf_counter()
            res = runner.run(op)
            results.append(res)
            self.scaler.add(res, start, time.perf_counter())
            problems = self.checker.check(op, res.rc, res.stdout, res.stderr, res.written)
            if problems:
                self.failures.append((i, op, problems))
            # keep only the size, so that held reports do not count in peak RSS
            res.out_bytes = len(res.stdout) + len(res.written)
            res.stdout = res.written = b""
        self.scaler.flush()
        return results


def at_reference(run: Run, passes: list, field: str) -> list:
    """``field`` (seconds) of every op run, scaled to reference host speed."""
    ref = run.scaler.probe.reference_s
    return [getattr(r, field) * ref / r.probe_s for p in passes for r in p]


def end_to_end(run: Run, passes: list, setup_s: float) -> dict:
    lat, cpu = at_reference(run, passes, "seconds"), at_reference(run, passes, "cpu_seconds")
    # latency percentiles over the ops of the sequence, each op its median
    # over the passes: one noisy pass cannot set the tail
    n = len(run.ops)
    per_op = [statistics.median(lat[i::n]) for i in range(n)]
    if run.cls.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(per_op), "ms"),
        "op_p90_ms": (1000.0 * statistics.quantiles(per_op, n=10)[8], "ms"),
        "cpu_ms_per_op": (1000.0 * sum(cpu) / len(cpu), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(run: Run, tracer, traced: list, plain: list) -> dict:
    n = len(run.ops)
    depth = {p * n + i: op.depth for p in range(len(traced))
             for i, op in enumerate(run.ops) if op.depth is not None}
    scale = {p * n + i: run.scaler.probe.reference_s / r.probe_s
             for p, results in enumerate(traced) for i, r in enumerate(results)}
    values = spans.layer_metrics(tracer, n, depth, scale)
    out = {name: (v, "count" if "_calls_" in name or name.endswith("_per_node") else "ms")
           for name, v in values.items()}
    imports = (at_reference(run, traced, "import_ms") if not run.cls.in_process
               else run.import_ms)
    out["import.hardgraph_ms"] = (statistics.median(imports), "ms")
    out_bytes = sum(r.out_bytes for r in traced[0])
    out["out_kb_per_op"] = (out_bytes / n / 1024.0, "KB")
    traced_s, plain_s = at_reference(run, traced, "seconds"), at_reference(run, plain, "seconds")
    overhead = sum(traced_s) / sum(plain_s) - 1
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hardgraph" / "cli.py").is_file():
        print(f"error: no hardgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    run = Run(args.workload, args.seed)
    setup_s = statistics.median(run.setup_once() for _ in range(SETUP_REPS))
    start = time.perf_counter()
    if not args.trace:
        passes = []
        while len(passes) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            passes.append(run.one_pass(run.runner))
        metrics = end_to_end(run, passes, setup_s)
    else:
        # untraced and traced passes alternate; the difference between their
        # per-op times is the tracing overhead
        tracer = spans.Tracer()
        plain, traced = [], []
        while len(traced) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            plain.append(run.one_pass(run.runner))
            if run.cls.in_process:
                uninstall = spans.install(tracer, run.mods)
                runner = InProcess(tracer.span("cli.run", run.mods["cli"].run))
                traced.append(run.one_pass(runner, len(traced) * len(run.ops), tracer))
                uninstall()
            else:
                traced.append(run.one_pass(Subprocess(tracer), len(traced) * len(run.ops),
                                           tracer))
        metrics = per_layer(run, tracer, traced, plain)
        tracer.dump(Path(workloads.WORK) / f"spans-{args.workload}-{args.seed}.json")
        passes = plain + traced

    attempted, failed = sum(len(p) for p in passes), len(run.failures)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(passes)} passes of "
          f"{len(run.ops)} ops, {attempted} ops run, "
          f"{failed} failed, error_rate {failed / attempted:.4f}")
    print(f"  host probe: median {1000 * statistics.median(run.scaler.history):.3f} ms, "
          f"reference {1000 * run.scaler.probe.reference_s:.3f} ms; times below are scaled to the "
          f"reference")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.4f} {unit}")
    for i, op, problems in run.failures[:MAX_FAILURES_SHOWN]:
        print(f"  FAIL op {i}: {' '.join(op.argv)}: {'; '.join(problems)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
