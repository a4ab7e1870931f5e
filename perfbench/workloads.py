"""The three workloads: seeded op sequences, expressed as CLI argv lists.

The program sees only the argv and the graph files made here.  Every argv a
seed can draw is also listed by ``all_ops``, so that ``record_refs.py`` can
record a reference report for each one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# Generated files live here, relative to the checkout root (the working
# directory of every run), so report headers naming them are the same in
# every checkout.
WORK = "perfbench/.work"
HDB_DIR = f"{WORK}/hdb"
OUT_DIR = f"{WORK}/out"

# The 25 catalog models, fixed here so a model added later does not change
# the op mix.
MODELS = (
    "densenet121", "densenet201", "densenet264",
    "fc-densenet-ref100", "fc-densenet103", "fc-densenet56", "fc-densenet67",
    "fc-hardnet-ref100", "fc-hardnet68", "fc-hardnet76", "fc-hardnet84",
    "fc-sparsenet-ref100",
    "hardnet117l", "hardnet117s", "hardnet138l", "hardnet138s",
    "hardnet39ds", "hardnet68", "hardnet96l", "hardnet96s",
    "resnet101", "resnet152", "resnet18", "resnet50", "vgg16",
)
# None is the model's default input; the others are multiples of 32, which
# every model (the FC-HarDNet skips included) accepts.
SIZES = (None, "192x192", "256x320", "352x480")
# each HarDNet variant against the reference the paper compares it with
COMPARE_PAIRS = (
    ("hardnet68", "resnet50"), ("hardnet39ds", "resnet18"),
    ("hardnet96s", "resnet50"), ("hardnet96l", "densenet121"),
    ("hardnet117s", "resnet101"), ("hardnet117l", "densenet201"),
    ("hardnet138s", "resnet152"), ("hardnet138l", "densenet264"),
    ("fc-hardnet68", "fc-densenet56"), ("fc-hardnet76", "fc-densenet67"),
    ("fc-hardnet84", "fc-densenet103"), ("fc-hardnet-ref100", "fc-densenet-ref100"),
)
# (op kind, weight): graph construction dominates, liveness is a small share
CATALOG_KINDS = (
    ("analyze-csv", 2), ("analyze-json", 2), ("liveness", 1), ("liveness-cf", 1),
    ("latency", 2), ("check-moc", 1), ("compare", 1), ("build", 1), ("export-dot", 1),
)

DEPTHS = (512, 1024, 2048, 4096)
GROWTH_RATES = (12, 16, 20)
MULTIPLIERS = (1.6, 1.7, 1.8)
HDB_INPUT = (64, 32, 32)
DEEP_KINDS = ("liveness", "liveness-cf", "analyze-json", "latency")

# small and medium models: interpreter start, not analysis, dominates
CLI_MODELS = ("hardnet39ds", "hardnet68", "resnet18", "resnet50", "densenet121",
              "vgg16", "fc-hardnet68", "fc-densenet56")
CLI_LIST_MODELS = 7
CLI_VALIDATE = 1     # a small share: one cold validate-tables in 32 ops


@dataclass(frozen=True)
class Op:
    argv: tuple
    kind: str
    models: tuple = ()         # catalog models the op builds
    size: Optional[str] = None
    depth: Optional[int] = None  # HDB depth L, deep-hdb only
    growth: Optional[int] = None
    multiplier: Optional[float] = None
    output: Optional[str] = None  # file the op writes with -o

    @property
    def key(self) -> str:
        """Reference key: the argv without the output path."""
        argv = list(self.argv)
        if self.output:
            i = argv.index("-o")
            del argv[i:i + 2]
        return " ".join(argv)


def _model_op(kind: str, model: str, size: Optional[str]) -> Op:
    size_args = ["--input", size] if size else []
    output = None
    if kind == "analyze-csv":
        argv = ["analyze", model, *size_args, "--format", "csv"]
    elif kind == "analyze-json":
        argv = ["analyze", model, *size_args, "--format", "json"]
    elif kind == "liveness":
        argv = ["liveness", model, *size_args]
    elif kind == "liveness-cf":
        argv = ["liveness", model, *size_args, "--concat-free"]
    elif kind == "latency":
        argv = ["latency", model, *size_args, "--platform", "gpu-like"]
    elif kind == "check-moc":
        argv = ["check-moc", model, *size_args, "--threshold", "40"]
    elif kind == "build":
        output = f"{OUT_DIR}/build.json"
        argv = ["build", model, *size_args, "-o", output]
    elif kind == "export-dot":
        output = f"{OUT_DIR}/graph.dot"
        argv = ["export-dot", model, *size_args, "-o", output]
    else:
        raise ValueError(kind)
    return Op(tuple(argv), kind, (model,), size, output=output)


def _compare_op(a: str, b: str, size: Optional[str]) -> Op:
    size_args = ["--input", size] if size else []
    return Op(("compare", a, b, *size_args), "compare", (a, b), size)


def hdb_path(depth: int, growth: int, multiplier: float) -> str:
    return f"{HDB_DIR}/hdb-L{depth}-k{growth}-m{multiplier}.json"


def _deep_op(kind: str, depth: int, growth: int, multiplier: float) -> Op:
    path = hdb_path(depth, growth, multiplier)
    argv = {"liveness": ["liveness", path],
            "liveness-cf": ["liveness", path, "--concat-free"],
            "analyze-json": ["analyze", path, "--format", "json"],
            "latency": ["latency", path, "--platform", "gpu-like"]}[kind]
    return Op(tuple(argv), kind, (), None, depth, growth, multiplier)


def write_hdb_files(mods: dict, files) -> None:
    """Write bare HDB graph JSON for each (depth, growth, multiplier), with
    the package's public builder and serializer."""
    harmonic, graph_ir = mods["harmonic"], mods["graph_ir"]
    Path(HDB_DIR).mkdir(parents=True, exist_ok=True)
    for depth, growth, multiplier in files:
        spec = harmonic.HDBSpec(depth, growth, multiplier)
        graph, _ = harmonic.build_bare_hdb(spec, graph_ir.TensorShape(*HDB_INPUT))
        Path(hdb_path(depth, growth, multiplier)).write_text(graph.to_json())


def _simple_op(kind: str) -> Op:
    return Op((kind,), kind)


class Workload:
    """A seeded op sequence.  A run replays it until its time is up and
    keeps, for each op, the best of its replays."""

    name = ""
    in_process = True
    length = 0      # ops in one pass of the sequence

    def __init__(self, seed: int):
        self.rng = random.Random(f"{self.name}/{seed}")

    def hdb_files(self) -> list:
        """(depth, growth, multiplier) of the graph files set-up must write."""
        return []

    def sequence(self) -> list:
        raise NotImplementedError

    def warmup(self) -> list:
        """Ops set-up runs once, untimed, so that lazy work is done."""
        raise NotImplementedError


def _kinds(rng, kinds, length: int) -> list:
    """``length`` op kinds in seeded order, each kind exactly its weight's
    share, so that every seed measures the same mix."""
    total = sum(w for _, w in kinds)
    out = [k for k, w in kinds for _ in range(length * w // total)]
    assert len(out) == length, "length must be a multiple of the total weight"
    rng.shuffle(out)
    return out


class CatalogMix(Workload):
    name = "catalog-mix"
    length = 360

    def sequence(self) -> list:
        rng, ops = self.rng, []
        for kind in _kinds(rng, CATALOG_KINDS, self.length):
            size = rng.choice(SIZES)
            if kind == "compare":
                ops.append(_compare_op(*rng.choice(COMPARE_PAIRS), size))
            else:
                ops.append(_model_op(kind, rng.choice(MODELS), size))
        return ops

    def warmup(self) -> list:
        ops = [_model_op(kind, "hardnet68", None)
               for kind, _ in CATALOG_KINDS if kind != "compare"]
        return ops + [_compare_op(*COMPARE_PAIRS[0], None)]


class DeepHdb(Workload):
    """Every (depth, op kind) pair once, in seeded order, so each run
    measures the same mix whatever the seed."""

    name = "deep-hdb"
    length = len(DEPTHS) * len(DEEP_KINDS)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.files = [(d, self.rng.choice(GROWTH_RATES), self.rng.choice(MULTIPLIERS))
                      for d in DEPTHS]

    def hdb_files(self) -> list:
        return list(self.files)

    def sequence(self) -> list:
        ops = [_deep_op(kind, *f) for f in self.files for kind in DEEP_KINDS]
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        return [_deep_op(kind, *self.files[0]) for kind in DEEP_KINDS]


class CliCold(Workload):
    """Each model once per analysing kind, so each seed draws the same
    models; inputs and order are seeded."""

    name = "cli-cold"
    in_process = False
    length = 3 * len(CLI_MODELS) + CLI_LIST_MODELS + CLI_VALIDATE

    def sequence(self) -> list:
        rng = self.rng
        ops = [_model_op(kind, m, rng.choice(SIZES))
               for kind in ("analyze-csv", "liveness", "latency") for m in CLI_MODELS]
        ops += [_simple_op("list-models")] * CLI_LIST_MODELS
        ops += [_simple_op("validate-tables")] * CLI_VALIDATE
        rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        return [_simple_op("list-models")]


WORKLOADS = {w.name: w for w in (CatalogMix, DeepHdb, CliCold)}


def all_ops() -> list:
    """Every op any seed of any workload can draw (deep-hdb ops for every
    growth rate and multiplier)."""
    ops = [_model_op(kind, m, s) for kind, _ in CATALOG_KINDS if kind != "compare"
           for m in MODELS for s in SIZES]
    ops += [_compare_op(a, b, s) for a, b in COMPARE_PAIRS for s in SIZES]
    ops += [_deep_op(kind, d, k, m) for d in DEPTHS for k in GROWTH_RATES
            for m in MULTIPLIERS for kind in DEEP_KINDS]
    ops += [_simple_op("list-models"), _simple_op("validate-tables")]
    return ops
