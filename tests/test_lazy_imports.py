"""The package and the CLI load only the modules a command needs.

``import hardgraph`` resolves its public names on first access, and each CLI
subcommand imports the analysis modules it runs.  Each case runs in a fresh
interpreter, because this test process has imported every module already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardgraph

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every public name the package exported when it imported its modules eagerly
EXPORTS = (
    "Add", "ArchGraph", "Concat", "Conv", "GlobalPool", "GraphError", "Input", "Linear",
    "Pool", "TensorShape", "TransposedConv", "to_dot",
    "HDBSpec", "TransitionSpec", "bottleneck_channels", "build_hdb", "build_transition",
    "channel_width", "hdb_links",
    "PlatformModel", "model_latency",
    "peak_memory", "tensor_lifetimes", "verify_flush",
    "ModelSummary", "check_moc", "layer_macs", "model_summary",
    "SparseRule", "build_reference", "sparse_links",
    "MODEL_NAMES", "build", "default_input",
    "__version__",
)


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_imports(name):
    namespace = {}
    exec(f"from hardgraph import {name}", namespace)
    assert namespace[name] is getattr(hardgraph, name)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hardgraph.no_such_name
    with pytest.raises(ImportError):
        exec("from hardgraph import no_such_name", {})


def modules_after(code: str) -> tuple:
    """The modules a fresh interpreter holds at start, and after ``code``.
    The probe itself imports no more than ``contextlib`` and ``io``."""
    probe = (f"import sys\nat_start = sorted(sys.modules)\nimport contextlib, io\n{code}\n"
             "print(*at_start)\nprint(*sorted(sys.modules))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         env=env, check=True).stdout
    at_start, after = out.splitlines()[-2:]
    return set(at_start.split()), set(after.split())


def loaded_after(code: str) -> set:
    """The hardgraph modules loaded in a fresh interpreter after ``code``."""
    return {m for m in modules_after(code)[1] if m.startswith("hardgraph")}


def run_cli(*argv) -> str:
    return ("from hardgraph import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.run({list(argv)!r}) == 0\n")


def test_plain_import_loads_no_submodule():
    assert loaded_after("import hardgraph") == {"hardgraph"}


@pytest.mark.parametrize("argv,absent", [
    (("list-models",), {"metrics", "liveness", "latency", "catalog"}),
    (("analyze", "hardnet68"), {"liveness", "latency", "catalog", "references"}),
    (("liveness", "resnet50"), {"metrics", "latency", "catalog"}),
    (("latency", "densenet121", "--platform", "gpu-like"), {"liveness", "catalog"}),
])
def test_each_subcommand_loads_only_what_it_runs(argv, absent):
    loaded = loaded_after(run_cli(*argv))
    assert "hardgraph.cli" in loaded
    assert loaded.isdisjoint(f"hardgraph.{m}" for m in absent), sorted(loaded)


@pytest.mark.parametrize("argv", [("list-models",), ("liveness", "resnet50")])
def test_commands_without_json_io_do_not_load_json(argv):
    at_start, after = modules_after(run_cli(*argv))
    if "json" in at_start:
        pytest.skip("json is loaded at interpreter start (for example by a .pth file)")
    assert "hardgraph.cli" in after and "json" not in after


@pytest.mark.parametrize("argv", [("latency", "densenet121", "--platform", "gpu-like"),
                                  ("build", "hardnet68", "-o", os.devnull)])
def test_commands_without_csv_output_do_not_load_csv(argv):
    # metrics loads csv inside report_csv alone; build reaches metrics through to_json
    at_start, after = modules_after(run_cli(*argv))
    if "csv" in at_start:
        pytest.skip("csv is loaded at interpreter start (for example by a .pth file)")
    assert "hardgraph.metrics" in after and "csv" not in after
