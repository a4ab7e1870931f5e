"""The package and the CLI load only the modules a command needs.

``import hardgraph`` resolves its public names on first access, and each CLI
subcommand imports the analysis modules it runs.  Each case runs in a fresh
interpreter, because this test process has imported every module already.
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import hardgraph
from test_cli import quoted_label_json

SRC = str(Path(__file__).resolve().parents[1] / "src")

# every public name the package exports
EXPORTS = (
    "Add", "ArchGraph", "Concat", "Conv", "GlobalPool", "GraphError", "Input", "Linear",
    "Pool", "TensorShape", "TransposedConv", "to_dot",
    "HDBSpec", "TransitionSpec", "bottleneck_channels", "build_hdb", "build_transition",
    "channel_width", "hdb_links", "log_links",
    "PlatformModel", "model_latency",
    "peak_memory", "tensor_lifetimes", "verify_flush",
    "ModelSummary", "check_moc", "model_summary",
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


def test_list_models_loads_only_the_name_table():
    assert loaded_after(run_cli("list-models")) == {
        "hardgraph", "hardgraph.cli", "hardgraph.registry"}


@pytest.mark.parametrize("code", [
    run_cli("list-models"),
    "import " + ", ".join(f"hardgraph.{m.name}" for m in pkgutil.iter_modules(hardgraph.__path__)),
], ids=["list-models", "every module"])
def test_no_module_loads_future(code):
    # annotations name only types defined by then, or are quoted: none needs __future__
    at_start, after = modules_after(code)
    if "__future__" in at_start:
        pytest.skip("__future__ is loaded at interpreter start (for example by a .pth file)")
    assert "__future__" not in after


def test_default_input_loads_only_the_shape_type():
    loaded = loaded_after("from hardgraph import registry\n"
                          "assert registry.default_input('hardnet68').height == 224")
    assert "hardgraph.graph_ir" in loaded
    assert loaded.isdisjoint({"hardgraph.harmonic", "hardgraph.references"}), sorted(loaded)


@pytest.mark.parametrize("argv", [("list-models",), ("liveness", "resnet50"),
                                  ("analyze", "hardnet68", "--format", "csv"),
                                  ("check-moc", "resnet50", "--threshold", "40"),
                                  ("export-dot", "hardnet68")])
def test_commands_without_json_io_do_not_load_json(argv):
    at_start, after = modules_after(run_cli(*argv))
    assert "hardgraph.cli" in after and "hardgraph.jsonio" not in after
    if "json" in at_start:
        pytest.skip("json is loaded at interpreter start (for example by a .pth file)")
    assert "json" not in after


def test_modules_off_the_json_path_do_not_load_json():
    at_start, after = modules_after("import hardgraph.cli, hardgraph.graph_ir, hardgraph.metrics, "
                                    "hardgraph.liveness, hardgraph.registry")
    assert "hardgraph.jsonio" not in after
    if "json" in at_start:
        pytest.skip("json is loaded at interpreter start (for example by a .pth file)")
    assert "json" not in after


@pytest.mark.parametrize("argv", [("build", "hardnet68", "-o", os.devnull),
                                  ("compare", "hardnet68", "resnet50"),
                                  ("latency", "resnet18", "--platform", "gpu-like"),
                                  ("analyze", "hardnet68", "--format", "json")])
def test_commands_with_json_io_load_jsonio(argv):
    assert "hardgraph.jsonio" in loaded_after(run_cli(*argv))


def test_a_json_input_loads_jsonio(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(quoted_label_json())
    assert "hardgraph.jsonio" in loaded_after(run_cli("liveness", str(path)))


@pytest.mark.parametrize("argv", [("build", "hardnet68", "-o", os.devnull), ("liveness", "{}")],
                         ids=["build", "liveness-json"])
def test_graph_json_io_does_not_load_metrics(tmp_path, argv):
    # jsonio sits below metrics: writing or loading a graph needs no report code
    path = tmp_path / "g.json"
    path.write_text(quoted_label_json())
    loaded = loaded_after(run_cli(*(a.format(path) for a in argv)))
    assert "hardgraph.jsonio" in loaded and "hardgraph.metrics" not in loaded, sorted(loaded)


@pytest.mark.parametrize("argv", [("latency", "densenet121", "--platform", "gpu-like"),
                                  ("build", "hardnet68", "-o", os.devnull)])
def test_commands_without_csv_output_do_not_load_csv(argv):
    # both write through the JSON writer in jsonio, which loads no csv
    at_start, after = modules_after(run_cli(*argv))
    if "csv" in at_start:
        pytest.skip("csv is loaded at interpreter start (for example by a .pth file)")
    assert "hardgraph.jsonio" in after and "csv" not in after


@pytest.mark.parametrize("argv", [("analyze", "hardnet68", "--format", "csv"),
                                  ("liveness", "fc-hardnet68")])
def test_csv_reports_of_catalog_models_do_not_load_csv(argv):
    at_start, after = modules_after(run_cli(*argv))
    if "csv" in at_start:
        pytest.skip("csv is loaded at interpreter start (for example by a .pth file)")
    assert "hardgraph.cli" in after and "csv" not in after


@pytest.mark.parametrize("argv", [("analyze", "--format", "csv"), ("liveness",)])
def test_csv_reports_of_quoted_labels_do_not_load_csv(tmp_path, argv):
    # the CSV writers quote a label themselves
    path = tmp_path / "g.json"
    path.write_text(quoted_label_json())
    at_start, after = modules_after(run_cli(argv[0], str(path), *argv[1:]))
    if "csv" in at_start:
        pytest.skip("csv is loaded at interpreter start (for example by a .pth file)")
    assert "hardgraph.cli" in after and "csv" not in after
