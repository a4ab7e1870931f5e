import argparse
import contextlib
import csv
import io
import json
import math
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import hardgraph
from hardgraph import cli, registry
from hardgraph.cli import COMMANDS, UsageError, build_parser, main, run
from hardgraph.graph_ir import ArchGraph, Conv, Input, TensorShape, TransposedConv
from test_graph_ir import (MALFORMED, MIXED_GRID_KINDS, mixed_grid_doc, node, one_kind_doc,
                           with_change)
from test_latency import BAD_PLATFORMS


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasics:
    def test_list_models(self, capsys):
        code, out, _ = invoke(capsys, "list-models")
        assert code == 0
        names = out.split()
        assert "hardnet68" in names and "fc-densenet103" in names

    def test_unknown_model_is_analysis_error(self, capsys):
        code, _, err = invoke(capsys, "analyze", "hardnet9000")
        assert code == 2 and "hardnet9000" in err

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = invoke(capsys)
        assert code == 1 and "usage error" in err

    def test_bad_input_spec(self, capsys):
        code, _, err = invoke(capsys, "analyze", "hardnet68", "--input", "224")
        assert code == 1 and "224" in err

    @pytest.mark.parametrize("size", ["2_24x2_24", "0x224", "224x0", "-32x224", "+224x224",
                                      " 224x224", "224x224x3", "x224", "\uff12\uff12\uff14x224"])
    @pytest.mark.parametrize("from_json", [False, True])
    def test_input_needs_positive_ascii_digits(self, capsys, tmp_path, size, from_json):
        model = "hardnet68"
        if from_json:
            model = str(tmp_path / "g.json")
            assert invoke(capsys, "build", "hardnet68", "-o", model)[0] == 0
        code, out, err = invoke(capsys, "analyze", model, f"--input={size}")
        assert code == 1 and out == ""
        assert err.startswith("usage error: --input") and err.count("\n") == 1
        assert repr(size) in err

    @pytest.mark.parametrize("argv", [
        ("liveness", "hardnet39ds", "--dtype-bytes", "0"),
        ("analyze", "hardnet39ds", "--ds-weight", "-1"),
        ("analyze", "hardnet39ds", "--ds-weight", "1.5"),
        ("check-moc", "hardnet39ds", "--threshold", "nan"),
        ("check-moc", "hardnet39ds", "--threshold", "inf"),
        # no report of these reads a dtype, so they take no --dtype-bytes
        ("build", "hardnet39ds", "--dtype-bytes", "2"),
        ("check-moc", "hardnet39ds", "--dtype-bytes", "2", "--threshold", "40"),
        ("export-dot", "hardnet39ds", "--dtype-bytes", "2"),
    ])
    def test_nonsense_option_values_are_usage_errors(self, capsys, argv):
        code, out, err = invoke(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert argv[2] in err


class TestHeaderProvenance:
    def test_flags_come_from_run_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["pytest", "-q", "whatever"])
        code, out, _ = invoke(capsys, "liveness", "hardnet39ds", "--concat-free")
        assert code == 0
        assert "# flags: hardnet39ds --concat-free\n" in out

    def test_flags_from_process_argv_by_default(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["hardgraph", "analyze", "hardnet39ds",
                                          "--dtype-bytes", "2"])
        assert run() == 0
        out = capsys.readouterr().out
        assert "# flags: hardnet39ds --dtype-bytes 2\n" in out


class TestAnalyze:
    def test_csv_total_params(self, capsys, tmp_path):
        out_file = tmp_path / "r.csv"
        code, _, _ = invoke(capsys, "analyze", "hardnet68", "-o", str(out_file))
        assert code == 0
        total = [l for l in out_file.read_text().splitlines() if ",TOTAL," in l][0]
        params = int(total.split(",")[4])
        assert abs(params / 1e6 - 17.6) / 17.6 < 0.05

    def test_json_format(self, capsys):
        code, out, _ = invoke(capsys, "analyze", "hardnet39ds", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["params"] > 0 and doc["layers"]

    def test_ds_weight_lowers_cio(self, capsys):
        _, plain, _ = invoke(capsys, "analyze", "hardnet39ds", "--format", "json")
        _, weighted, _ = invoke(capsys, "analyze", "hardnet39ds", "--format", "json",
                                "--ds-weight", "0.6")
        a = json.loads(plain)["summary"]["cio_elements"]
        b = json.loads(weighted)["summary"]["cio_elements"]
        assert b < a


class TestBuildRoundTrip:
    def test_analyze_matches_builtin(self, capsys, tmp_path):
        graph_file = tmp_path / "g.json"
        direct_file = tmp_path / "direct.json"
        via_file = tmp_path / "via.json"
        assert invoke(capsys, "build", "hardnet68", "-o", str(graph_file))[0] == 0
        assert invoke(capsys, "analyze", "hardnet68", "--format", "json",
                      "-o", str(direct_file))[0] == 0
        assert invoke(capsys, "analyze", str(graph_file), "--format", "json",
                      "-o", str(via_file))[0] == 0
        direct = json.loads(direct_file.read_text())
        via = json.loads(via_file.read_text())
        assert direct["summary"] == via["summary"]
        assert direct["layers"] == via["layers"]

    def test_repeated_runs_byte_identical(self, tmp_path):
        cmd = [sys.executable, "-m", "hardgraph.cli", "analyze", "hardnet39ds"]
        a = subprocess.run(cmd, capture_output=True, check=True).stdout
        b = subprocess.run(cmd, capture_output=True, check=True).stdout
        assert a == b and a


class TestOtherCommands:
    def test_compare_reduction(self, capsys):
        code, out, _ = invoke(capsys, "compare", "fc-hardnet84", "fc-densenet103")
        assert code == 0
        doc = json.loads(out)
        assert doc["reduction_pct"]["cio"] >= 35.0

    def test_check_moc_threshold_zero(self, capsys):
        code, out, _ = invoke(capsys, "check-moc", "hardnet68", "--threshold", "0")
        assert code == 0 and out.strip().startswith("# 0 layer")

    def test_liveness_timeline(self, capsys):
        code, out, _ = invoke(capsys, "liveness", "hardnet39ds")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "step,node,live_bytes"

    def test_liveness_never_schedules(self, capsys, monkeypatch):
        # liveness runs in node-id order, so it needs no schedule list
        calls = []
        schedule = ArchGraph.schedule

        def counting(self):
            calls.append(1)
            return schedule(self)
        monkeypatch.setattr(ArchGraph, "schedule", counting)
        assert invoke(capsys, "liveness", "hardnet39ds")[0] == 0
        assert invoke(capsys, "liveness", "hardnet39ds", "--concat-free")[0] == 0
        assert calls == []

    def test_latency_preset_and_json_platform(self, capsys, tmp_path):
        code, preset_out, _ = invoke(capsys, "latency", "hardnet39ds",
                                     "--platform", "edge-like")
        assert code == 0
        pf = tmp_path / "edge.json"
        pf.write_text(json.dumps({"name": "edge-like",
                                  "peak_macs_per_second": 1e11,
                                  "dram_bytes_per_second": 1e10}))
        code, file_out, _ = invoke(capsys, "latency", "hardnet39ds",
                                   "--platform", str(pf))
        assert code == 0
        assert (json.loads(preset_out)["total_seconds"]
                == json.loads(file_out)["total_seconds"])

    def test_latency_with_infinite_rates(self, capsys, tmp_path):
        # every conv is memory-bound at an infinite critical MoC, and takes no time
        pf = tmp_path / "inf.json"
        pf.write_text('{"name": "inf", "peak_macs_per_second": Infinity, '
                      '"dram_bytes_per_second": Infinity}')
        code, out, _ = invoke(capsys, "latency", "hardnet39ds", "--platform", str(pf))
        g = hardgraph.build("hardnet39ds")
        expected = {
            "header": {"dtype_bytes": 4, "flags": f"hardnet39ds --platform {pf}",
                       "input": "3x224x224", "model": "hardnet39ds",
                       "tool": f"hardgraph {hardgraph.__version__}"},
            "platform": {"name": "inf", "peak_macs_per_second": math.inf,
                         "dram_bytes_per_second": math.inf, "critical_moc": math.inf},
            "total_seconds": 0.0,
            "layers": [{"id": n.id, "seconds": 0.0, "bound": "memory" if isinstance(
                n.kind, (Conv, TransposedConv)) else "none"} for n in g.nodes],
        }
        assert code == 0 and out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_latency_unknown_platform(self, capsys):
        code, _, err = invoke(capsys, "latency", "hardnet39ds", "--platform", "nope")
        assert code == 1 and "preset" in err

    def test_export_dot_node_per_graph_node(self, capsys):
        import hardgraph
        code, out, _ = invoke(capsys, "export-dot", "hardnet39ds")
        assert code == 0
        g = hardgraph.build("hardnet39ds")
        assert sum(1 for l in out.splitlines() if "[label=" in l) == len(g.nodes)

    def test_validate_tables_all_pass(self, capsys):
        code, out, _ = invoke(capsys, "validate-tables")
        assert code == 0
        assert "[FAIL]" not in out and out.count("[PASS]") >= 20


def assert_one_line_error(code, out, err):
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


class TestMalformedGraphFiles:
    @pytest.mark.parametrize("case", MALFORMED)
    def test_exit_2_with_one_line(self, capsys, tmp_path, case):
        path = tmp_path / "g.json"
        path.write_text(with_change(MALFORMED[case][0]))
        assert_one_line_error(*invoke(capsys, "analyze", str(path)))

    @pytest.mark.parametrize("argv", [("liveness",), ("liveness", "--concat-free"), ("analyze",),
                                      ("analyze", "--format", "json"), ("export-dot",)])
    def test_nul_label_is_one_line_naming_the_node(self, capsys, tmp_path, argv):
        # csv on 3.10 cannot write a NUL, so every version refuses it at load
        path = tmp_path / "g.json"
        path.write_text(with_change(lambda d: node(d, 2).update(label="b\0")))
        code, out, err = invoke(capsys, argv[0], str(path), *argv[1:])
        assert_one_line_error(code, out, err)
        assert err.startswith("error: node 2: label must be a NUL-free string")

    @pytest.mark.parametrize("argv", [("analyze", "--format", "json"),
                                      ("latency", "--platform", "gpu-like")])
    def test_sizes_beyond_float_range(self, capsys, tmp_path, argv):
        doc = json.loads(hardgraph.build("hardnet39ds").to_json())
        doc["input"] = [3, 10 ** 200, 10 ** 200]
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        assert_one_line_error(*invoke(capsys, argv[0], str(path), *argv[1:]))


BUILT = json.loads(hardgraph.build("hardnet39ds").to_json())
FUZZ_COMMANDS = (
    ("analyze",), ("analyze", "--format", "json"), ("liveness", "--concat-free"),
    ("latency", "--platform", "gpu-like"), ("check-moc", "--threshold", "10"),
    ("export-dot",), ("build",),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-2, 300)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def mutated_graphs(draw) -> str:
    """Valid build output with one to three fields replaced or removed, or the
    text cut short."""
    doc = json.loads(json.dumps(BUILT))
    for _ in range(draw(st.integers(1, 3))):
        nodes = doc.get("nodes") if isinstance(doc, dict) else None
        if isinstance(nodes, list) and nodes and draw(st.integers(0, 4)):
            target = nodes[draw(st.integers(0, len(nodes) - 1))]
            if isinstance(target, dict) and isinstance(target.get("params"), dict) \
                    and target["params"] and draw(st.booleans()):
                target = target["params"]
        else:
            target = doc
        if not isinstance(target, dict) or not target:
            break
        key = draw(st.sampled_from(sorted(target)))
        if draw(st.integers(0, 3)):
            target[key] = draw(json_values)
        else:
            del target[key]
    text = json.dumps(doc)
    if not draw(st.integers(0, 9)):
        text = text[:draw(st.integers(0, len(text)))]
    return text


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "g.json"


@settings(max_examples=150, deadline=None)
@given(text=mutated_graphs(), command=st.sampled_from(FUZZ_COMMANDS))
def test_mutated_graph_files_never_crash(fuzz_file, text, command):
    fuzz_file.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([command[0], str(fuzz_file), *command[1:]])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()


class TestOneLineErrors:
    @pytest.mark.parametrize("model,size,words", [
        ("fc-hardnet84", "225x225", ("up0/skip", "58x224x224", "80x225x225")),
        ("hardnet68", "16x16", ("down3", "640x1x1", "640x0x0")),
    ])
    def test_shape_errors_name_the_layer(self, capsys, model, size, words):
        code, out, err = invoke(capsys, "analyze", model, "--input", size)
        assert_one_line_error(code, out, err)
        assert all(w in err for w in words), err

    @pytest.mark.parametrize("case", BAD_PLATFORMS)
    def test_bad_platform_file(self, capsys, tmp_path, case):
        path = tmp_path / "p.json"
        path.write_text(BAD_PLATFORMS[case][0])
        code, out, err = invoke(capsys, "latency", "hardnet39ds", "--platform", str(path))
        assert_one_line_error(code, out, err)
        assert BAD_PLATFORMS[case][1] in err


class TestJsonAtAnotherInput:
    def test_same_rows_as_the_built_model(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        assert invoke(capsys, "build", "hardnet68", "-o", str(path))[0] == 0
        code, from_file, _ = invoke(capsys, "analyze", str(path), "--input", "256x256")
        assert code == 0
        code, built, _ = invoke(capsys, "analyze", "hardnet68", "--input", "256x256")
        rows = lambda text: [l for l in text.splitlines() if not l.startswith("#")]
        assert rows(from_file) == rows(built) and "# input: 3x256x256" in from_file

    @pytest.mark.parametrize("change", [lambda d: d.update(input=None),
                                        lambda d: d.__delitem__("input")], ids=["null", "absent"])
    def test_json_without_input_needs_the_size(self, capsys, tmp_path, change):
        path = tmp_path / "g.json"
        path.write_text(with_change(change))
        code, out, err = invoke(capsys, "analyze", str(path))
        assert_one_line_error(code, out, err)
        assert err == "error: graph JSON has no input shape; pass --input HxW\n"
        code, out, err = invoke(capsys, "analyze", str(path), "--input", "8x8")
        assert (code, err) == (0, "") and "# input: 3x8x8" in out


def test_validate_tables_output_file(capsys, tmp_path):
    code, stdout_text, _ = invoke(capsys, "validate-tables")
    path = tmp_path / "tables.txt"
    code_o, out, err = invoke(capsys, "validate-tables", "-o", str(path))
    assert (code_o, out, err) == (code, "", "")
    assert path.read_text() == stdout_text


# each character a CSV field is quoted for, alone and all together
QUOTED_LABELS = ("a,b", '"quoted"', "two\r\nlines", ',"\r\n', "plain")


def quoted_label_json() -> str:
    """Graph JSON of a conv chain labelled ``QUOTED_LABELS``."""
    g = ArchGraph("quoted", input_shape=TensorShape(3, 8, 8))
    nid = g.add(Input(), [], label=QUOTED_LABELS[0])
    for label in QUOTED_LABELS[1:]:
        nid = g.add(Conv(4), [nid], label=label)
    return g.to_json()


@pytest.mark.parametrize("argv,rows", [(("analyze", "--format", "csv"), slice(1, -1)),
                                       (("liveness",), slice(1, None))])
def test_csv_reports_read_back_the_stored_labels(capsys, tmp_path, argv, rows):
    path = tmp_path / "g.json"
    path.write_text(quoted_label_json())
    code, out, _ = invoke(capsys, argv[0], str(path), *argv[1:])
    assert code == 0 and out.startswith("# ")
    while out.startswith("#"):  # the comment header, one line per key
        out = out.split("\n", 1)[1]
    table = list(csv.reader(io.StringIO(out, newline="")))
    assert [row[1] for row in table[rows]] == list(QUOTED_LABELS)
    assert len({len(row) for row in table}) == 1


@pytest.mark.parametrize("kind", MIXED_GRID_KINDS)
def test_inputs_on_different_grids_exit_2_with_one_line(capsys, tmp_path, kind):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(mixed_grid_doc(kind)))
    code, out, err = invoke(capsys, "analyze", str(path))
    assert_one_line_error(code, out, err)
    assert err.startswith(f"error: {kind} 3: inputs disagree on spatial size")


class TestMissingParamErrors:
    @pytest.mark.parametrize("kind,name", [("conv", "out_channels"), ("pool", "mode"),
                                           ("tconv", "out_channels"),
                                           ("linear", "out_features")])
    def test_one_line_naming_the_param(self, capsys, tmp_path, kind, name):
        path = tmp_path / "g.json"
        path.write_text(one_kind_doc(kind, {}))
        code, out, err = invoke(capsys, "analyze", str(path))
        assert (code, out, err) == (2, "", f"error: node 1: {kind} needs params [{name!r}]\n")


def test_compare_checks_metrics_before_building(capsys, monkeypatch):
    builds = []
    build = registry.build
    monkeypatch.setattr(registry, "build", lambda *a: builds.append(a) or build(*a))
    code, out, err = invoke(capsys, "compare", "hardnet68", "resnet50", "--metrics", "foo")
    assert (code, out) == (1, "")
    assert err == "usage error: unknown metric 'foo' (use params, macs, cio, cio_mb)\n"
    assert builds == []
    assert invoke(capsys, "compare", "hardnet68", "resnet50", "--metrics", "cio")[0] == 0
    assert len(builds) == 2


# one representative argv per subcommand, every option of it given
EVERY_OPTION = {
    "list-models": ["list-models"],
    "build": ["build", "hardnet68", "--input", "256x256", "-o", "g.json"],
    "analyze": ["analyze", "hardnet39ds", "--format", "json", "--ds-weight", "0.6",
                "--input", "192x192", "--dtype-bytes", "2", "--output", "r.json"],
    "compare": ["compare", "hardnet68", "densenet121", "--metrics", "params,cio_mb",
                "--input", "256x256", "--dtype-bytes", "1", "-o", "c.json"],
    "check-moc": ["check-moc", "resnet50", "--threshold", "40", "--input", "256x256",
                  "-o", "m.txt"],
    "liveness": ["liveness", "fc-hardnet68", "--concat-free", "--input", "352x480",
                 "--dtype-bytes", "2", "-o", "t.csv"],
    "latency": ["latency", "vgg16", "--platform", "edge-like", "--concat-copy",
                "--input", "256x256", "--dtype-bytes", "2", "-o", "l.json"],
    "export-dot": ["export-dot", "hardnet68", "--input", "256x256", "-o", "g.dot"],
    "validate-tables": ["validate-tables", "-o", "tables.txt"],
}


def help_text(parser, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exit_:
        parser.parse_args(argv)
    assert exit_.value.code == 0
    return out.getvalue()


@pytest.fixture
def subparsers_added(monkeypatch):
    """The names of the subparsers added while the test runs."""
    added = []
    add_parser = argparse._SubParsersAction.add_parser
    monkeypatch.setattr(argparse._SubParsersAction, "add_parser",
                        lambda self, name, **kw: added.append(name) or add_parser(self, name, **kw))
    return added


class TestParserPerCommand:
    """A call that names its subcommand builds only that command's parser, which
    reads the words after the name; the full parser, which help, --version and
    an argv with no subcommand first still build, is the oracle."""

    def test_every_subcommand_has_a_representative_argv(self):
        assert list(EVERY_OPTION) == list(COMMANDS)

    @pytest.mark.parametrize("command", EVERY_OPTION)
    def test_narrowed_parser_parses_as_the_full_one(self, command):
        argv = EVERY_OPTION[command]
        full = vars(build_parser().parse_args(argv))
        assert full.pop("command") == command
        assert vars(build_parser(command).parse_args(argv[1:])) == full
        assert help_text(build_parser(command), ["-h"]) == \
            help_text(build_parser(), [command, "-h"])

    def test_named_subcommand_adds_no_subparser(self, capsys, subparsers_added):
        assert invoke(capsys, "analyze", "hardnet68")[0] == 0
        assert subparsers_added == []

    def test_narrowed_parser_knows_no_other_subcommand(self):
        assert build_parser("analyze").parse_args(["liveness"]).model == "liveness"
        with pytest.raises(UsageError, match="unrecognized arguments: hardnet68"):
            build_parser("analyze").parse_args(["liveness", "hardnet68"])

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_lists_every_subcommand(self, capsys, subparsers_added, flag):
        assert run([flag]) == 0
        assert subparsers_added == list(COMMANDS)
        out, err = capsys.readouterr()
        assert (out, err) == (build_parser().format_help(), "")

    def test_version(self, capsys, subparsers_added):
        assert run(["--version"]) == 0
        assert subparsers_added == list(COMMANDS)
        assert capsys.readouterr() == (hardgraph.__version__ + "\n", "")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_subcommand_help_returns_zero(self, capsys, command):
        assert invoke(capsys, command, "-h") == \
            (0, help_text(build_parser(), [command, "-h"]), "")

    @pytest.mark.parametrize("argv,code", [(["--help"], 0), (["--version"], 0),
                                           (["analyze", "--help"], 0), ([], 1)])
    def test_main_exit_codes(self, capsys, monkeypatch, argv, code):
        monkeypatch.setattr(sys, "argv", ["hardgraph", *argv])
        with pytest.raises(SystemExit) as exit_:
            main()
        assert exit_.value.code == code

    @pytest.mark.parametrize("argv", [[], ["nope"], ["Analyze", "hardnet68"], ["--input", "8x8"]])
    def test_no_subcommand_is_one_usage_error(self, capsys, subparsers_added, argv):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: ") and err.count("\n") == 1, err
        assert subparsers_added == list(COMMANDS)


# a valid argv per subcommand, and the words that take each one's required arguments out
MINIMAL = {
    "list-models": (["list-models"], None),
    "build": (["build", "hardnet39ds"], ["build"]),
    "analyze": (["analyze", "hardnet39ds"], ["analyze"]),
    "compare": (["compare", "hardnet39ds", "resnet18"], ["compare", "hardnet39ds"]),
    "check-moc": (["check-moc", "hardnet39ds", "--threshold", "40"], ["check-moc", "hardnet39ds"]),
    "liveness": (["liveness", "hardnet39ds"], ["liveness"]),
    "latency": (["latency", "hardnet39ds", "--platform", "gpu-like"], ["latency", "hardnet39ds"]),
    "export-dot": (["export-dot", "hardnet39ds"], ["export-dot"]),
    "validate-tables": (["validate-tables"], None),
}
BAD_VALUES = {  # a bad choice or a value its type rejects, per option that checks one
    "analyze": [["--format", "xml"], ["--ds-weight", "2"], ["--dtype-bytes", "0"]],
    "compare": [["--dtype-bytes", "x"]],
    "check-moc": [["--threshold", "nan"]],
    "liveness": [["--dtype-bytes", "-1"]],
    "latency": [["--dtype-bytes", "1.5"]],
}
PARITY_ARGVS = [
    argv for command, (valid, short) in MINIMAL.items() for argv in [
        *([short] if short else []),
        *([*valid, *bad] for bad in BAD_VALUES.get(command, ())),
        [*valid, "--nope"], [*valid, "extra"], [*valid, "--inp", "64x64"], [*valid, "-o"],
        [*valid, "--version"], [command, "-h"]]]


@pytest.mark.parametrize("argv", PARITY_ARGVS, ids=" ".join)
def test_run_matches_the_full_parser(capsys, monkeypatch, argv):
    """``run`` gives what it gave when the full parser read every argv."""
    narrowed = invoke(capsys, *argv)
    full = build_parser
    words = lambda command, rest: [command, *rest] if command else rest
    monkeypatch.setattr(cli, "build_parser", lambda command=None: argparse.Namespace(
        parse_args=lambda rest: full().parse_args(words(command, rest))))
    assert narrowed == invoke(capsys, *argv)


@pytest.mark.parametrize("command", [c for c, argv in EVERY_OPTION.items()
                                     if {"-o", "--output"} & set(argv)])
def test_output_file_holds_the_stdout_report(capsys, tmp_path, command):
    *argv, flag, name = EVERY_OPTION[command]
    code, stdout_text, err = invoke(capsys, *argv)
    path = tmp_path / name
    assert invoke(capsys, *argv, flag, str(path)) == (code, "", err)
    # a report header lists the flags, so the file's names the output too
    written = path.read_bytes().replace(f" {flag} {path}".encode(), b"")
    assert written == stdout_text.encode()
