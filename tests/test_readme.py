"""README.md is a reference: every name, option, example and report key it
gives must hold for the code, and it gives no measured times.

The CLI runs in process through ``cli.run``, in ``tmp_path``.
"""

import inspect
import json
import pkgutil
import re
import shlex
from functools import cache
from pathlib import Path

import pytest

import hardgraph
from hardgraph import cli

FENCE = re.compile(r"^```(\w*)\n(.*?)^```\n", re.M | re.S)
MODULES = {m.name for m in pkgutil.iter_modules(hardgraph.__path__)} | {"hardgraph"}


@cache
def readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title: str) -> str:
    """The text of the ``## title`` section."""
    return re.split(rf"^## {re.escape(title)}\n", readme(), flags=re.M)[1].split("\n## ")[0]


def spans(text: str) -> set:
    """The inline code spans outside fenced blocks, each on one line."""
    return {" ".join(s.split()) for s in re.findall(r"`([^`]+)`", FENCE.sub("", text))}


def blocks(lang: str, text: str) -> list:
    return [body for info, body in FENCE.findall(text) if info == lang]


def leading_name(span: str) -> str:
    """The dotted name a span starts with: ``metrics.Table`` for ``metrics.Table(keys, ...)``."""
    match = re.match(r"[A-Za-z_][\w.]*", span)
    return match.group().rstrip(".") if match else ""


def options(command: str) -> list:
    """Each optional argument of ``command``, as its tuple of flags."""
    return [flags for flags, _ in cli.COMMANDS[command][2] if flags[0].startswith("-")]


def run(capsys, *argv) -> tuple:
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_dotted_hardgraph_name_resolves():
    dotted = {leading_name(s) for s in spans(readme())}
    dotted = sorted(d for d in dotted if "." in d and d.split(".")[0] in MODULES)
    assert dotted
    missing = []
    for name in dotted:
        try:
            pkgutil.resolve_name(name if name.startswith("hardgraph.") else f"hardgraph.{name}")
        except (ImportError, AttributeError):
            missing.append(name)
    assert missing == []


def signature(obj) -> str:
    """``obj``'s signature as the README writes it: no annotations."""
    sig = inspect.signature(obj)
    params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=params, return_annotation=sig.empty))


def test_python_api_lists_each_name_under_its_module_with_its_signature():
    """Every ``hardgraph.__all__`` name appears backticked, in its module's list."""
    parts = re.split(r"^`hardgraph\.(\w+)`:", section("Python API"), flags=re.M)
    by_module = dict(zip(parts[1::2], map(spans, parts[2::2])))
    assert sorted(by_module) == sorted(hardgraph._EXPORTS)
    for module, names in hardgraph._EXPORTS.items():
        for name in names:
            try:
                listed = name + signature(getattr(hardgraph, name))
            except (TypeError, ValueError):  # no signature: an exception class, a tuple
                listed = name
            assert listed in by_module[module], module


def test_every_option_appears_and_every_option_given_exists():
    accepted = {"--help", "-h", "--version"}
    for command in cli.COMMANDS:
        for flags in options(command):
            accepted.update(flags)
            assert any(re.search(rf"(?<![\w-]){f}(?![\w-])", readme()) for f in flags), flags
    text = readme().replace(section("Install & test"), "")
    assert sorted(set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text)) - accepted) == []


def test_each_synopsis_lists_exactly_its_commands_options():
    synopses = {}
    for span in re.findall(r"\*\*`hardgraph ([^`]+)`\*\*", section("Reports")):
        command, _, rest = span.partition(" ")
        synopses[command] = set(re.findall(r"(?<![\w-])--?[A-Za-z][\w-]*", rest))
    assert sorted(synopses) == sorted(cli.COMMANDS)
    for command, given in synopses.items():
        wanted = options(command)
        assert all(given & set(flags) for flags in wanted), command
        assert given <= {f for flags in wanted for f in flags}, command


def test_every_cli_example_exits_0(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the examples write g.json, g.dot and tables.txt
    lines = blocks("sh", section("CLI"))[0].splitlines()
    assert len(lines) >= 10
    for line in lines:
        program, *argv = shlex.split(line, comments=True)
        assert program == "hardgraph"
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, ""), line


def test_json_examples_load_and_run(capsys, tmp_path):
    graph, platform = tmp_path / "graph.json", tmp_path / "platform.json"
    examples = blocks("json", readme())
    assert len(examples) == 2
    for body in examples:
        (graph if "nodes" in json.loads(body) else platform).write_text(body)
    assert run(capsys, "analyze", str(graph))[0] == 0
    code, out, err = run(capsys, "latency", str(graph), "--platform", str(platform))
    assert (code, err) == (0, "")
    given, used = json.loads(platform.read_text()), json.loads(out)["platform"]
    assert {k: used[k] for k in given} == given


@pytest.mark.parametrize("argv", [("analyze", "hardnet68"), ("liveness", "hardnet68")])
def test_csv_header_keys_and_row_appear(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    *header, row = out.split("\r\n", 1)[0].split("\n")
    reference = spans(readme())
    assert row in reference
    assert sorted({line[2:].partition(":")[0] for line in header} - reference) == []


def keys(doc) -> set:
    """Every object key in a JSON document."""
    if isinstance(doc, dict):
        return set(doc).union(*map(keys, doc.values()))
    if isinstance(doc, list):
        return set().union(*map(keys, doc))
    return set()


@pytest.mark.parametrize("argv", [
    ("build", "hardnet68"),
    ("analyze", "hardnet68", "--format", "json"),
    ("compare", "hardnet68", "densenet121"),
    ("latency", "hardnet68", "--platform", "gpu-like"),
])
def test_json_report_keys_appear(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    written = keys(json.loads(out)) - set(argv)  # compare keys its models by name
    assert sorted(written - spans(readme())) == []


def test_no_measured_times():
    for line in readme().splitlines():
        assert not re.search(r"\d ?(ms|µs)\b|best of|BENCH_", line), line
