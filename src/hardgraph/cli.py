"""Command-line front end: build, analyze, compare, liveness, latency, DOT.

Exit codes: 0 success, 1 usage error, 2 analysis error.  Identical
invocations produce byte-identical reports (no timestamps in headers).
"""

import argparse
import functools
import math
import sys
from pathlib import Path
from typing import Optional

from . import __version__, registry

# each subcommand imports the modules it runs, so a cold start loads only those


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_hw(text: str) -> tuple:
    # ASCII digits only: int() alone would also take "2_24", "-32" and " 224"
    h, _, w = text.lower().partition("x")
    if not (h.isascii() and h.isdigit() and w.isascii() and w.isdigit() and int(h) and int(w)):
        raise UsageError(f"--input must be HxW with H, W >= 1, like 224x224, got {text!r}")
    return int(h), int(w)


def _load_graph(model: str, input_hw: Optional[str]) -> "ArchGraph":
    from .graph_ir import ArchGraph, GraphError, TensorShape
    if model.endswith(".json"):
        path = Path(model)
        if not path.is_file():
            raise GraphError(f"graph file not found: {model}")
        return ArchGraph.from_json(path.read_text(), _parse_hw(input_hw) if input_hw else None)
    shape = None
    if input_hw:
        h, w = _parse_hw(input_hw)
        shape = TensorShape(3, h, w)
    return registry.build(model, shape)


def _header(args, model: str, graph: "ArchGraph") -> dict:
    return {
        "tool": f"hardgraph {__version__}",
        "model": model,
        "input": str(graph.input_shape),
        "dtype_bytes": args.dtype_bytes,
        "flags": args.flags,
    }


def _write(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


# --- subcommands: each returns (exit code, report text) for run to write ------

def _cmd_list_models(args) -> tuple:
    return 0, "".join(f"{name}\n" for name in registry.MODEL_NAMES)


def _cmd_build(args) -> tuple:
    return 0, _load_graph(args.model, args.input).to_json() + "\n"


def _cmd_analyze(args) -> tuple:
    from .metrics import model_summary, report_csv, report_json
    g = _load_graph(args.model, args.input)
    s = model_summary(g, dtype_bytes=args.dtype_bytes, ds_weight=args.ds_weight)
    header = _header(args, args.model, g)
    text = report_csv(g, s, header) if args.format == "csv" else report_json(g, s, header)
    return 0, text if text.endswith("\n") else text + "\n"


def _cmd_compare(args) -> tuple:
    wanted = args.metrics.split(",") if args.metrics is not None else _COMPARE_METRICS[:-1]
    unknown = [m for m in wanted if m not in _COMPARE_METRICS]
    if unknown:
        raise UsageError(f"unknown metric {unknown[0]!r} (use {', '.join(_COMPARE_METRICS)})")
    from .jsonwriter import dumps_json
    from .metrics import model_summary
    rows = {}
    for model in (args.model_a, args.model_b):
        g = _load_graph(model, args.input)
        s = model_summary(g, dtype_bytes=args.dtype_bytes)
        rows[model] = dict(zip(_COMPARE_METRICS, (s.params, s.macs, s.cio_elements, s.cio_mb)))
    doc = {"models": rows, "reduction_pct": {}}
    a, b = rows[args.model_a], rows[args.model_b]
    for m in wanted:
        if b[m]:
            doc["reduction_pct"][m] = round(100.0 * (1 - a[m] / b[m]), 3)
    return 0, dumps_json(doc) + "\n"


def _cmd_check_moc(args) -> tuple:
    from .metrics import check_moc
    g = _load_graph(args.model, args.input)
    violations = check_moc(g, args.threshold)
    lines = [f"{nid}\t{g.labels[nid] or nid}\t{moc:.3f}" for nid, moc in violations]
    lines.append(f"# {len(violations)} layer(s) below MoC threshold {args.threshold}")
    return 0, "\n".join(lines) + "\n"


def _cmd_liveness(args) -> tuple:
    from .liveness import peak_memory, timeline_csv
    g = _load_graph(args.model, args.input)
    prof = peak_memory(g, dtype_bytes=args.dtype_bytes, concat_free=args.concat_free)
    header = _header(args, args.model, g)
    header["concat_free"] = args.concat_free
    header["peak_bytes"] = prof.peak_bytes
    header["peak_step"] = prof.peak_step
    return 0, timeline_csv(g, prof, header=header)


def _cmd_latency(args) -> tuple:
    from .jsonwriter import dumps_json
    from .latency import PRESETS, PlatformModel, model_latency
    if args.platform in PRESETS:
        platform = PRESETS[args.platform]
    else:
        path = Path(args.platform)
        if not path.is_file():
            raise UsageError(
                f"platform {args.platform!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
                f"nor a JSON file")
        platform = PlatformModel.from_json(path.read_text())
    g = _load_graph(args.model, args.input)
    rep = model_latency(g, platform, dtype_bytes=args.dtype_bytes, concat_copy=args.concat_copy)
    doc = {
        "header": _header(args, args.model, g),
        "platform": {"name": platform.name,
                     "peak_macs_per_second": platform.peak_macs_per_second,
                     "dram_bytes_per_second": platform.dram_bytes_per_second,
                     "critical_moc": platform.critical_moc(args.dtype_bytes)},
        "total_seconds": rep.total_seconds,
        "layers": rep.table(("seconds", "bound")),
    }
    return 0, dumps_json(doc) + "\n"


def _cmd_export_dot(args) -> tuple:
    from .graph_ir import to_dot
    return 0, to_dot(_load_graph(args.model, args.input))


def _cmd_validate(args) -> tuple:
    from .catalog import validate_catalog
    results = validate_catalog()
    failed = [r for r in results if not r.passed]
    lines = [r.line() for r in results]
    lines.append(f"# {len(results) - len(failed)}/{len(results)} checks passed")
    return (2 if failed else 0), "\n".join(lines) + "\n"


def _checked(convert, ok, rule: str):
    """argparse type: convert the text, then reject values outside ``rule``."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    return parse


_dtype_bytes = _checked(int, lambda v: v >= 1, "an integer >= 1")
_ds_weight = _checked(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")
_threshold = _checked(float, math.isfinite, "a finite number")


def _arg(*flags, **options) -> tuple:
    return flags, options


_MODEL = _arg("model")
_INPUT = _arg("--input", default=None, help="input size as HxW")
_DTYPE = _arg("--dtype-bytes", type=_dtype_bytes, default=4)
_OUTPUT = _arg("--output", "-o", default=None)
_COMPARE_METRICS = ("params", "macs", "cio", "cio_mb")  # compare's; all but the last by default

# name: (help, handler, arguments); build_parser reads each subparser from here
COMMANDS = {
    "list-models": ("list built-in model names", _cmd_list_models, ()),
    "build": ("emit a model graph as JSON", _cmd_build, (_MODEL, _INPUT, _OUTPUT)),
    "analyze": ("per-layer params/MACs/CIO/MoC report", _cmd_analyze, (
        _arg("model", help="built-in name or graph JSON path"),
        _arg("--format", choices=("csv", "json"), default="csv"),
        _arg("--ds-weight", type=_ds_weight, default=None,
             help="CIO weighting for pointwise/depthwise convs"), _INPUT, _DTYPE, _OUTPUT)),
    "compare": ("metric deltas between two models", _cmd_compare, (
        _arg("model_a"), _arg("model_b"),
        _arg("--metrics", default=None, help="comma list: " + ",".join(_COMPARE_METRICS)),
        _INPUT, _DTYPE, _OUTPUT)),
    "check-moc": ("list conv layers below a MoC threshold", _cmd_check_moc, (
        _MODEL, _arg("--threshold", type=_threshold, required=True), _INPUT, _OUTPUT)),
    "liveness": ("memory timeline and peak usage", _cmd_liveness, (
        _MODEL, _arg("--concat-free", action="store_true",
                     help="model concatenation as zero-copy"), _INPUT, _DTYPE, _OUTPUT)),
    "latency": ("roofline latency estimate", _cmd_latency, (
        _MODEL, _arg("--platform", required=True, help="preset name or platform JSON path"),
        _arg("--concat-copy", action="store_true", help="charge DRAM time for concat copies"),
        _INPUT, _DTYPE, _OUTPUT)),
    "export-dot": ("Graphviz DOT export", _cmd_export_dot, (_MODEL, _INPUT, _OUTPUT)),
    "validate-tables": ("reproduce the published efficiency tables", _cmd_validate, (_OUTPUT,)),
}


@functools.cache
def build_parser(command: Optional[str] = None) -> _Parser:
    """The parser of every subcommand, or for a named ``command`` its own
    parser alone, which reads the words after the command name.  Each is
    built once per process and shared by every caller: do not mutate it."""
    if command is not None:
        return _command_parser(_Parser(prog=f"hardgraph {command}"), command)
    p = _Parser(prog="hardgraph", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in COMMANDS.items():
        _command_parser(sub.add_parser(name, help=text), name)
    return p


def _command_parser(p: _Parser, command: str) -> _Parser:
    _, func, arguments = COMMANDS[command]
    for flags, options in arguments:
        p.add_argument(*flags, **options)
    p.set_defaults(func=func)
    return p


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # an argv that does not start with a subcommand (help, --version, a usage
    # error) gets the full parser, so its text still lists all nine
    command = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(command).parse_args(argv[1:] if command else argv)
        args.flags = " ".join(argv[1:])
        code, text = args.func(args)
        _write(text, getattr(args, "output", None))  # list-models takes no -o
        return code
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except SystemExit as e:  # --help and --version print, then argparse exits
        return e.code
    except (KeyError, ValueError, OSError, OverflowError) as e:  # GraphError is a ValueError
        # str() of a KeyError is the repr of its message, quotes and all
        print(f"error: {e.args[0] if type(e) is KeyError else e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
