"""``hardgraph`` CLI with spans, for traced cli-cold runs.

    python -X importtime perfbench/traced_cli.py SPANS_JSON ARGV...

Runs ``hardgraph.cli.run(ARGV)`` as ``python -m hardgraph.cli ARGV`` would,
with spans.py's wrappers installed, and writes the spans to SPANS_JSON.
"""

import sys

import spans


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    # an import statement, so that -X importtime reports the package itself
    # (importlib.import_module does not)
    import hardgraph  # noqa: F401
    mods = spans.hardgraph_modules()
    tracer = spans.Tracer()
    spans.install(tracer, mods)
    sys.argv = ["hardgraph", *argv]
    try:
        return tracer.span("cli.run", mods["cli"].run)(argv)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main())
