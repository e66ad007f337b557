"""Traced stand-in for the `graphsynth` console script.

Usage: python3 perfbench/cli_shim.py SPANS.json graphsynth-arguments...

Installs the benchmark's wrappers, runs `graphsynth.cli.main` on the
remaining arguments, writes the spans and the final graph sizes of the
store it saw to SPANS.json, and exits with the CLI's exit code.
"""

import json
import sys

from spans import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from graphsynth.cli import main as cli_main

    code = cli_main(argv)
    store = tracer.last_store
    graphs = {name: store.graph_size(name) for name in store.graph_names()} if store is not None else {}
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "graphs": graphs}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
