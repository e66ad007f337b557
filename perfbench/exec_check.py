"""Runs emitted programs with numpy and reports what each printed.

Usage: python3 perfbench/exec_check.py DIR PROGRAM.py...

Each program runs in DIR (which holds the data fixture) in this one
process, so numpy is imported once. Prints one JSON object mapping each
program to its exit status and standard output.
"""

import contextlib
import io
import json
import os
import sys


def run(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    out = io.StringIO()
    status = 0
    with contextlib.redirect_stdout(out):
        try:
            exec(code, {"__name__": "__main__"})
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
    return {"status": status, "stdout": out.getvalue()}


def main() -> int:
    directory, programs = sys.argv[1], sys.argv[2:]
    paths = [os.path.abspath(p) for p in programs]
    os.chdir(directory)
    print(json.dumps({path: run(path) for path in paths}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
