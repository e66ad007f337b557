"""graphsynth pipeline benchmark.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is cli-example, warm-batch, kb-growth, or all. Each workload runs
in its own child process (perfbench/workloads.py) so that its peak memory
is its own. With --trace 0 the end-to-end metrics are printed, with
--trace 1 the per-layer metrics of a traced run. The last line of output
is one JSON object: correct, attempted, failed, metrics.

Run from the root of a graphsynth checkout; the program is used from
src/ as it stands, nothing is installed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-example", "warm-batch", "kb-growth")
CHILD_TIMEOUT = 170
SCRATCH = ".perfbench_tmp"
SPANS_DIR = ".perfbench_spans"


def run_workload(name: str, args) -> dict:
    work = ROOT / SCRATCH / f"{name}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    command = [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    if args.trace:
        (ROOT / SPANS_DIR).mkdir(exist_ok=True)
        command += ["--spans-out", str(ROOT / SPANS_DIR / f"{name}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"workload {name} failed (exit {proc.returncode})")
    *lines, last = proc.stdout.splitlines()
    for line in lines:
        print(line)
    return json.loads(last)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "graphsynth" / "cli.py").is_file():
        print(f"graphsynth sources not found under {ROOT / 'src'}; run from a graphsynth checkout",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result = run_workload(name, args)
        results[name] = result
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
        print(f"{name} attempted = {result['attempted']}, failed = {result['failed']}")
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                        for metric, entry in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
