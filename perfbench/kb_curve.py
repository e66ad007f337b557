"""Reference KB-size curve: load, check_kb and one synthesis as the KB grows.

    python3 perfbench/kb_curve.py

Not a workload: it prints the reference table kept in perfbench/README.md.
Each row grows the shipped KB with gen.write_grown_kb (extra algorithms,
each with one code function, and inert filler nothing resolves against)
and times, best of three, the loader alone, check_kb alone, and the
pipeline on one statement asking for a shipped and a grown calculation.
"""

from __future__ import annotations

import shutil
import sys
import time
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROWS = ((0, 0), (0, 500), (8, 120), (16, 120), (24, 120), (32, 120))
REPEATS = 3


def best_of(fn) -> tuple[float, object]:
    times, result = [], None
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from graphsynth import composer, problem, renderer, resolver, seed, vocab
    from graphsynth.views import check_kb

    work = ROOT / ".perfbench_tmp" / "kb-curve"
    shutil.rmtree(work, ignore_errors=True)
    print("algorithms  filler  quads  load_s  check_kb_s  synth_s")
    try:
        for algorithms, filler in ROWS:
            grown = gen.write_grown_kb(seed.kb_dir(), work / f"kb-{algorithms}-{filler}", 1, algorithms, filler)
            load_s, (store, report) = best_of(lambda: seed.load_kb(grown.directory, validate=False))
            check_s, problems = best_of(lambda: check_kb(store, vocab.CORE_GRAPH))
            if problems:
                raise RuntimeError(f"grown KB is not clean: {problems}")
            calcs = ["average value"] + sorted(grown.labels)[:1]
            counter = iter(range(REPEATS))

            def synth():
                statement = gen.Statement(f"curve_{next(counter)}", tuple(calcs), gen.REQUIREMENTS,
                                          "Python-3.8", (), False)
                plan = resolver.resolve(problem.parse_problem_statement(statement.text()), store)
                pla = composer.compose(plan, store)
                return renderer.emit(renderer.render(pla, plan.language, store))

            synth_s, _ = best_of(synth)
            print(f"{algorithms:10d}  {filler:6d}  {report.quads:5d}  {load_s:6.3f}  {check_s:10.3f}  {synth_s:7.3f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
