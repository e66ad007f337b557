"""One workload in one process: python3 perfbench/workloads.py (see run.py).

Each workload sets up, then runs whole rounds of the same operations in a
closed loop (one client; the next operation starts when the previous one
ends) until the time is up, checking every output against oracles.py
outside the timed regions. The last line of output is the result as JSON.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import gen
import oracles
from spans import Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHIPPED_KB = SRC / "graphsynth" / "kb"
EXAMPLE = SRC / "graphsynth" / "statements" / "hello_analytic.aida"
FIXTURE = SHIPPED_KB / "my_input.txt"
CLI_MAIN = "import sys; from graphsynth.cli import main; sys.exit(main())"
SUBPROCESS_TIMEOUT = 60
# Times are reported at a reference machine speed: each raw time is scaled
# by CALIBRATION_REF_MS over the calibration loop run just before it.
CALIBRATION_REF_MS = 7.0

# Timed set-ups per run; setup_s is their median. A traced run sets up
# once in its untraced half and TRACED_SETUPS times in its traced half.
SETUP_REPEATS = {"cli-example": 7, "warm-batch": 3, "kb-growth": 5}
TRACED_SETUPS = 2
# One cli-example round: E = the example synthesis, Q = a query, K and S =
# a synthesis against the keyword-callable and spaced-type-label KBs.
CLI_ROUND = ("E", "Q", "E", "Q", "E", "Q", "K", "E", "Q", "E", "Q", "E", "Q", "S")


def calibration_ms() -> float:
    """One fixed pure-Python loop of dict, tuple, str and sort work, like the pipeline's.

    It runs before every timed operation. When other work shares the
    machine, its speed flips between states up to 2x apart, for spells of
    a fraction of a second to a whole run; a spell slows this loop and the
    program alike, so the ratio of the two stays steady.
    """
    start = time.perf_counter()
    for _ in range(10):  # a small table, so the loop adds nothing to peak RSS
        table = {}
        for i in range(2000):
            table[(i, "k")] = str(i)
            table.get((i - 1, "k"))
        sorted(table, key=lambda k: -k[0])
    return (time.perf_counter() - start) * 1000


class Run:
    """Timings, counters and spans of one pass over a workload."""

    def __init__(self, args, work: Path, env: dict[str, str]):
        self.args = args
        self.work = work
        self.env = env
        # Times at the reference speed; setup_s holds seconds, the rest ms.
        self.setup_s: list[float] = []
        # phase -> operation key -> times; a key names one operation of the
        # round, so its samples are repeats of the same work.
        self.samples: dict[str, dict[str, list[float]]] = {"synth": defaultdict(list), "query": defaultdict(list)}
        self.raw_ms: dict[str, list[float]] = {"setup": [], "synth": [], "query": []}
        self.calibration_ms: list[float] = []
        self.busy_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.shapes: dict[tuple[str, ...], Path] = {}
        self.tracer: Tracer | None = None
        self.roots: dict[str, list[int]] = {"setup": [], "synth": [], "query": []}
        self.graphs: dict[str, int] = {}
        self.counter = 0

    def timed(self, phase: str, key, fn, *args, traced: bool = True):
        """Run one operation after a full collection and a calibration loop.

        With a tracer installed the operation is a root span of `phase`.
        """
        gc.collect()
        calibration = calibration_ms()
        self.calibration_ms.append(calibration)
        tracer = self.tracer if traced else None
        span = tracer.open(f"bench.{phase}") if tracer else None
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            if span is not None:
                tracer.close(span)
                self.roots[phase].append(span)
        scaled = elapsed * CALIBRATION_REF_MS / calibration
        if phase == "setup":
            self.setup_s.append(scaled)
        else:
            self.busy_s += elapsed
            self.attempted += 1
        if key is not None or phase == "setup":
            self.raw_ms[phase].append(elapsed * 1000)
        if key is not None:
            self.samples[phase][key].append(scaled * 1000)
        return result, span

    def fresh_dir(self, name: str) -> Path:
        self.counter += 1
        path = self.work / f"{name}-{self.counter}"
        path.mkdir(parents=True)
        return path

    def keep_shape(self, shape: tuple[str, ...], program: Path):
        if shape not in self.shapes:
            kept = self.work / "shapes" / f"{'-'.join(shape)}.py"
            kept.parent.mkdir(exist_ok=True)
            shutil.copyfile(program, kept)
            self.shapes[shape] = kept

    def typical_ms(self, phase: str) -> float:
        """Mean over the round's operations of each one's median time."""
        return statistics.mean(statistics.median(times) for times in self.samples[phase].values())

    def scale(self) -> float:
        """One factor to the reference speed for times not taken one by one (spans)."""
        return CALIBRATION_REF_MS / statistics.median(self.calibration_ms)


def load(run: Run, kb_dir: Path):
    """One timed set-up: KB load through the real loader plus check_kb."""
    from graphsynth import seed

    (store, _), _ = run.timed("setup", None, seed.load_kb, kb_dir)
    return store


def synthesize(run: Run, key, store, statement: gen.Statement, out_dir: Path, grown: dict[str, str]):
    """Parse -> resolve -> compose -> render -> emit -> write, timed; then checked."""
    from graphsynth import composer, problem, renderer, resolver

    text = statement.text()

    def pipeline():
        ps = problem.parse_problem_statement(text)
        plan = resolver.resolve(ps, store)
        pla = composer.compose(plan, store)
        plr = renderer.render(pla, plan.language, store)
        source = renderer.emit(plr, blank_lines_between_sections=statement.blank_lines)
        return renderer.write_source(source, plan.program_basename, plan.language, out_dir)

    path, _ = run.timed("synth", key, pipeline)
    shape = oracles.check_program(path.read_text(encoding="utf-8"), statement.calculations, grown,
                                  statement.blank_lines)
    run.keep_shape(shape, path)


def to_patterns(query: gen.Query):
    from graphsynth.quadstore import Pattern, Var
    from graphsynth.terms import Iri, Literal

    def term(text: str, graph: bool = False):
        if text.startswith("?"):
            return Var(text[1:])
        if text.startswith("<"):
            return text[1:-1] if graph else Iri(text[1:-1])
        return Literal(text[1:-1])

    return [Pattern(term(s), term(p), term(o), term(g, graph=True)) for s, p, o, g in query.patterns]


def query(run: Run, key, store, q: gen.Query):
    """One BGP through QuadStore.query_bgp, timed; then checked by brute force."""
    patterns = to_patterns(q)
    rows, _ = run.timed("query", key, store.query_bgp, patterns)
    graph_vars = {p.graph.name for p in patterns if not isinstance(p.graph, str)}
    expected = oracles.brute_force_join(store.quads(), patterns)
    if oracles.as_multiset(rows, graph_vars) != expected:
        raise oracles.OracleError(f"query {q.kind} returned {len(rows)} rows, brute force {sum(expected.values())}")


def record_graphs(run: Run, sizes: dict[str, int]):
    run.graphs = {
        "core": sizes.get(gen.CORE_GRAPH, 0),
        "pla": sum(n for g, n in sizes.items() if g.endswith("-pla")),
        "plr": sum(n for g, n in sizes.items() if g.endswith("-plr")),
        "graphs": len(sizes),
    }


def store_sizes(store) -> dict[str, int]:
    return {name: store.graph_size(name) for name in store.graph_names()}


def rounds(seconds: float, one_round):
    """Whole rounds until `seconds` of loop time have passed."""
    start = time.perf_counter()
    while True:
        one_round()
        if time.perf_counter() - start >= seconds:
            return


def run_ops(run: Run, store, ops, out_dir: Path, grown: dict[str, str]):
    for key, op in enumerate(ops):
        if isinstance(op, gen.Statement):
            synthesize(run, key, store, op, out_dir, grown)
        else:
            query(run, key, store, op)


# --- workloads ---------------------------------------------------------------


def warm_batch(run: Run, seconds: float, setups: int, state: dict):
    ops = gen.warm_round(run.args.seed)
    for _ in range(setups - 1):
        load(run, SHIPPED_KB)

    def one_round():
        store = load(run, SHIPPED_KB)  # every round starts from a freshly loaded KB
        out_dir = run.fresh_dir("warm")
        run_ops(run, store, ops, out_dir, {})
        record_graphs(run, store_sizes(store))
        shutil.rmtree(out_dir)

    rounds(seconds, one_round)


def kb_growth(run: Run, seconds: float, setups: int, state: dict):
    if "kb" not in state:
        state["kb"] = gen.write_grown_kb(SHIPPED_KB, run.work / "grown-kb", run.args.seed)
    grown = state["kb"]
    ops = gen.growth_round(run.args.seed, grown)
    for _ in range(setups):
        loaded = load(run, grown.directory)

    def one_round():
        store = loaded.clone()  # every round starts from the loaded KB alone
        out_dir = run.fresh_dir("growth")
        run_ops(run, store, ops, out_dir, grown.labels)
        record_graphs(run, store_sizes(store))
        shutil.rmtree(out_dir)

    rounds(seconds, one_round)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("GRAPHSYNTH_KB", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli(run: Run, phase: str, key, argv: list[str], traced: bool = True):
    """One cold CLI subprocess; traced runs go through cli_shim.py."""
    spans_file = None
    if run.tracer is not None and traced:
        spans_file = run.fresh_dir("spans") / "spans.json"
        command = [sys.executable, str(HERE / "cli_shim.py"), str(spans_file), *argv]
    else:
        command = [sys.executable, "-c", CLI_MAIN, *argv]

    def call():
        return subprocess.run(command, cwd=ROOT, env=run.env, capture_output=True, text=True,
                              timeout=SUBPROCESS_TIMEOUT)

    proc, span = run.timed(phase, key, call, traced=traced)
    if spans_file is not None:
        recorded = json.loads(spans_file.read_text(encoding="utf-8"))
        run.tracer.adopt(recorded["spans"], span)
        if phase == "synth":
            record_graphs(run, recorded["graphs"])
    return proc


def cli_example(run: Run, seconds: float, setups: int, state: dict):
    from graphsynth.quadstore import Var

    for _ in range(setups):
        store = load(run, SHIPPED_KB)
    q = gen.cli_query()
    if "expected" not in state:
        state["hostile"] = {op: gen.write_hostile_kb(SHIPPED_KB, run.work / f"hostile-{kind}", kind)
                            for op, kind in (("K", "keyword-callable"), ("S", "spaced-type-label"))}
        patterns = to_patterns(q)
        names = sorted({p.name for pattern in patterns for p in (pattern.subject, pattern.predicate, pattern.object)
                        if isinstance(p, Var)})
        rows = oracles.brute_force_join(store.quads(), patterns)
        state["expected"] = ["\t".join(f"?{n}" for n in names)] + sorted(
            "\t".join(oracles.format_term(dict(row)[name]) for name in names) for row in rows.elements())
        # One untimed run so bytecode caches exist before timing.
        subprocess.run([sys.executable, "-c", CLI_MAIN, "kb-stats"], cwd=ROOT, env=run.env,
                       capture_output=True, timeout=SUBPROCESS_TIMEOUT, check=True)

    def example():
        out_dir = run.fresh_dir("cli")
        proc = cli(run, "synth", "example", ["synthesize", str(EXAMPLE), "--out", str(out_dir)])
        program = out_dir / "hello_analytic.py"
        if proc.returncode != 0:
            raise oracles.OracleError(f"synthesize exited {proc.returncode}: {proc.stderr.strip()}")
        if program.read_bytes() != oracles.GOLDEN_EXAMPLE:
            raise oracles.OracleError("emitted example differs from the documented hello_analytic.py")
        run.keep_shape(("mean", "std"), program)
        shutil.rmtree(out_dir)

    def cli_query():
        proc = cli(run, "query", q.kind, ["query", *(" ".join(p) for p in q.patterns)])
        if proc.returncode != 0:
            raise oracles.OracleError(f"query exited {proc.returncode}: {proc.stderr.strip()}")
        header, *lines = proc.stdout.splitlines()
        if [header, *sorted(lines)] != state["expected"]:
            raise oracles.OracleError(f"query {q.kind}: CLI rows differ from the brute-force join")

    def hostile(kb: Path):
        # Passes on exit 0 with a program that parses, or on a stage exit
        # code (2-8) that leaves no file behind.
        out_dir = run.fresh_dir("hostile")
        proc = cli(run, "synth", None, ["synthesize", str(EXAMPLE), "--kb", str(kb), "--out", str(out_dir)],
                   traced=False)
        program = out_dir / "hello_analytic.py"
        if proc.returncode == 0 and program.is_file():
            try:
                compile(program.read_text(encoding="utf-8"), str(program), "exec", dont_inherit=True)
                ok = True
            except SyntaxError:
                ok = False
        else:
            ok = 2 <= proc.returncode <= 8 and not program.exists()
        run.failed += 0 if ok else 1
        shutil.rmtree(out_dir)

    def one_round():
        for op in CLI_ROUND:
            if op == "E":
                example()
            elif op == "Q":
                cli_query()
            else:
                hostile(state["hostile"][op])

    rounds(seconds, one_round)


WORKLOADS = {"cli-example": cli_example, "warm-batch": warm_batch, "kb-growth": kb_growth}


# --- results -----------------------------------------------------------------


def exec_shapes(run: Run) -> int:
    """Each distinct program shape runs once with numpy; values match the references."""
    exec_dir = run.work / "exec"
    exec_dir.mkdir()
    shutil.copyfile(FIXTURE, exec_dir / "my_input.txt")
    programs = {shape: str(path) for shape, path in run.shapes.items()}
    proc = subprocess.run([sys.executable, str(HERE / "exec_check.py"), str(exec_dir), *programs.values()],
                          capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise oracles.OracleError(f"exec check failed: {proc.stderr.strip()}")
    outputs = json.loads(proc.stdout.splitlines()[-1])
    values = oracles.read_fixture(FIXTURE)
    for shape, path in programs.items():
        result = outputs[os.path.abspath(path)]
        if result["status"] != 0:
            raise oracles.OracleError(f"program of shape {shape} exited {result['status']}")
        oracles.check_report(shape, result["stdout"], values)
    return len(programs)


def peak_rss_mb(include_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


def describe(run: Run, name: str, shapes: int) -> str:
    """Human-readable summary: raw (unscaled) medians and tails beside the metrics."""
    parts = [f"{name}: {run.attempted} operations, {run.failed} failed, "
             f"{run.attempted / run.busy_s:.3g} ops/s while busy, {shapes} program shapes run with numpy",
             f"calibration loop median {statistics.median(run.calibration_ms):.3g} ms "
             f"(reference {CALIBRATION_REF_MS} ms)"]
    for phase, times in run.raw_ms.items():
        if times:
            tail = f", p90 {statistics.quantiles(times, n=10)[-1]:.4g} ms" if len(times) >= 100 else ""
            parts.append(f"raw {phase}: n={len(times)}, median {statistics.median(times):.4g} ms{tail}")
    return "; ".join(parts)


def end_to_end(run: Run, rss_mb: float) -> dict:
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "synth_ms": (run.typical_ms("synth"), "ms"),
        "query_ms": (run.typical_ms("query"), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def import_ms(env) -> float:
    """`python -c "import graphsynth.cli"` minus a bare interpreter start (best of 5 each)."""
    bare, full = [], []
    for _ in range(5):
        for command, samples in (("pass", bare), ("import graphsynth.cli", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", command], cwd=ROOT, env=env, check=True,
                           timeout=SUBPROCESS_TIMEOUT)
            samples.append(time.perf_counter() - start)
    return (min(full) - min(bare)) * 1000


def per_layer(run: Run, untraced: Run) -> dict:
    phases = summarize(run.tracer.spans, run.roots)
    setups = max(1, len(run.roots["setup"]))
    synths = max(1, len(run.roots["synth"]))
    queries = max(1, len(run.roots["query"]))

    def total(phase, name, field):
        return phases[phase].get(f"{name}.{field}", 0.0)

    def lookups(phase, field):
        return sum(total(phase, f"quadstore.lookup.{m}", field) for m in ("match_pattern", "query_bgp"))

    def module_self(phase, module):
        return sum(v for k, v in phases[phase].items() if k.startswith(module + ".") and k.endswith(".self_ms"))

    # KB loads happen inside each CLI run on cli-example, in the set-ups elsewhere.
    load_phase = "synth" if total("synth", "loader.load_with_imports", "calls") else "setup"
    loads = max(1, total(load_phase, "loader.load_with_imports", "calls"))
    metrics = {}
    for phase, count in (("setup", setups), ("synth", synths), ("query", queries)):
        metrics[f"quadstore.{phase}_lookups"] = (lookups(phase, "calls") / count, "count")
        metrics[f"quadstore.{phase}_lookup_ms"] = (lookups(phase, "ms") / count, "ms")
        metrics[f"quadstore.{phase}_rows"] = (lookups(phase, "count") / count, "count")
        if phase != "query":
            metrics[f"quadstore.{phase}_inserts"] = (total(phase, "quadstore.insert", "calls") / count, "count")
            metrics[f"quadstore.{phase}_insert_ms"] = (total(phase, "quadstore.insert", "ms") / count, "ms")
    for graph in ("core", "pla", "plr"):
        metrics[f"quadstore.graph_quads.{graph}"] = (run.graphs[graph], "count")
    metrics["quadstore.graphs"] = (run.graphs["graphs"], "count")
    metrics.update({
        "turtle.parse_ms": (total(load_phase, "turtle.parse_document", "ms") / loads, "ms"),
        "turtle.docs": (total(load_phase, "turtle.parse_document", "calls") / loads, "count"),
        "loader.load_ms": (total(load_phase, "loader.load_with_imports", "ms") / loads, "ms"),
        "loader.files": (total(load_phase, "turtle.parse_document", "calls") / loads, "count"),
        "loader.quads": (total(load_phase, "loader.load_with_imports", "count") / loads, "count"),
        "views.check_kb_ms": (total(load_phase, "views.check_kb", "ms") / loads, "ms"),
        "views.view_calls": (sum(v for k, v in phases["synth"].items()
                                 if k.startswith("views.view_") and k.endswith(".calls")) / synths, "count"),
        "views.view_ms": (total("synth", "views", "outer_ms") / synths, "ms"),
        "views.self_ms": (module_self("synth", "views") / synths, "ms"),
        "problem.parse_ms": (total("synth", "problem.parse_problem_statement", "ms") / synths, "ms"),
        "resolver.resolve_ms": (total("synth", "resolver.resolve", "ms") / synths, "ms"),
        "resolver.self_ms": (module_self("synth", "resolver") / synths, "ms"),
        "composer.compose_ms": (total("synth", "composer.compose", "ms") / synths, "ms"),
        "composer.pla_quads": (total("synth", "composer.compose", "count") / synths, "count"),
        "composer.self_ms": (module_self("synth", "composer") / synths, "ms"),
        "renderer.render_ms": (total("synth", "renderer.render", "ms") / synths, "ms"),
        "renderer.plr_quads": (total("synth", "renderer.render", "count") / synths, "count"),
        "renderer.emit_ms": (total("synth", "renderer.emit", "ms") / synths, "ms"),
        "renderer.emit_bytes": (total("synth", "renderer.emit", "count") / synths, "count"),
        "renderer.write_ms": (total("synth", "renderer.write_source", "ms") / synths, "ms"),
        "renderer.self_ms": (module_self("synth", "renderer") / synths, "ms"),
        "cli.import_ms": (import_ms(run.env), "ms"),
        "cli.outside_ms": (total("synth", "bench.synth", "self_ms") / synths, "ms"),
    })
    scale = run.scale()
    metrics = {name: (value * scale if unit == "ms" else value, unit) for name, (value, unit) in metrics.items()}
    traced_ms, untraced_ms = run.typical_ms("synth"), untraced.typical_ms("synth")
    metrics.update({
        "trace.synth_ms": (traced_ms, "ms"),
        "trace.untraced_synth_ms": (untraced_ms, "ms"),
        "trace.overhead_pct": ((traced_ms / untraced_ms - 1) * 100, "%"),
        "trace.spans": (len(run.tracer.spans), "count"),
    })
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory inside the checkout")
    parser.add_argument("--spans-out", help="where the traced run writes its spans")
    args = parser.parse_args()
    # One CPU for this process and its children, so that each calibration
    # loop runs where the operation after it runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    work = Path(args.work)
    workload = WORKLOADS[args.workload]
    env = cli_env()
    state: dict = {}

    if not args.trace:
        run = Run(args, work, env)
        workload(run, args.seconds, SETUP_REPEATS[args.workload], state)
        rss_mb = peak_rss_mb(include_children=args.workload == "cli-example")
        shapes = exec_shapes(run)
        metrics = end_to_end(run, rss_mb)
    else:
        # Half the time untraced, half traced: the difference is the overhead.
        untraced = Run(args, work, env)
        workload(untraced, args.seconds / 2, 1, state)
        run = Run(args, work, env)
        run.tracer = Tracer()
        run.tracer.install()
        workload(run, args.seconds / 2, TRACED_SETUPS, state)
        run.tracer.uninstall()
        run.attempted += untraced.attempted
        run.failed += untraced.failed
        run.busy_s += untraced.busy_s
        run.shapes.update({s: p for s, p in untraced.shapes.items() if s not in run.shapes})
        shapes = exec_shapes(run)
        metrics = per_layer(run, untraced)
        if args.spans_out:
            with open(args.spans_out, "w", encoding="utf-8") as handle:
                json.dump({"roots": run.roots, "spans": run.tracer.spans}, handle)
    print(describe(run, args.workload, shapes))
    print(json.dumps({
        "correct": True,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
