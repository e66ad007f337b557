"""Spans around calls into graphsynth's public functions, made from outside.

`Tracer.install()` replaces module attributes (and the QuadStore lookup and
insert methods) with wrappers that record one span per call: name, start,
end, parent, and a small count where the call has one. Nothing inside
graphsynth is edited. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (span name, module, attribute); every graphsynth module that imported the
# attribute by name gets the same wrapper.
FUNCTION_TARGETS = (
    ("turtle.parse_document", "graphsynth.turtle", "parse_document"),
    ("loader.load_with_imports", "graphsynth.loader", "load_with_imports"),
    ("views.check_kb", "graphsynth.views", "check_kb"),
    ("problem.parse_problem_statement", "graphsynth.problem", "parse_problem_statement"),
    ("resolver.resolve", "graphsynth.resolver", "resolve"),
    ("composer.compose", "graphsynth.composer", "compose"),
    ("renderer.render", "graphsynth.renderer", "render"),
    ("renderer.emit", "graphsynth.renderer", "emit"),
    ("renderer.write_source", "graphsynth.renderer", "write_source"),
)
LOOKUP_METHODS = ("match_pattern", "query_bgp")


def _count(name: str, args, result) -> int:
    """The count a span carries: rows, quads inserted, graph quads or bytes."""
    if name.startswith("quadstore.lookup"):
        return len(result)
    if name == "quadstore.insert":
        return int(bool(result))
    if name == "loader.load_with_imports":
        return result.quads
    if name in ("composer.compose", "renderer.render"):
        store = args[1] if name == "composer.compose" else args[2]
        return store.graph_size(result.graph_iri)
    if name == "renderer.emit":
        return len(result.encode("utf-8"))
    return 0


class Tracer:
    def __init__(self):
        # Each span: [name, start_ns, end_ns, parent_index, count].
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.last_store = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, 0])
        self._stack.append(index)
        return index

    def close(self, index: int, count: int = 0):
        span = self.spans[index]
        span[2] = time.perf_counter_ns()
        span[4] = count
        self._stack.pop()

    def adopt(self, spans: list[list], parent: int):
        """Add spans recorded in a child process under one of this tracer's spans."""
        base = len(self.spans)
        for name, start, end, child_parent, count in spans:
            self.spans.append([name, start, end, parent if child_parent < 0 else base + child_parent, count])

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "quadstore.insert":
                tracer.last_store = args[0]
            index = tracer.open(name)
            count = 0
            try:
                result = fn(*args, **kwargs)
                count = _count(name, args, result)
                return result
            finally:
                tracer.close(index, count)

        return wrapper

    def install(self):
        import graphsynth.cli  # noqa: F401  (imports every pipeline module)
        import graphsynth.views as views
        from graphsynth.quadstore import QuadStore

        modules = [m for n, m in sys.modules.items() if n.startswith("graphsynth") and m is not None]
        targets = list(FUNCTION_TARGETS)
        targets += [(f"views.{attr}", "graphsynth.views", attr) for attr in dir(views) if attr.startswith("view_")]
        for span_name, module_name, attr in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name, original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for method, span_name in (*((m, f"quadstore.lookup.{m}") for m in LOOKUP_METHODS),
                                  ("insert", "quadstore.insert")):
            original = QuadStore.__dict__[method]
            self._restore.append((QuadStore, method, original))
            setattr(QuadStore, method, self._wrap(span_name, original))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# --- aggregation -----------------------------------------------------------


def summarize(spans: list[list], roots: dict[str, list[int]]) -> dict[str, dict[str, float]]:
    """Per phase, the inclusive time, self time, calls and counts of each span name.

    `roots` maps a phase name to the indices of its root spans (one per
    operation). Self time is a span's duration minus its children's.
    """
    children_ns = defaultdict(int)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children_ns[parent] += end - start
    phase_of: dict[int, str] = {}
    for phase, indices in roots.items():
        for index in indices:
            phase_of[index] = phase
    out: dict[str, dict] = {phase: defaultdict(float) for phase in roots}
    for index, (name, start, end, parent, count) in enumerate(spans):
        phase = phase_of.get(index)
        if phase is None:
            phase = phase_of.get(parent) if parent >= 0 else None
            if phase is None:
                continue
            phase_of[index] = phase  # children come after their parent
        stats = out[phase]
        stats[f"{name}.calls"] += 1
        stats[f"{name}.ms"] += (end - start) / 1e6
        stats[f"{name}.self_ms"] += (end - start - children_ns[index]) / 1e6
        stats[f"{name}.count"] += count
        # Time under the outermost span of each module, so nested calls
        # within one module are not counted twice.
        module = name.split(".")[0]
        if parent < 0 or spans[parent][0].split(".")[0] != module:
            stats[f"{module}.outer_ms"] += (end - start) / 1e6
    return out
