"""Per-layer tracing from outside the program.

Each traced function is replaced, at every module attribute through which
its callers resolve it, by a wrapper that records a span (name, start,
end, parent).  Spans stay in memory; the operation's process turns them
into per-layer totals and hands them to the parent, which writes them out
when the run ends.  Self time is a span's duration minus the spans it
directly contains; the traced calls are nested, never concurrent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (layer name, modules whose attribute of that name the callers resolve)
SITES = [
    ("closure.search", ["drloci.closure"]),
    ("closure.verify_certificate", ["drloci.closure"]),
    ("graphs.enumerate_level_structures", ["drloci.closure", "drloci.graphs"]),
    ("graphs.canonical_key", ["drloci.closure", "drloci.graphs"]),
    ("decorations.validate_twr", ["drloci.closure"]),
    ("homology.evaluation_system", ["drloci.closure"]),
    ("homology.level_filtration", ["drloci.homology"]),
    ("exact.solve_forms", ["drloci.homology"]),
    ("exact.integer_kernel_basis", ["drloci.homology"]),
    ("hurwitz.component_problem", ["drloci.closure"]),
    ("hurwitz.exists", ["drloci.closure", "drloci.hurwitz"]),
    ("witnesses.realize_component", ["drloci.closure"]),
    ("witnesses.split_shift_pair", ["drloci.witnesses"]),
]


def _zero_pattern(args, kwargs):
    """Level structure and zero marks: what an evaluation system depends on."""
    levels, dec = args[1], args[2]
    zeros = tuple(sorted(k for k, v in dec.values if v == 0)) if dec is not None else ()
    return levels, zeros


def _problem(args, kwargs):
    """The Hurwitz problem and the degree cap it is decided under."""
    cap = args[1] if len(args) > 1 else kwargs.get("cap")
    return args[0], cap


# layers whose count of distinct arguments is reported
DISTINCT = {
    "homology.evaluation_system": _zero_pattern,
    "hurwitz.exists": _problem,
}

# layers whose results are counted
RESULT_COUNTS = {
    "graphs.enumerate_level_structures": "graphs.level_structures",
    "closure.search": "closure.certificates",
}


class Tracer:
    """Span recorder; ``enabled`` is switched on only around an operation."""

    def __init__(self):
        self.enabled = False
        self.spans: list[list] = []  # [parent, name, start, end]
        self.stack: list[int] = [-1]
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.results: dict[str, int] = {name: 0 for name in RESULT_COUNTS.values()}
        self.unresolved: list[str] = []

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, modules in SITES:
            for modname in modules:
                module = importlib.import_module(modname)
                short = name.split(".", 1)[1]
                fn = getattr(module, short, None)
                if fn is None:
                    self.unresolved.append(f"{modname}.{short}")
                    continue
                if id(fn) not in wrappers:
                    wrappers[id(fn)] = self._wrap(name, fn)
                setattr(module, short, wrappers[id(fn)])
        if self.unresolved:
            print(f"trace: not found, left untraced: {self.unresolved}", file=sys.stderr)

    def _wrap(self, name: str, fn):
        tracer = self
        key_of = DISTINCT.get(name)
        counted = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if key_of is not None:
                tracer.distinct[name].add(key_of(args, kwargs))
            span = [tracer.stack[-1], name, time.perf_counter(), 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if counted is not None:
                tracer.results[counted] += len(result)
            return result

        return wrapper

    def summary(self) -> dict[str, float]:
        """Per-layer self seconds, calls, distinct arguments and result counts."""
        child_time = [0.0] * len(self.spans)
        for parent, _, start, end in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for name, _ in SITES:
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.calls"] = 0
        for (_, name, start, end), inner in zip(self.spans, child_time):
            out[f"{name}.self_s"] += end - start - inner
            out[f"{name}.calls"] += 1
        for name, keys in self.distinct.items():
            out[f"{name}.distinct"] = len(keys)
        out.update(self.results)
        return out

    def span_rows(self, origin: float) -> list[list]:
        """Spans as [id, parent, name, start, end], times relative to origin."""
        return [[i, parent, name, round(start - origin, 7), round(end - origin, 7)]
                for i, (parent, name, start, end) in enumerate(self.spans)]
