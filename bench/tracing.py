"""Span tracer that times vagueq's public functions from the outside.

Nothing under ``src/`` is edited: ``install`` replaces library functions
and methods with timing wrappers at run time.  A function imported by
name (``from .measures import measure_of``) is a separate binding in
every importing module, so every binding that is the original object is
replaced; otherwise calls made inside other vagueq modules (``localize``
calling ``measure_of``, ``sugeno_integral`` calling ``alpha_cut``) would
not be seen.

Spans are aggregated as they close: per span name the number of calls
and the self time (duration minus the time covered by child spans), and
per (parent, child) pair the number of child calls, which gives counts
such as alpha-cuts per grid Sugeno call.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Spans reported per layer, in report order.
LAYERS = (
    "fuzzy.grid_build",
    "fuzzy.integral_over",
    "fuzzy.max_over",
    "fuzzy.finite_build",
    "fuzzy.algebra",
    "intervals.ops",
    "measures.build",
    "measures.measure_of",
    "integrals.alpha_cut",
    "integrals.sugeno_grid",
    "integrals.sugeno_finite",
    "integrals.grid_tolerance",
    "localize.realize_density",
    "localize.localize",
)


class Tracer:
    """In-memory span aggregates and counters for one traced section."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []

    def wrap(self, name, fn, after=None):
        """Return ``fn`` timed as a span.

        ``name`` is a span name or a callable mapping the call's
        arguments to one; ``after(tracer, args)`` runs once the call
        returned, to record counts.
        """
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(*args)
            parent = stack[-1] if stack else None
            frame = [span, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[span] += 1
                self.self_ns[span] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    self.edges[(parent[0], span)] += 1
            if after is not None:
                after(self, args)
            return result

        return wrapper

    def merge(self, other: "Tracer") -> None:
        for key, value in other.calls.items():
            self.calls[key] += value
        for key, value in other.self_ns.items():
            self.self_ns[key] += value
        for key, value in other.edges.items():
            self.edges[key] += value
        for key, value in other.counts.items():
            self.counts[key] += value

    def to_json(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "counts": dict(self.counts),
        }

    @classmethod
    def from_json(cls, data: dict) -> "Tracer":
        t = cls()
        t.calls.update(data["calls"])
        t.self_ns.update(data["self_ns"])
        for p, c, n in data["edges"]:
            t.edges[(p, c)] = n
        t.counts.update(data["counts"])
        return t

    def per_call(self, parent: str, child: str) -> float:
        """Mean number of ``child`` spans directly inside one ``parent``."""
        calls = self.calls.get(parent, 0)
        return self.edges.get((parent, child), 0) / calls if calls else 0.0


def _count_points(tracer: Tracer, args) -> None:
    tracer.counts["fuzzy.grid_build.points"] += args[0].samples.size


def install(tracer: Tracer):
    """Wrap vagueq's public functions; return a callable that undoes it."""
    import vagueq.cli  # noqa: F401  (loads every vagueq module)
    from vagueq.fuzzy import FiniteFuzzySet, GridFunction
    from vagueq.intervals import IntervalSet
    from vagueq.measures import MeasureSpec

    def sugeno_span(f, *_):
        if isinstance(f, FiniteFuzzySet):
            return "integrals.sugeno_finite"
        return "integrals.sugeno_grid"

    functions = (
        ("vagueq.fuzzy", "fuzzy_union", "fuzzy.algebra"),
        ("vagueq.fuzzy", "fuzzy_intersection", "fuzzy.algebra"),
        ("vagueq.fuzzy", "fuzzy_complement", "fuzzy.algebra"),
        ("vagueq.intervals", "union_all", "intervals.ops"),
        ("vagueq.measures", "measure_of", "measures.measure_of"),
        ("vagueq.integrals", "alpha_cut", "integrals.alpha_cut"),
        ("vagueq.integrals", "grid_tolerance", "integrals.grid_tolerance"),
        ("vagueq.integrals", "sugeno_integral", sugeno_span),
        ("vagueq.localize", "realize_density", "localize.realize_density"),
        ("vagueq.localize", "localize", "localize.localize"),
        ("vagueq.cli", "main", "cli.main"),
    )
    methods = (
        (GridFunction, "__post_init__", "fuzzy.grid_build", _count_points),
        (GridFunction, "integral_over", "fuzzy.integral_over", None),
        (GridFunction, "max_over", "fuzzy.max_over", None),
        (FiniteFuzzySet, "__post_init__", "fuzzy.finite_build", None),
        (IntervalSet, "from_pairs", "intervals.ops", None),
        (IntervalSet, "intersection", "intervals.ops", None),
        (MeasureSpec, "additive", "measures.build", None),
        (MeasureSpec, "possibilistic", "measures.build", None),
        (MeasureSpec, "from_table", "measures.build", None),
    )
    undo: list[tuple[object, str, object]] = []
    modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "vagueq"]
    for module_name, attr, span in functions:
        original = getattr(sys.modules[module_name], attr)
        wrapped = tracer.wrap(span, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    undo.append((module, key, value))
                    setattr(module, key, wrapped)
    for cls, attr, span, after in methods:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(tracer.wrap(span, raw.__func__, after))
        else:
            wrapped = tracer.wrap(span, raw, after)
        undo.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall() -> None:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return uninstall
