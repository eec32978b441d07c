"""Spans around calls into the program's public functions, added from outside.

``install`` replaces every module binding of each traced function with a
wrapper, because ``from .graphcore import coline`` and the like copy the
function into the importing module's namespace.  Spans are aggregated in
memory as they close: per function the call count, inclusive time and self
time (inclusive time minus the time of its child spans).  A generator's span
covers only the time spent inside its own ``next()`` calls, never the
consumer's work between them.

Only the process that installed the tracer records; pool workers forked from
it call the original functions' work unrecorded, so the counts of a parallel
sweep are those of its parent alone and repeat exactly from run to run.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

TRACED = {
    "oracle": (
        "iter_graph_classes",
        "canonical_graph",
        "canonical_form",
        "is_tough",
        "hamiltonian_cycle",
        "hamiltonian_path",
        "longest_cycle",
        "contains_power_ham_cycle",
        "is_induced_free",
        "contains_subgraph",
        "is_isomorphic",
    ),
    "graphcore": ("coline", "components", "strip_isolated"),
    "graph6": ("emit_graph6", "parse_graph6"),
    "characterize": (
        "decide_coline_tough",
        "decide_coline_hamiltonian",
        "decide_wu_meng",
        "decide_coline_traceable",
        "classify_disconnected_coline",
        "build_report",
        "load_catalog",
        "validate_catalog",
    ),
    "lemmacheck": ("make_context", "run_all_checks", "check_trivial_components"),
    "sweep": ("run_sweep", "self_coline_census", "whitney_census", "bootstrap_catalog"),
    "cli": ("main",),
}
GENERATORS = frozenset({"oracle.iter_graph_classes"})
SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)


class Tracer:
    def __init__(self) -> None:
        self.pid = os.getpid()
        self.active = False
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.edges: Counter = Counter()  # (parent span, child span) -> entries
        self.yields: Counter = Counter()
        self.stack: list[list] = []  # [name, start, time in child spans]
        self.covered_s = 0.0  # time inside outermost spans
        self.seen_canonical: set = set()
        self.canonical_repeats = 0
        self.tough_exhaustive = 0
        self.missing: list[str] = []

    def recording(self) -> bool:
        return self.active and os.getpid() == self.pid

    def forget_inputs(self) -> None:
        """Start a new memo horizon, as when the program's caches are cleared."""
        self.seen_canonical.clear()

    def enter(self, name: str) -> None:
        self.edges[(self.stack[-1][0] if self.stack else None, name)] += 1
        self.stack.append([name, time.perf_counter(), 0.0])

    def leave(self) -> None:
        name, start, child = self.stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        if self.stack:
            self.stack[-1][2] += duration
        else:
            self.covered_s += duration

    def observe(self, name: str, args: tuple, result) -> None:
        if name == "oracle.canonical_graph":
            g = args[0]
            key = (g.n, g.adj)
            if key in self.seen_canonical:
                self.canonical_repeats += 1
            else:
                self.seen_canonical.add(key)
        elif name == "oracle.is_tough":
            if result.value and not result.vacuous:
                self.tough_exhaustive += 1

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "canonical_from_enumeration": self.edges[
                ("oracle.iter_graph_classes", "oracle.canonical_form")
            ],
            "classes_yielded": self.yields["oracle.iter_graph_classes"],
            "canonical_repeats": self.canonical_repeats,
            "tough_exhaustive": self.tough_exhaustive,
            "missing": self.missing,
        }


class _TracedIterator:
    def __init__(self, tracer: Tracer, name: str, inner) -> None:
        self._tracer = tracer
        self._name = name
        self._inner = inner

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        if not tracer.recording():
            return next(self._inner)
        tracer.enter(self._name)
        try:
            value = next(self._inner)
        finally:
            tracer.leave()
        tracer.yields[self._name] += 1
        return value

    def close(self) -> None:
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


def _wrap(tracer: Tracer, name: str, fn):
    if name in GENERATORS:

        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            if tracer.recording():
                tracer.calls[name] += 1
            return _TracedIterator(tracer, name, fn(*args, **kwargs))

        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.recording():
            return fn(*args, **kwargs)
        tracer.calls[name] += 1
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        tracer.observe(name, args, result)
        return result

    return traced


def install(tracer: Tracer, package: str = "coline") -> None:
    """Wrap every binding of every traced function in the package."""
    wrappers = {}
    for module_name, names in TRACED.items():
        module = importlib.import_module(f"{package}.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                tracer.missing.append(f"{module_name}.{name}")
                continue
            wrappers[id(fn)] = (fn, _wrap(tracer, f"{module_name}.{name}", fn))
    modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attr, entry[1])
