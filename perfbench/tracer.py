"""Outside-in span tracer for the groupcut benchmark.

The library is not instrumented.  Instead, each traced public function is
replaced, in the namespace of every groupcut module that holds a reference
to it, by a wrapper that records a span.  Modules import names with
``from .x import y``, so patching only the defining module would miss the
calls that matter: ``extremality.additivity_report``,
``minimality.enumerate_faces``, ``svg.enumerate_faces`` and
``solver.rref`` are each separate bindings of one function object.

A span records its name, start, end, parent span and case id.  Spans are
kept in memory; ``dump`` writes them out when the benchmark ends.  A traced
name that the library no longer defines is reported as absent.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# Count hooks: (args, result) -> {count name: value}.  They run outside the
# span's own interval, so they never inflate its self time.


def _len_result(key: str) -> Callable:
    return lambda args, result: {key: len(result)}


def _solver_counts(args, result) -> Dict[str, int]:
    # Computed from the call's arguments, not read from the solver: the
    # solver performs hi - lo unions for every run it receives.
    n, _f_index, runs = args[0], args[1], args[2]
    return {
        "grid_n": n,
        "runs": len(runs),
        "unit_unions": sum(max(0, hi - lo) for _kind, _c, lo, hi in runs),
        "basis_dim": len(result),
    }


def _out_bytes(args, result) -> Dict[str, int]:
    return {"out_bytes": len(result.encode("utf-8"))}


# Traced public functions, named <module>.<function>, with their count hooks.
TARGETS: Dict[str, Optional[Callable]] = {
    "complex2d.enumerate_faces": _len_result("faces"),
    "complex2d.additivity_report": lambda a, r: {"additive_faces": len(r.additive_faces)},
    "complex2d.delta_vertices": _len_result("vertices"),
    "solver.perturbation_space": _solver_counts,
    "extremality.extremality_test": None,
    "extremality.epsilon_ratio_test": None,
    "rational.rref": None,
    "rational.nullspace": None,
    "minimality.minimality_test": None,
    "minimality.verify_witness": None,
    "minimality.minimality_grid_oracle": None,
    "finite.finite_minimality_test": None,
    "finite.finite_extremality_test": None,
    "finite.restrict_to_finite_group": None,
    "serialize.dumps": _out_bytes,
    "serialize.loads": None,
    "svg.plot_2d_diagram": _out_bytes,
    "cli.main": None,
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "case", "counts", "child_s")

    def __init__(self, name: str, parent: Optional[int], case: Optional[str]):
        self.name = name
        self.parent = parent
        self.case = case
        self.start = 0.0
        self.end = 0.0
        self.counts: Dict[str, int] = {}
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        # Calls are sequential, so direct children never overlap and their
        # summed durations are the part of this interval they cover.
        return self.duration - self.child_s


class Tracer:
    """Installs wrappers around TARGETS; records spans only while active."""

    def __init__(self, package: str = "groupcut"):
        self.package = package
        self.spans: List[Span] = []
        self.absent: List[str] = []
        self.active = False
        self.case: Optional[str] = None
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {}
        for name in TARGETS:
            module_name, func_name = name.split(".")
            try:
                module = importlib.import_module(f"{self.package}.{module_name}")
                originals[name] = getattr(module, func_name)
            except (ImportError, AttributeError):
                self.absent.append(name)
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        prefix = self.package + "."
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == self.package or mod_name.startswith(prefix)):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count_hook = TARGETS[name]
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name == "solver.perturbation_space":
                # The run iterable is consumed by the solver; materialize it
                # so the count hook can read it afterwards.
                args = (args[0], args[1], list(args[2])) + args[3:]
            parent = stack[-1] if stack else None
            span = Span(name, parent, self.case)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.end - span.start
            if count_hook is not None:
                span.counts = count_hook(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- output -------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, s in enumerate(self.spans):
                record = {
                    "id": index,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "case": s.case,
                }
                if s.counts:
                    record["counts"] = s.counts
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")



def summarize(spans: List[Span], lo: int, hi: int,
              case_filter: Optional[Callable[[str], bool]] = None) -> Dict[str, float]:
    """Per-layer metrics of the spans ``spans[lo:hi]`` (one traced pass),
    optionally only of the cases that ``case_filter`` accepts.

    Returns ``<name>.calls``, ``<name>.self_s``, ``<name>.total_s`` and the
    summed counts ``<name>.<count>`` of every traced name that was called,
    plus attributions read off the span tree under ``extremality_test``:

    - ``extremality.minimality_rechecks``: nested ``minimality_test`` calls
      after the first one of each ``extremality_test``;
    - ``share.complex2d``: self time of ``complex2d`` spans;
    - ``share.solver``: time inside ``perturbation_space``;
    - ``share.certificate``: time in ``epsilon_ratio_test``, in ``rref`` and
      in the minimality re-checks;

    each share as a fraction of total ``extremality_test`` time.
    """
    out: Dict[str, float] = {}
    ext_of: Dict[int, Optional[int]] = {}
    checked: set = set()  # extremality spans whose first minimality_test ran
    ext_total = complex2d_s = solver_s = cert_s = 0.0
    rechecks = 0
    for i in range(lo, hi):
        s = spans[i]
        if case_filter is not None and not case_filter(s.case):
            continue
        for key, value in (("calls", 1), ("self_s", s.self_s), ("total_s", s.duration)):
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value

        parent_ext = ext_of.get(s.parent) if s.parent is not None else None
        if s.name == "extremality.extremality_test":
            ext_of[i] = i
            ext_total += s.duration
            continue
        ext_of[i] = parent_ext
        if parent_ext is None:
            continue
        if s.name.startswith("complex2d."):
            complex2d_s += s.self_s
        if s.name == "solver.perturbation_space":
            solver_s += s.duration
        if s.name in ("extremality.epsilon_ratio_test", "rational.rref"):
            cert_s += s.duration
        if s.name == "minimality.minimality_test" and s.parent == parent_ext:
            if parent_ext in checked:
                rechecks += 1
                cert_s += s.duration
            checked.add(parent_ext)
    out["extremality.minimality_rechecks"] = rechecks
    for key, value in (
        ("share.complex2d", complex2d_s),
        ("share.solver", solver_s),
        ("share.certificate", cert_s),
    ):
        out[key] = value / ext_total if ext_total else 0.0
    return out
