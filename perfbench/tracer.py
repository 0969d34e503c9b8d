"""Span tracing for operad_forge, built entirely outside the package.

`Tracer.install` replaces every binding of each public function of every
``operad_forge.*`` module with one wrapper per function.  A name imported
with ``from .foundation import span`` is its own module attribute, so every
module attribute that refers to the original function gets the same
wrapper.  The two methods in `METHODS` are wrapped on their class.

Spans live in memory as parallel arrays with parent links and a job id,
and `Tracer.write` writes them out at the end of a run.  `layer_metrics`
turns one or more traces into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from array import array
from collections import Counter
from time import perf_counter_ns

PACKAGE = "operad_forge"

# (module, class, method, span name) wrapped besides the module functions.
METHODS = (
    ("foundation", "Subspace", "reduce", "foundation.Subspace.reduce"),
    ("operad_calculus", "QuadraticOperad", "__init__",
     "operad_calculus.QuadraticOperad.init"),
)

# Functions whose calls and self time are reported.
REPORTED = (
    "foundation.rref", "foundation.span", "foundation.Subspace.reduce",
    "foundation.combine",
    "group_module.isotypic_multiplicities", "group_module.check_invariant",
    "weight_spaces.act", "weight_spaces.psi", "weight_spaces.project",
    "relation_dsl.parse_relation", "relation_dsl.format_weight3",
    "operad_calculus.orbit_span", "operad_calculus.QuadraticOperad.init",
    "operad_calculus.preset", "operad_calculus.rank", "operad_calculus.dual",
    "operad_calculus.tilde", "operad_calculus.find_presentation",
    "tensor_closure.expand", "tensor_closure.membership",
    "tensor_closure.theorem1_check", "tensor_closure.minimal_companion",
    "algebra_instances.check_relations", "algebra_instances.satisfies",
    "algebra_instances.tensor_instance",
    "algebra_instances.search_counterexample",
    "cli.run",
)


def _operad_key(p):
    # An operad's value without its name.
    return (p.symmetry, p.relations.space, p.presentation)


# Argument values of each call, for the share of repeated calls; these
# bound what memoization can save.  Each takes the function's parameters.
REPEAT_KEYS = {
    "operad_calculus.preset": lambda name, *params: (name, params),
    "operad_calculus.rank": lambda r: (r.symmetry, r.space),
    "operad_calculus.dual": _operad_key,
    "operad_calculus.tilde": lambda p, seed=0: (_operad_key(p), seed),
}

# Work counters: counter name and the amount one call adds, from its
# result and parameters.
COUNTS = {
    "foundation.rref": (
        "cells", lambda result, rows: len(rows) * len(rows[0]) if rows else 0),
    "algebra_instances.check_relations": (
        "triples", lambda result, alg, r: alg.dim ** 3 * r.dim),
    "algebra_instances.satisfies": (
        "accepted", lambda result, alg, r: int(result)),
    "algebra_instances.search_counterexample": (
        "witnesses", lambda result, *args, **kw: int(result is not None)),
}

# Span columns and their array type codes.
COLUMNS = {"name": "i", "parent": "i", "job": "i", "start": "q", "end": "q"}


def import_all() -> list:
    """The package and every module in it, imported."""
    package = importlib.import_module(PACKAGE)
    return [package] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                        for info in pkgutil.iter_modules(package.__path__)]


class Tracer:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.columns = {col: array(code) for col, code in COLUMNS.items()}
        self.counters: Counter = Counter()
        self.active = True
        self._stack = [-1]
        self._job = -1
        self._installed: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, k: int) -> int:
        c = self.columns
        sid = len(c["start"])
        c["name"].append(k)
        c["parent"].append(self._stack[-1])
        c["job"].append(self._job)
        c["end"].append(0)
        self._stack.append(sid)
        c["start"].append(perf_counter_ns())
        return sid

    def close(self, sid: int) -> None:
        self.columns["end"][sid] = perf_counter_ns()
        self._stack.pop()

    def begin_job(self, job: int) -> int:
        """Open the root span of one job; its spans share the job id."""
        self._job = job
        return self.open(self.name_id("job"))

    def end_job(self, sid: int) -> None:
        self.close(sid)
        self._job = -1

    def wrap(self, fn, name: str):
        k = self.name_id(name)
        count = COUNTS.get(name)
        repeat_key = REPEAT_KEYS.get(name)
        seen = set()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self.open(k)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count:
                self.counters[f"{name}.{count[0]}"] += count[1](
                    result, *args, **kwargs)
            if repeat_key:
                key = repeat_key(*args, **kwargs)
                self.counters[f"{name}.repeats"] += key in seen
                seen.add(key)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every public operad_forge function."""
        wrappers: dict[int, object] = {}
        for mod in import_all():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE + ".")):
                    continue
                if id(obj) not in wrappers:
                    short = obj.__module__.rsplit(".", 1)[1]
                    wrappers[id(obj)] = self.wrap(
                        obj, f"{short}.{obj.__qualname__}")
                self._installed.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for mod_name, cls_name, meth, name in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"),
                          cls_name)
            original = cls.__dict__[meth]
            self._installed.append((cls, meth, original))
            setattr(cls, meth, self.wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self) -> dict:
        return {"names": self.names, "counters": dict(self.counters),
                **self.columns}

    def write(self, path) -> None:
        """One JSON header line, then the span columns as raw arrays."""
        header = {"names": self.names, "counters": dict(self.counters),
                  "spans": len(self.columns["start"])}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in COLUMNS:
                self.columns[col].tofile(fh)


def read_trace(path) -> dict:
    """Inverse of `Tracer.write`, in the form of `Tracer.dump`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        trace = {"names": header["names"], "counters": header["counters"]}
        for col, code in COLUMNS.items():
            trace[col] = array(code)
            trace[col].fromfile(fh, header["spans"])
    return trace


def self_times(parent, start, end) -> array:
    """Each span's duration minus the part of it its child spans cover.

    Spans must be numbered in the order they were opened, as `Tracer`
    numbers them, so each span's children arrive in order of start time.
    """
    covered = array("q", bytes(8 * len(start)))
    reach = array("q", start)
    for sid, p in enumerate(parent):
        if p < 0:
            continue
        lo, hi = max(start[sid], reach[p]), min(end[sid], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("q", (e - s - c for s, e, c in zip(start, end, covered)))


def layer_metrics(traces: list[dict], jobs: int) -> dict[str, tuple]:
    """Per-layer metrics, as (value, unit), from the traces of `jobs` jobs.

    Counts and self times are per job; ratios are over calls.
    """
    calls: Counter = Counter()
    self_ns: Counter = Counter()
    counters: Counter = Counter()
    child_calls: Counter = Counter()  # (parent name, child name) -> calls
    for tr in traces:
        names, ix, parent = tr["names"], tr["name"], tr["parent"]
        for sid, t in enumerate(self_times(parent, tr["start"], tr["end"])):
            name = names[ix[sid]]
            calls[name] += 1
            self_ns[name] += t
            if parent[sid] >= 0:
                child_calls[names[ix[parent[sid]]], name] += 1
        counters.update(tr["counters"])

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for name in REPORTED:
        out[f"{name}.calls"] = (calls[name] / jobs, "count")
        out[f"{name}.self_s"] = (self_ns[name] / 1e9 / jobs, "s")
    out["foundation.rref.cells"] = (
        counters["foundation.rref.cells"] / jobs, "count")
    for name in REPEAT_KEYS:
        out[f"{name}.repeat_frac"] = (
            ratio(counters[f"{name}.repeats"], calls[name]), "frac")
    fp = "operad_calculus.find_presentation"
    out[f"{fp}.tries_per_call"] = (
        ratio(child_calls[fp, "operad_calculus.orbit_span"], calls[fp]),
        "count")
    cr = "algebra_instances.check_relations"
    out[f"{cr}.triples"] = (counters[f"{cr}.triples"] / jobs, "count")
    sat = "algebra_instances.satisfies"
    out[f"{sat}.accept_frac"] = (
        ratio(counters[f"{sat}.accepted"], calls[sat]), "frac")
    sc = "algebra_instances.search_counterexample"
    out[f"{sc}.pairs_checked"] = (
        child_calls[sc, "algebra_instances.tensor_instance"] / jobs, "count")
    out[f"{sc}.witness_frac"] = (
        ratio(counters[f"{sc}.witnesses"], calls[sc]), "frac")
    return out
