"""Spans recorded around calls into gf2hyper's public functions.

The tracer swaps chosen module-level functions, in every gf2hyper
module that binds them, for wrappers that record one span per call:
name, start, end, parent span and job id.  Nothing inside the package
changes.  Spans live in flat arrays while the run lasts and are written
out once at the end.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

# Public functions timed from outside, by owning module.  Generators are
# timed per item, so each span covers the production of one subspace.
TRACED = {
    "gf2": ("parse_matrix", "parse_subspace", "format_subspace", "enumerate_subspaces"),
    "nilpotent": ("validate_nilpotent", "generator_tuple", "ulm_sequence"),
    "commutant": ("commutant_basis", "automorphism_generators", "enumerate_automorphisms"),
    "classify": (
        "classify",
        "is_invariant",
        "is_marked",
        "is_characteristic",
        "is_hyperinvariant",
        "hyperinvariant_lattice",
    ),
    "shoda": ("counterexample",),
    "verify": ("jordan_operator", "census", "census_suite"),
    "cli": ("main",),
}
GENERATORS = {"gf2.enumerate_subspaces"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.job_ids = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.job_id = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.seen: set = set()  # (counter, operator) pairs counted in this job
        self._patches: list[tuple[object, str, object, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job_ids.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = self.open(self._name_id(name))
        try:
            yield
        finally:
            self.close(sid)

    @contextlib.contextmanager
    def job(self):
        """Trace one job: install the wrappers, open its root span, remove them."""
        self._install(True)
        self.job_id += 1
        self.seen.clear()
        try:
            with self.span("bench.job"):
                yield
        finally:
            self._install(False)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        inspect = _INSPECTORS.get(name)
        tracer = self

        if name in GENERATORS:

            def items(it):
                while True:
                    sid = tracer.open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(sid)
                    tracer.counts[name] += 1
                    yield item

            return lambda *a, **kw: items(fn(*a, **kw))

        def wrapper(*args, **kwargs):
            sid = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if inspect is not None:
                inspect(tracer, args, result)
            return result

        return wrapper

    def bind(self, package) -> None:
        """Make a span wrapper for every binding of a TRACED function.

        Functions are bound in every module that imports them, so each
        binding is replaced, and calls inside the package are traced too.
        """
        modules = {
            m: importlib.import_module(f"{package.__name__}.{m}") for m in TRACED
        }
        wrappers = {}
        for mod_name, fns in TRACED.items():
            for fn_name in fns:
                fn = getattr(modules[mod_name], fn_name)
                wrappers[id(fn)] = (fn, self._wrap(f"{mod_name}.{fn_name}", fn))
        for module in [package, *modules.values()]:
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value, wrappers[id(value)][1]))

    def _install(self, traced: bool) -> None:
        for module, attr, original, wrapper in self._patches:
            setattr(module, attr, wrapper if traced else original)

    def self_times(self) -> array:
        """Each span's duration minus the time its direct children cover."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[sid] - self.start[sid]
        return own

    def write(self, path: Path) -> None:
        """One CSV row per span, times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id,parent,job,name,start_us,end_us\n")
            for sid in range(len(self.start)):
                out.write(
                    f"{sid},{self.parent[sid]},{self.job_ids[sid]},"
                    f"{self.names[self.name[sid]]},"
                    f"{(self.start[sid] - t0) * 1e6:.1f},{(self.end[sid] - t0) * 1e6:.1f}\n"
                )


def _count_invariant(tracer, args, result) -> None:
    tracer.counts["invariant_true"] += bool(result)


def _count_units(tracer, args, result) -> None:
    tracer.counts["unit_candidates"] += (1 << args[0].dim) - 1
    tracer.counts["units"] += len(result)


def _per_operator(key: str, size):
    """Count size(result) once per operator and job, however often it is asked."""

    def inspect(tracer, args, result) -> None:
        if (key, args[0]) not in tracer.seen:
            tracer.seen.add((key, args[0]))
            tracer.counts[key] += size(result)

    return inspect


_INSPECTORS = {
    "classify.is_invariant": _count_invariant,
    "commutant.enumerate_automorphisms": _count_units,
    "commutant.commutant_basis": _per_operator("commutant.dim", lambda c: c.dim),
    "commutant.automorphism_generators": _per_operator("commutant.generators", len),
    "classify.hyperinvariant_lattice": _per_operator("classify.lattice_nodes", len),
}
