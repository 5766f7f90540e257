"""Layer spans recorded from outside the program, and their self times.

A traced command process installs a `Tracer` before calling
`glsemi.cli.main`.  Each layer is a module of the package; a span is
recorded only when a function of one module is called from another.
Plain functions are traced by rebinding the name in the *caller's*
namespace (`gl_restriction.mat_mul`, `cli.enumerate_semigroup`, ...), so
calls a module makes to its own functions stay untraced and cost
nothing extra.  Methods are shared by every caller, so they are wrapped
on the class and record a span only when the calling frame belongs to
another module.

Spans are kept in memory as flat arrays (name id, parent index, start,
end) and written out once, when the command ends.  The harness turns
them into per-function call counts and self times: a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

PACKAGE = "glsemi"
MODULES = ("gf_linalg", "semigroup_core", "gl_restriction", "isomorphism", "cli")

# (module, class, attribute, span name) for methods called across modules.
# SemigroupTable.__init__ is the table construction, including its check.
METHODS = (
    ("semigroup_core", "SemigroupTable", "__init__", "semigroup_core.SemigroupTable"),
    ("semigroup_core", "SemigroupTable", "green", "semigroup_core.SemigroupTable.green"),
    ("gf_linalg", "Subspace", "contains", "gf_linalg.Subspace.contains"),
    ("gf_linalg", "Subspace", "coordinates", "gf_linalg.Subspace.coordinates"),
    ("gf_linalg", "Subspace", "vectors", "gf_linalg.Subspace.vectors"),
)

ROOT = "cli.main"
ENUMERATE = "gl_restriction.enumerate_semigroup"
TABLE_BUILD = "semigroup_core.SemigroupTable"


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, name: str, fn):
        """`fn` recording one span per call under `name`."""
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return functools.wraps(fn)(traced)

    def wrap_method(self, name: str, fn, home: str):
        """Like `wrap`, but only calls from outside module `home` are spans."""
        traced = self.wrap(name, fn)
        getframe = sys._getframe

        def method(*args, **kwargs):
            if getframe(1).f_globals.get("__name__") == home:
                return fn(*args, **kwargs)
            return traced(*args, **kwargs)

        return functools.wraps(fn)(method)

    def dump(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def _traceable(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def install(tracer: Tracer) -> None:
    """Trace every cross-module call between the package's modules."""
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    full = {mod.__name__: short for short, mod in mods.items()}
    wrappers: dict[int, object] = {}
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            home = getattr(obj, "__module__", None)
            if not _traceable(obj) or home not in full or home == mod.__name__:
                continue
            if id(obj) not in wrappers:
                wrappers[id(obj)] = tracer.wrap(f"{full[home]}.{obj.__name__}", obj)
            setattr(mod, attr, wrappers[id(obj)])
    for module, cls_name, attr, span in METHODS:
        cls = getattr(mods[module], cls_name)
        setattr(cls, attr, tracer.wrap_method(span, getattr(cls, attr), mods[module].__name__))


def self_times(parent, start, end):
    """Each span's duration minus the summed durations of its direct children."""
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    nested = parent >= 0
    children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    return dur - children


def summarize(names, name_id, parent, start, end) -> dict:
    """Per span name: call count and total self time.

    enumerate_semigroup also gets `builds`: its spans that contain a
    table construction at any depth, i.e. the calls that missed the cache.
    """
    selfs = self_times(parent, start, end)
    name_id = np.asarray(name_id)
    calls = np.bincount(name_id, minlength=len(names))
    total = np.bincount(name_id, weights=selfs, minlength=len(names))
    out = {name: {"calls": int(calls[i]), "self_s": float(total[i])} for i, name in enumerate(names)}
    names = list(names)
    builders = set()
    if TABLE_BUILD in names and ENUMERATE in names:
        build_id, enum_id = names.index(TABLE_BUILD), names.index(ENUMERATE)
        for idx in np.flatnonzero(name_id == build_id):
            up = int(parent[idx])
            while up >= 0 and name_id[up] != enum_id:
                up = int(parent[up])
            if up >= 0:
                builders.add(up)
    out.setdefault(ENUMERATE, {"calls": 0, "self_s": 0.0})["builds"] = len(builders)
    return out


def load_summary(path: str) -> dict:
    with np.load(path) as data:
        return summarize(
            [str(x) for x in data["names"]], data["name_id"], data["parent"], data["start"], data["end"]
        )
