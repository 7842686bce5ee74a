"""In-memory span recorder and the attribute rebinding that feeds it.

The benchmark traces boundarylab from the outside: ``instrument`` replaces
the public functions of each layer module (the names in ``__all__``), the
``Screen`` query methods and a few named class members with wrappers that
record a span per call.  Nothing under ``src/`` is edited.  Every module
global that still pointed at an original function (``spectral.boundary_screen``
was imported from ``models``) is rebound to the same wrapper, so calls made
through those names land in spans too.

A span is (name, start, end, parent, task, outer).  ``outer`` is false
when a span of the same name is already open, so recursion is not counted
twice in a total.  Spans are kept in plain lists and summarised with numpy
once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

LAYERS = ("jacobi", "screens", "models", "spectral", "graphs", "asymptotics", "cli")

# Called once per quadrature point (millions of times per run); a span each
# would cost more than the work it measures.
UNWRAPPED = {"jacobi.s_profile", "jacobi.c_radius"}

SCREEN_QUERIES = ("cdf", "cdf_fast", "cdf_left", "tail_closed", "tail_open",
                  "quantile", "bsep", "ky_fan")


class Tracer:
    """Collects spans; ``task`` tags every span opened while it is set."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.task_of: list[int] = []
        self.outer: list[bool] = []
        self._stack: list[int] = [-1]
        self._open: dict[int, int] = {}
        self.task = -1

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        depth = self._open.get(nid, 0)
        self._open[nid] = depth + 1
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.task_of.append(self.task)
        self.outer.append(depth == 0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._open[self.name_id[i]] -= 1

    def add(self, name: str, start: float, end: float, parent: int, outer=True) -> int:
        """Append a finished span (one recorded by another process)."""
        i = len(self.start)
        self.name_id.append(self.intern(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.task_of.append(self.task)
        self.outer.append(outer)
        return i

    def wrap(self, fn, name: str, variant=None):
        """Wrapper recording a span per call; ``variant(args, kwargs)``
        picks a suffix such as the screen representation."""
        nid = self.intern(name)
        if variant is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = self.open(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(i)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                i = self.open(self.intern(f"{name}.{variant(args, kwargs)}"))
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.close(i)
        return wrapper

    def to_arrays(self):
        return {
            "name_id": np.asarray(self.name_id, dtype=np.int64),
            "start": np.asarray(self.start, dtype=float),
            "end": np.asarray(self.end, dtype=float),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "task": np.asarray(self.task_of, dtype=np.int64),
            "outer": np.asarray(self.outer, dtype=bool),
        }


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Children of one span run one after another inside it (the traced code
    is single-threaded), so the time they cover is the sum of their
    durations, clipped to the parent's interval.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    has = parent >= 0
    p = parent[has]
    covered_each = np.minimum(end[has], end[p]) - np.maximum(start[has], start[p])
    covered = np.bincount(p, weights=np.maximum(covered_each, 0.0), minlength=dur.size)
    return dur - covered


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(tracer: Tracer, keep_task=None) -> dict:
    """Per-name calls, total_ms (outermost spans only) and self_ms.

    ``keep_task(task_ids) -> mask`` selects which spans count; the self
    times are computed on every span first so a filtered parent still
    subtracts its children.
    """
    a = tracer.to_arrays()
    if a["start"].size == 0:
        return {}
    own = self_times(a["start"], a["end"], a["parent"])
    mask = np.ones(own.size, dtype=bool) if keep_task is None else keep_task(a["task"])
    ids = a["name_id"][mask]
    dur = (a["end"] - a["start"])[mask]
    n = len(tracer.names)
    calls = np.bincount(ids, minlength=n)
    total = np.bincount(ids, weights=np.where(a["outer"][mask], dur, 0.0), minlength=n)
    selft = np.bincount(ids, weights=own[mask], minlength=n)
    return {
        name: {"calls": int(calls[k]), "total_ms": 1e3 * float(total[k]),
               "self_ms": 1e3 * float(selft[k])}
        for k, name in enumerate(tracer.names) if calls[k]
    }


def count_under(tracer: Tracer, child: str, parents: tuple[str, ...], keep_task=None) -> int:
    """Number of ``child`` spans whose direct parent is one of ``parents``."""
    a = tracer.to_arrays()
    ids = {tracer._ids[p] for p in parents if p in tracer._ids}
    if child not in tracer._ids or not ids:
        return 0
    mask = a["name_id"] == tracer._ids[child]
    if keep_task is not None:
        mask &= keep_task(a["task"])
    par = a["parent"][mask]
    par = par[par >= 0]
    return int(np.isin(a["name_id"][par], list(ids)).sum())


def _screen_kind(args, kwargs):
    from boundarylab import screens
    s = args[0] if args else kwargs["s"]
    if isinstance(s, screens.AtomScreen):
        return "atoms"
    if isinstance(s, screens.GridScreen):
        return "grid"
    return "density"


def _bsep_mode(args, kwargs):
    return kwargs.get("mode", args[2] if len(args) > 2 else "exact")


VARIANTS = {"screens.obs_inradius": _screen_kind, "graphs.bsep_k": _bsep_mode}


def instrument(tracer: Tracer) -> dict:
    """Rebind boundarylab's public callables to span-recording wrappers.

    Returns {qualified name: original callable}.  A wrapped
    ``lru_cache`` function keeps ``cache_info`` and ``cache_clear``
    pointing at the original, whose statistics stay authoritative.
    """
    mods = {layer: importlib.import_module(f"boundarylab.{layer}") for layer in LAYERS}
    graphs, models, screens, spectral = (mods[k] for k in ("graphs", "models", "screens",
                                                          "spectral"))
    originals: dict[str, object] = {}
    swap: dict[int, object] = {}
    for layer, mod in mods.items():
        names = list(getattr(mod, "__all__", ()))
        if layer == "cli":
            names = ["main"] + [n for n in vars(mod) if n.startswith("cmd_")]
        for name in names:
            obj = getattr(mod, name)
            qual = f"{layer}.{name}"
            if isinstance(obj, type) or not callable(obj) or qual in UNWRAPPED:
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            span_name = f"cli.{name[4:]}" if name.startswith("cmd_") else qual
            w = tracer.wrap(obj, span_name, VARIANTS.get(qual))
            if hasattr(obj, "cache_info"):
                w.cache_info = obj.cache_info
                w.cache_clear = obj.cache_clear
            originals[qual] = obj
            swap[id(obj)] = w
    # rebind every module global that refers to a wrapped original
    for modname, mod in list(sys.modules.items()):
        if modname == "boundarylab" or modname.startswith("boundarylab."):
            for key, val in list(vars(mod).items()):
                if id(val) in swap:
                    setattr(mod, key, swap[id(val)])

    def wrap_attr(cls, attr, span_name):
        raw = originals[span_name] = cls.__dict__[attr]
        if isinstance(raw, property):
            setattr(cls, attr, property(tracer.wrap(raw.fget, span_name)))
        elif isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(raw.__func__, span_name)))
        else:
            setattr(cls, attr, tracer.wrap(raw, span_name))

    for cls in (screens.Screen, screens.GridScreen, screens.AtomScreen, screens.DensityScreen):
        for q in SCREEN_QUERIES:
            if q in cls.__dict__:
                wrap_attr(cls, q, f"screens.{cls.__name__}.{q}")
    wrap_attr(graphs.BoundaryGraph, "__init__", "graphs.BoundaryGraph.init")
    wrap_attr(graphs.BoundaryGraph, "dist", "graphs.dist")
    wrap_attr(graphs.BoundaryGraph, "rho", "graphs.rho")
    wrap_attr(spectral.RadialProblem, "from_csv", "spectral.RadialProblem.from_csv")
    wrap_attr(models.RadialDensity, "screen", "models.RadialDensity.screen")
    return originals
