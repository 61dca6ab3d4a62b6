"""Spans around the calls into each sospgrid module, recorded from outside.

The tracer replaces the public functions and methods listed in LAYER_CALLS
with timing wrappers between install() and uninstall() (or for the life of
a ``with Tracer():`` block) and then puts the originals back.  A function that another module imported by name
(``hard_instance.patch_from_corners``, ``snap_solver.verify_sosp``, ...) is
replaced there too, so every call path is seen.  The program itself is not
modified on disk.

A span is (name, start, end, parent).  Spans stay in memory; the benchmark
writes them out once, at the end of the run.  The layer of a span is its first name
component, which is the module name; benchmark spans use the layer "bench".
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (module, attribute) pairs; "Class.method" attributes wrap the method on
# the class.  Span name: "<module>.<function>".
LAYER_CALLS = (
    ("iter_problems", "iter_is_solution"),
    ("color_field", "node_sets"),
    ("color_field", "ColorField.assignment"),
    ("biquintic", "patch_from_corners"),
    ("biquintic", "BoxPatch.eval"),
    ("hard_instance", "HardInstance.evaluate"),
    ("hard_instance", "HardInstance.patch"),
    ("hard_instance", "HardInstance.decode_scaled"),
    ("stationarity", "verify_sosp"),
    ("stationarity", "proximal_gradient"),
    ("stationarity", "active_set"),
    ("stationarity", "projected_hessian_min_eig"),
    ("stationarity", "psd_on_tangent"),
    ("stationarity", "project"),
    ("snap_solver", "snap_run"),
    ("snap_solver", "line_search"),
    ("box_certifier", "classify_cell"),
    ("box_certifier", "classify_all"),
    ("box_certifier", "certify_cell"),
    ("box_certifier", "boundary_prox_check"),
    ("polytope_lattice", "map_to_grid"),
    ("localopt_reduction", "ReductionInstance.round_point"),
    ("localopt_reduction", "ReductionInstance.potential"),
    ("localopt_reduction", "ReductionInstance.improvement_check"),
)


def _eval_kind(args, kwargs) -> str:
    """BoxPatch.eval(self, x, y, exact=True): "exact" or "hp"."""
    exact = kwargs["exact"] if "exact" in kwargs else (args[3] if len(args) > 3 else True)
    return "exact" if exact else "hp"


# Spans whose name depends on the arguments: name -> (key function, keys);
# the span is named "<name>_<key>".
SPLIT_NAMES = {"biquintic.eval": (_eval_kind, ("exact", "hp"))}

# Counts read from a traced call's result: name -> (counter, function).
RESULT_COUNTS = {
    "polytope_lattice.map_to_grid": ("polytope_lattice.bounces",
                                     lambda result: result[1].bounce_count),
}

# Calls too cheap and too many for a span each (node_sets makes about
# 3 * 2^n oracle calls): these are only counted.
LAYER_COUNTS = (
    ("iter_problems", "IterInstance.C"),
)

LAYERS = tuple(dict.fromkeys(mod for mod, _ in LAYER_CALLS + LAYER_COUNTS))


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[int] = []  # indices into self.spans of open spans
        self._open: list[tuple[int, float, int]] = []  # (name id, start, parent)
        self._restore: list[tuple[object, str, object]] = []
        # Wrappers record only while active, so that the benchmark's own
        # checks, which call the same functions, leave no spans.
        self.active = False
        self.counts: Counter = Counter()
        # Span clock; run.py leaves out the time the reference samples of
        # refclock.Clock take.
        self.now = time.perf_counter

    # ---- recording -----------------------------------------------------

    def _name_id(self, name: str) -> int:
        got = self._name_ids.get(name)
        if got is None:
            got = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return got

    def _enter(self, nid: int) -> None:
        parent = self._stack[-1] if self._stack else -1
        # Reserve the span slot now so that children can name their parent.
        self.spans.append(None)
        self._stack.append(len(self.spans) - 1)
        self._open.append((nid, self.now(), parent))

    def _exit(self) -> None:
        end = self.now()
        nid, start, parent = self._open.pop()
        self.spans[self._stack.pop()] = (nid, start, end, parent)

    def span(self, name: str):
        """Context manager recording one benchmark-side span."""
        return _Span(self, self._name_id(name))

    # ---- installation --------------------------------------------------

    def _wrap(self, fn, name: str):
        split = SPLIT_NAMES.get(name)
        if split is not None:
            nids = {key: self._name_id(f"{name}_{key}") for key in split[1]}
        else:
            nid = self._name_id(name)
        tally = RESULT_COUNTS.get(name)
        enter, exit_, counts = self._enter, self._exit, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            enter(nids[split[0](args, kwargs)] if split is not None else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            if tally is not None:
                counts[tally[0]] += tally[1](result)
            return result

        return traced

    def _wrap_counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        modules = [importlib.import_module(f"sospgrid.{m}") for m in LAYERS]
        modules += [sys.modules["sospgrid"]]
        wrappers = ([(call, self._wrap) for call in LAYER_CALLS]
                    + [(call, self._wrap_counted) for call in LAYER_COUNTS])
        for (mod_name, attr), wrap in wrappers:
            mod = importlib.import_module(f"sospgrid.{mod_name}")
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, wrap(original, name))
                continue
            original = getattr(mod, attr)
            wrapped = wrap(original, name)
            # Replace every module-level alias, including names other
            # modules imported with "from ... import".
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        self._restore.append((other, key, original))
                        setattr(other, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- analysis ------------------------------------------------------

    def take(self):
        """(summary, counts, spans) recorded so far; starts a new recording."""
        if self._open:
            raise RuntimeError("trace taken with open spans")
        taken = (TraceSummary(self.names, self.spans), dict(self.counts), self.spans)
        self.spans = []
        self.counts.clear()  # cleared in place: the wrappers hold this Counter
        return taken


class _Span:
    __slots__ = ("tracer", "nid", "recording")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer, self.nid = tracer, nid

    def __enter__(self):
        self.recording = self.tracer.active
        if self.recording:
            self.tracer._enter(self.nid)

    def __exit__(self, *exc):
        if self.recording:
            self.tracer._exit()


class TraceSummary:
    """Per-name counts and times, per-layer self times, computed from spans.

    ``inclusive[name]`` counts each span once, skipping spans nested inside
    a span of the same name (the refinement recursion of certify_no_sosp,
    for instance), so it is wall time spent inside that function.
    """

    def __init__(self, names: list[str], spans: list[tuple]):
        self.names = names
        self.spans = spans
        self.calls: Counter = Counter()
        self.inclusive: Counter = Counter()
        self.self_time: Counter = Counter()  # per layer
        self.child_counts: Counter = Counter()  # (parent name, child name)
        child_time = [0.0] * len(spans)
        for nid, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (nid, start, end, parent) in enumerate(spans):
            name = names[nid]
            self.calls[name] += 1
            self.self_time[name.split(".")[0]] += (end - start) - child_time[i]
            if parent >= 0:
                self.child_counts[(names[spans[parent][0]], name)] += 1
            p = parent
            nested = False
            while p >= 0:
                if spans[p][0] == nid:
                    nested = True
                    break
                p = spans[p][3]
            if not nested:
                self.inclusive[name] += end - start

    def under(self, ancestor: str, name: str) -> int:
        """Number of `name` spans with an `ancestor` span above them."""
        count = 0
        for nid, _, _, parent in self.spans:
            if self.names[nid] != name:
                continue
            p = parent
            while p >= 0:
                if self.names[self.spans[p][0]] == ancestor:
                    count += 1
                    break
                p = self.spans[p][3]
        return count
