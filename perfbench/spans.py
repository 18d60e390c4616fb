"""In-memory span tracing installed from outside the program.

`instrument(tracer)` replaces every public function of the skewrel layer
modules with a wrapper at its module attribute, plus the two ways of
constructing a `DensityMatrix`, and restores the originals on exit.  The
library calls these functions through module attributes or module
globals, which are the same dictionary.  A name bound by `from .linalg
import require_hermitian` is a global of the importing module that holds
the same function, so it is rebound to the same wrapper, and its time is
charged to the layer that defines it.  No source file changes.

A span is recorded only while an operation root is open, so the
benchmark's own output checks stay out of the trace.  Spans of one
operation are folded into per-(name, key) aggregates when the operation
ends: memory stays bounded however long the run is.  Self time is a
span's duration minus the union of its children's intervals; children
started on a worker thread (search's thread pool) are parented to the
innermost open span of the thread that opened the operation.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("ensembles", "linalg", "quantities", "relations", "search", "serialize", "cli")
ROOT = "bench.op"
STATE = "quantities.state"
REFINE = "search.refine_witness"

# Record layout: [name, key, units, parent, t0, t1, under_refine]
_NAME, _KEY, _UNITS, _PARENT, _T0, _T1, _IN_REFINE = range(7)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _dim_info(args, kwargs):
    return args[0].dim, 1


def _eig_info(args, kwargs):
    return len(_arg(args, kwargs, 0, "m")), 1


def _workers_info(args, kwargs):
    workers = args[1] if len(args) > 1 else kwargs.get("workers", 1)
    return workers, _arg(args, kwargs, 0, "task").samples


def _refine_info(args, kwargs):
    return None, _arg(args, kwargs, 2, "steps")


# Functions whose spans carry a key (dimension or worker count) and a unit
# count (samples or refine steps) read from their arguments.
_INFO = {
    "ensembles.random_density": _dim_info,
    "linalg.hermitian_eig": _eig_info,
    "quantities.full_report": _dim_info,
    "search.evaluate_all": _workers_info,
    "search.refine_witness": _refine_info,
}


class Tracer:
    """Collects spans of the open operation and folds them into totals."""

    def __init__(self):
        self._local = threading.local()
        self.root = None
        self._root_stack = None
        self._spans = []
        # (name, key) -> [calls, inclusive seconds, self seconds, units]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # exact per-pass counts, taken from the operations of pass 0 only
        self.counted_ops = 0
        self.counts = defaultdict(int)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        info = _INFO.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.root is None:
                return fn(*args, **kwargs)
            key, units = None, 1
            if info is not None:
                try:
                    key, units = info(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root_stack[-1]
            rec = [name, key, units, parent, 0.0, 0.0, parent[_IN_REFINE] or name == REFINE]
            tracer._spans.append(rec)
            stack.append(rec)
            rec[_T0] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[_T1] = perf_counter()
                stack.pop()

        return traced

    def run_op(self, fn, count):
        """Run one operation under a root span; fold its spans afterwards."""
        root = [ROOT, None, 1, None, 0.0, 0.0, False]
        stack = self._stack()
        stack.append(root)
        self._root_stack = stack
        self.root = root
        root[_T0] = perf_counter()
        try:
            return fn()
        finally:
            root[_T1] = perf_counter()
            self.root = None
            stack.pop()
            self._fold(root, count)

    def _fold(self, root, count):
        spans, self._spans = self._spans, []
        children = defaultdict(list)
        for rec in spans:
            children[id(rec[_PARENT])].append((rec[_T0], rec[_T1]))
        for rec in [root, *spans]:
            duration = rec[_T1] - rec[_T0]
            total = self.totals[(rec[_NAME], rec[_KEY])]
            total[0] += 1
            total[1] += duration
            total[2] += duration - _covered(children.get(id(rec), ()))
            total[3] += rec[_UNITS]
        if count:
            self.counted_ops += 1
            for rec in spans:
                self.counts[rec[_NAME]] += 1
                if rec[_NAME] == REFINE:
                    self.counts["refine_steps"] += rec[_UNITS]
                elif rec[_IN_REFINE] and rec[_NAME] == "linalg.hermitian_eig":
                    self.counts["refine_eig"] += 1


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    covered = 0.0
    end = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= end:
            continue
        covered += t1 - max(t0, end)
        end = t1
    return covered


@contextlib.contextmanager
def instrument(tracer, modules, density_matrix):
    """Wrap every public function of each module; restore them on exit."""
    saved = []
    try:
        wrappers = {}   # id(original function) -> its wrapper
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[-1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                saved.append((mod, attr, fn))
                wrappers[id(fn)] = tracer.wrap(f"{layer}.{attr}", fn)
                setattr(mod, attr, wrappers[id(fn)])
        # the same functions bound under other modules' globals
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and id(fn) in wrappers:
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[id(fn)])
        init = density_matrix.__dict__["__init__"]
        from_spectral = density_matrix.__dict__["from_spectral"]
        saved.append((density_matrix, "__init__", init))
        saved.append((density_matrix, "from_spectral", from_spectral))
        density_matrix.__init__ = tracer.wrap(STATE, init)
        density_matrix.from_spectral = classmethod(tracer.wrap(STATE, from_spectral.__func__))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
