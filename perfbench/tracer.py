"""Call wrappers that observe futuretube from outside its source.

`from .x import f` copies a binding, so a function is replaced in every
futuretube module namespace that holds it, not only where it is defined.
Calls made through a module global (including `saturation_probe`'s
call-time import of `orbit_minimize`) then reach the wrapper.

Two wrappers live here:

* `WorkCounters` counts solver calls, iterations, unconverged solves and
  saturation witnesses.  It is installed in every pass, timed or not: it
  adds one Python call per solve and lets each pass prove it did the same
  work as the others.
* `Tracer` records one span per call of every public function of the
  layer modules.  It is installed only in the traced passes.
"""

import functools
import inspect
import sys
import time
from array import array

LAYERS = ("geometry", "actions", "psh", "reduction", "quotient", "boundary", "suites", "serialize")

COUNTER_NAMES = (
    "solves",
    "reduction.orbit_minimize.calls",
    "reduction.orbit_minimize.iterations",
    "reduction.orbit_minimize.unconverged",
    "quotient.kempf_ness_minimize.calls",
    "quotient.kempf_ness_minimize.iterations",
    "quotient.saturation_probe.calls",
    "quotient.saturation_probe.margin_search",
)


def _namespaces():
    return [m for name, m in sorted(sys.modules.items()) if name == "futuretube" or name.startswith("futuretube.")]


def _rebind(replace):
    """Swap every binding of each key of `replace` for its value.

    Returns the undo list for `_restore`.
    """
    undo = []
    for mod in _namespaces():
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in replace:
                setattr(mod, attr, replace[value])
                undo.append((mod, attr, value))
    return undo


def _restore(undo):
    for mod, attr, value in reversed(undo):
        setattr(mod, attr, value)


class WorkCounters:
    """Deterministic work done by the solvers, per pass."""

    def __init__(self):
        self.counts = dict.fromkeys(COUNTER_NAMES, 0)

    def reset(self):
        for key in self.counts:
            self.counts[key] = 0

    def install(self, ft):
        c = self.counts
        orbit_minimize = ft.reduction.orbit_minimize
        kempf_ness_minimize = ft.quotient.kempf_ness_minimize
        saturation_probe = ft.quotient.saturation_probe

        @functools.wraps(orbit_minimize)
        def counted_orbit_minimize(*args, **kwargs):
            r = orbit_minimize(*args, **kwargs)
            c["solves"] += 1
            c["reduction.orbit_minimize.calls"] += 1
            c["reduction.orbit_minimize.iterations"] += r.iterations
            c["reduction.orbit_minimize.unconverged"] += not r.converged
            return r

        @functools.wraps(kempf_ness_minimize)
        def counted_kempf_ness_minimize(*args, **kwargs):
            r = kempf_ness_minimize(*args, **kwargs)
            c["solves"] += 1
            c["quotient.kempf_ness_minimize.calls"] += 1
            c["quotient.kempf_ness_minimize.iterations"] += r.iterations
            return r

        @functools.wraps(saturation_probe)
        def counted_saturation_probe(*args, **kwargs):
            r = saturation_probe(*args, **kwargs)
            c["quotient.saturation_probe.calls"] += 1
            c["quotient.saturation_probe.margin_search"] += r.witness_kind == "margin_search"
            return r

        _rebind(
            {
                orbit_minimize: counted_orbit_minimize,
                kempf_ness_minimize: counted_kempf_ness_minimize,
                saturation_probe: counted_saturation_probe,
            }
        )


class Tracer:
    """Spans for every call of a public layer function.

    A span holds its name, start, end, the index of its parent span and
    the id of the pass it belongs to.  Spans stay in memory for one pass;
    `pass_summary` folds them into per-function and per-layer totals.
    """

    def __init__(self):
        self.names = []  # span function ids index this
        self._replace = {}  # original function -> its traced wrapper
        self._undo = []
        # one entry per span; the wrappers hold references to these
        # arrays, which are emptied in place at each pass, never replaced
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_pass = array("i")
        self._stack = []
        self._pass = -1

    def _wrap(self, fn, fn_id):
        span_fn, parent, start, end, span_pass, stack = (
            self.span_fn,
            self.span_parent,
            self.span_start,
            self.span_end,
            self.span_pass,
            self._stack,
        )
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(span_fn)
            span_fn.append(fn_id)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            span_pass.append(tracer._pass)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1

        return functools.update_wrapper(traced, fn)

    def install(self):
        if not self._replace:
            targets = {}
            for mod in _namespaces():
                for attr, value in vars(mod).items():
                    if not inspect.isfunction(value) or attr.startswith("_"):
                        continue
                    layer = value.__module__.rpartition(".")[2]
                    if value.__module__.startswith("futuretube.") and layer in LAYERS:
                        targets.setdefault(value, f"{layer}.{value.__name__}")
            for fn, qualname in sorted(targets.items(), key=lambda kv: kv[1]):
                self.names.append(qualname)
                self._replace[fn] = self._wrap(fn, len(self.names) - 1)
        self._undo = _rebind(self._replace)

    def uninstall(self):
        _restore(self._undo)
        self._undo = []

    def begin_pass(self, pass_id):
        """Open the root span of a pass; every call below it is its child.
        Spans of the previous pass are dropped."""
        for arr in (self.span_fn, self.span_parent, self.span_start, self.span_end, self.span_pass):
            del arr[:]
        del self._stack[:]
        self._pass = pass_id
        self.span_fn.append(-1)
        self.span_parent.append(-1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.span_pass.append(pass_id)
        self._stack.append(0)

    def end_pass(self):
        self.span_end[0] = time.perf_counter()
        self._stack.pop()

    def pass_summary(self):
        """Per-function calls, inclusive and self seconds, and per-layer
        self seconds for the pass just ended.  The root span's own self
        time is the harness's share of the pass."""
        n = len(self.span_fn)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(1, n):
            child[self.span_parent[i]] += dur[i]
        funcs = {}
        layers = dict.fromkeys(LAYERS, 0.0)
        for i in range(1, n):
            qual = self.names[self.span_fn[i]]
            self_s = dur[i] - child[i]
            f = funcs.get(qual)
            if f is None:
                f = funcs[qual] = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            f["calls"] += 1
            f["total_s"] += dur[i]
            f["self_s"] += self_s
            f["durations"].append(dur[i])
            layers[qual.partition(".")[0]] += self_s
        return {
            "pass_s": dur[0],
            "harness_self_s": dur[0] - child[0],
            "spans": n,
            "functions": funcs,
            "layer_self_s": layers,
        }
