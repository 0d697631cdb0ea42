"""Per-layer tracing from outside the program.

``Tracer.install()`` replaces every public function of each gkzeuler module
with a timing wrapper, in its defining module and in every other gkzeuler
module namespace that holds the same object (``cli.verify_case``,
``series.make_simplex``, the package ``__init__`` and so on), so calls
through any of those names are seen.  Private helpers are not wrapped: their
time counts toward the public caller's self time.  Generator functions are
not wrapped either, since a wrapper would time only the creation of the
generator.

Each call records a span (name, start, end, parent span, request id) in
flat arrays that are written out at the end.  A layer's self time is the
duration of its spans minus the time of wrapped calls made from inside them;
the self times of all layers add up to the time spent inside the outermost
wrapped call.
"""

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "intersection", "series", "triangulation", "intlinalg",
          "config", "specfun")

# triangulate's rejections: liftings the fan-scan throws away
_REJECTED = ("DegenerateLifting", "NotATriangulation")


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.request = -1
        self.tag = ""
        self._stack = []          # [span index, time in wrapped children]
        self.self_s = {}          # (tag, layer) -> seconds
        self.calls = {}           # qualified function name -> calls
        self.counts = {}          # named counters
        self._wrappers = None     # id(original function) -> wrapper
        self._originals = []      # (namespace, attribute, original object)

    # -- installation -----------------------------------------------------

    def install(self):
        if self._wrappers is None:
            self._wrappers = {}
            for layer in LAYERS:
                mod = sys.modules[f"gkzeuler.{layer}"]
                for attr, obj in vars(mod).items():
                    if (attr.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != mod.__name__
                            or inspect.isgeneratorfunction(obj)):
                        continue
                    self._wrappers[id(obj)] = self._wrap(
                        layer, f"{layer}.{attr}", obj)
        for name in sorted(sys.modules):
            if name != "gkzeuler" and not name.startswith("gkzeuler."):
                continue
            mod = sys.modules[name]
            for attr, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, obj in reversed(self._originals):
            setattr(mod, attr, obj)
        self._originals.clear()

    def _wrap(self, layer, qualname, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        self.calls[qualname] = 0
        stack = self._stack
        span_name, span_start, span_end = \
            self.span_name, self.span_start, self.span_end
        span_parent, span_request = self.span_parent, self.span_request
        observe = _OBSERVERS.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_request.append(self.request)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            span_start.append(start)
            raised = None
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                raised = exc
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span_end[index] = end
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                key = (self.tag, layer)
                self.self_s[key] = self.self_s.get(key, 0.0) \
                    + duration - frame[1]
                self.calls[qualname] += 1
                if observe is not None:
                    observe(self, fn, args, kwargs,
                            None if raised is not None else result, raised)
            return result

        return wrapper

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    # -- results ----------------------------------------------------------

    def layer_self_s(self, tag=None):
        out = dict.fromkeys(LAYERS, 0.0)
        for (t, layer), s in self.self_s.items():
            if tag is None or t == tag:
                out[layer] += s
        return out

    def layer_calls(self):
        out = dict.fromkeys(LAYERS, 0)
        for qualname, n in self.calls.items():
            out[qualname.split(".", 1)[0]] += n
        return out

    def tags(self):
        return sorted({t for t, _ in self.self_s})

    def write_spans(self, path):
        """Spans as a compressed numpy archive: names[name] is the function
        of each span; parent is an index into the same arrays or -1."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            request=np.frombuffer(self.span_request, dtype=np.int32))


# -- counters observed at the layer boundaries ------------------------------

def _series_value(tracer, fn, args, kwargs, result, raised):
    if result is not None:
        tracer.count("series.values")
        tracer.count("series.terms", result.terms_summed)
        tracer.count("series.untrusted", 0 if result.trusted else 1)


def _triangulate(tracer, fn, args, kwargs, result, raised):
    if raised is not None and type(raised).__name__ in _REJECTED:
        tracer.count("triangulation.triangulate.rejected")


def _fan_scan(tracer, fn, args, kwargs, result, raised):
    if result is not None:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.count("triangulation.liftings", bound.arguments["samples"])
        tracer.count("triangulation.distinct", len(result))


_OBSERVERS = {
    "series.gamma_series": _series_value,
    "series.dual_gamma_series": _series_value,
    "triangulation.triangulate": _triangulate,
    "triangulation.enumerate_regular_triangulations": _fan_scan,
}
