"""Call-boundary instrumentation installed from outside the package.

`Patch` rebinds attributes and restores them. `bindings` finds every name
under which a module holds a given callable, so a wrapper can replace each
one in the module that calls it. `Tracer` aggregates spans: per span name a
call count and inclusive seconds, per layer the self seconds (a span's
duration minus the spans it called). Hooks run outside the timed interval
and their time is charged to no layer. `StepClock` and `CallClock` are the
light probes the untraced run uses for latency percentiles.
"""

import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter


class Patch:
    """Attribute rebinding that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, name, value) -> None:
        self._saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def package_modules(package: str) -> list:
    prefix = package + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == package or name.startswith(prefix))]


def bindings(fn, modules) -> list:
    """(module, name) pairs whose module attribute is `fn` itself."""
    return [(m, name) for m in modules for name, obj in vars(m).items() if obj is fn]


class Tracer:
    """Aggregated spans: calls and inclusive time per name, self time per layer."""

    def __init__(self):
        self.calls = Counter()
        self.inclusive = defaultdict(float)
        self.self_s = defaultdict(float)
        self._stack = []

    def wrap(self, fn, span: str, layer: str, before=None, after=None):
        """A stand-in for `fn` that records one span per call.

        before(arguments) and after(arguments, result) receive the call's
        bound arguments by parameter name.
        """
        stack = self._stack
        calls, inclusive, self_s = self.calls, self.inclusive, self.self_s
        sig = inspect.signature(fn) if (before or after) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = perf_counter()
            bound = sig.bind(*args, **kwargs).arguments if sig is not None else None
            if before is not None:
                before(bound)
            child = [0.0]
            stack.append(child)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                calls[span] += 1
                inclusive[span] += t1 - t0
                self_s[layer] += t1 - t0 - child[0]
                if stack:
                    stack[-1][0] += t1 - start
            if after is not None:
                a0 = perf_counter()
                after(bound, result)
                if stack:
                    stack[-1][0] += perf_counter() - a0
            return result

        return traced


class StepClock:
    """Latency of each optimizer step: the time from the previous step's end
    (or from `mark`) to the end of this one's parameter update."""

    def __init__(self):
        self.latencies = []
        self._last = None

    def mark(self) -> None:
        self._last = perf_counter()

    def install(self, patch: Patch, cls, method: str = "step") -> None:
        inner = getattr(cls, method)

        @functools.wraps(inner)
        def timed(*args, **kwargs):
            out = inner(*args, **kwargs)
            now = perf_counter()
            self.latencies.append(now - self._last)
            self._last = now
            return out

        patch.set(cls, method, timed)


class CallClock:
    """Durations of the outermost calls made through the given bindings."""

    def __init__(self):
        self.durations = []
        self._depth = 0

    def install(self, patch: Patch, module, names) -> None:
        for name in names:
            patch.set(module, name, self._timed(getattr(module, name)))

    def _timed(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self._depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0:
                    self.durations.append(perf_counter() - t0)

        return timed
