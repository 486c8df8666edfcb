"""Tracing of the reflexo modules, installed from outside the program.

The tracer replaces each public top-level function of a layer module with a
wrapper that times each call as a span inside its enclosing span and folds
it into per-function aggregates: call count, inclusive time and self time.  The
wrapper is installed in every ``reflexo.*`` namespace that binds the same
function object, so calls made through ``from .x import f`` are seen too.
Nothing inside the program is changed on disk; ``uninstall`` restores every
binding.

Self time is a span's duration minus the time covered by its child spans.
Inclusive time counts only the outermost active frame of a function, so
recursion is not counted twice.  Span durations are the calling thread's
CPU time: ``table2`` runs its rows on a thread pool whose threads take turns
on the interpreter lock, and wall-clock spans would count each thread's wait
for the others as its own work.  Span stacks are kept per thread; the
aggregates are merged under a lock.
"""

from __future__ import annotations

import inspect
import sys
import threading
from time import thread_time

LAYERS = ("polygon", "mutation", "laurent", "algebra", "fibration",
          "mordell_weil", "period", "cli")


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # qual -> [calls, incl_s, self_s]
        self.observers: dict[str, callable] = {}
        self.originals: dict[str, object] = {}
        self._bindings: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.enabled = False

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function defined in each layer module and
        rebind it wherever a reflexo module refers to it."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"reflexo.{layer}")
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = f"{layer}.{name}"
                self.originals[qual] = obj
                self.stats[qual] = [0, 0.0, 0.0]
                wrappers[id(obj)] = self._wrap(qual, obj)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "reflexo"
                                   or modname.startswith("reflexo.")):
                continue
            for name, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._bindings.append((mod, name, obj))
                    setattr(mod, name, w)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._bindings):
            setattr(mod, name, obj)
        self._bindings.clear()

    def has(self, qual: str) -> bool:
        return qual in self.originals

    # -- recording --------------------------------------------------------

    def _wrap(self, qual: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.active = {}
            active = local.active
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            active[qual] = active.get(qual, 0) + 1
            t0 = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = thread_time() - t0
                stack.pop()
                active[qual] -= 1
                if stack:
                    stack[-1][0] += dur
                outermost = active[qual] == 0
                with tracer._lock:
                    s = tracer.stats[qual]
                    s[0] += 1
                    if outermost:
                        s[1] += dur
                    s[2] += dur - frame[0]
            observe = tracer.observers.get(qual)
            if observe is not None:
                observe(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper
