"""Span tracing of the program's layers, from outside the program.

`Tracer.install` wraps every public function and every public method of
the modules named in LAYERS, rebinding each function wherever a drexel
module imported it; `Tracer.uninstall` puts the originals back.  A call
opens a span (name, start, parent); when it ends, its duration is added to
the parent's child time and the span folds into per-name totals: calls,
inclusive time, self time (duration minus the time its child spans cover)
and calls made while `run_sampler` is running.
Folding spans as they close keeps memory flat however long a run is.

Nothing under src/ changes: the wrappers live here and are installed only
for the traced rounds of a traced run.
"""

import importlib
import inspect
from time import perf_counter

LAYERS = ("config", "domains", "energies", "sampler", "oracle", "metrics", "harness", "rbm", "cli")
SAMPLER_ROOT = "sampler.run_sampler"


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, inclusive_s, self_s, calls_inside_run_sampler]
        self.stack = []  # child time of each open span
        self.active = False
        self.in_sampler = False
        self.replaced = []  # (owner, attribute, original) for uninstall

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self.stack
        tracer = self
        root = name == SAMPLER_ROOT

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            if root:
                tracer.in_sampler = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if root:
                    tracer.in_sampler = False
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[0]
                if tracer.in_sampler:
                    stats[3] += 1

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self):
        """Wrap the public API of every layer."""
        modules = {layer: importlib.import_module(f"drexel.{layer}") for layer in LAYERS}
        modules["drexel"] = importlib.import_module("drexel")
        replaced = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        # rebind each wrapped function in every module that imported it by name
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._replace(mod, attr, hit[1])

    def uninstall(self):
        """Put every original callable back; the totals are kept."""
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()

    def _replace(self, owner, attr, new):
        self.replaced.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _wrap_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(obj, staticmethod):
                self._replace(cls, attr, staticmethod(self._wrap(name, obj.__func__)))
            elif inspect.isfunction(obj):
                self._replace(cls, attr, self._wrap(name, obj))

    # ------------------------------------------------------------ queries

    def _select(self, layer, suffixes=None, exclude=()):
        for name, st in self.stats.items():
            if not name.startswith(layer + ".") or name in exclude:
                continue
            if suffixes is None or name.rsplit(".", 1)[1] in suffixes:
                yield name, st

    def inclusive(self, *names):
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_time(self, *names):
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def calls(self, *names):
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def layer_inclusive(self, layer, suffixes):
        return sum(st[1] for _, st in self._select(layer, suffixes))

    def layer_self(self, layer, exclude=()):
        return sum(st[2] for _, st in self._select(layer, None, exclude))

    def sampler_calls(self, layer, suffixes):
        """Calls made while run_sampler was running, by method or function name."""
        return sum(st[3] for _, st in self._select(layer, suffixes))
