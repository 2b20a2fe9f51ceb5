"""Run one ``interlacement`` CLI job with every layer's public functions traced.

Usage: python3 layertrace.py STATS.json -- ARGV...

The package must be importable (``PYTHONPATH`` pointing at ``src/``).  The
tracer wraps each public function of the layer modules at every place it is
looked up: in its own module, in every ``interlacement`` module that imported
it by name, and in the package namespace.  It then calls
``interlacement.cli.main(ARGV)``, so the job prints exactly what the CLI
prints, and writes the counts and times to STATS.json when the job ends.

Per function and per layer it keeps calls, busy time (outermost calls only,
so recursion or nesting inside the layer is not counted twice), self time
(time not covered by wrapped calls it made) and exceptions that propagated.
The job's root call and the calls it makes directly also get a span each;
deeper crossings are only aggregated, because a verify job makes hundreds of
thousands of them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "graph4", "euler", "interlace", "gf2", "profile", "verify")
# a generator does its work after the call returns, so a wrapper would time
# nothing; it is also the most frequent call in a verify sweep
UNTRACED = {"gf2.iter_bits"}
SPAN_DEPTH = 2


class Tracer:
    def __init__(self):
        self.functions = {}  # key -> [calls, busy_s, self_s, errors]
        self.layers = {name: [0, 0.0, 0.0, 0] for name in LAYERS}
        self.caches = {}  # key -> lru_cache-wrapped original
        self.spans = []
        self.orbit = {"new": 0, "attempted": 0}
        self._active = Counter()  # layer or function key -> open calls
        self._stack = []  # per open call: [time spent in wrapped children]
        self._span_ids = []

    def wrap(self, layer, key, fn):
        fstat = self.functions.setdefault(key, [0, 0.0, 0.0, 0])
        lstat = self.layers[layer]
        active = self._active
        stack = self._stack
        name = key.split(".", 1)[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            outer_fn = active[key] == 0
            outer_layer = active[layer] == 0
            active[key] += 1
            active[layer] += 1
            frame = [0.0]
            stack.append(frame)
            span = None
            if len(stack) <= SPAN_DEPTH:
                span = self._open_span(layer, name)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                fstat[3] += 1
                if outer_layer:
                    lstat[3] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[key] -= 1
                active[layer] -= 1
                if stack:
                    stack[-1][0] += dt
                own = dt - frame[0]
                fstat[0] += 1
                fstat[2] += own
                lstat[2] += own
                if outer_fn:
                    fstat[1] += dt
                if outer_layer:
                    lstat[0] += 1
                    lstat[1] += dt
                if span is not None:
                    self._close_span(span, t0, dt)

        return traced

    def _open_span(self, layer, name):
        span = {
            "id": len(self.spans),
            "parent": self._span_ids[-1] if self._span_ids else None,
            "layer": layer,
            "function": name,
        }
        self.spans.append(span)
        self._span_ids.append(span["id"])
        return span

    def _close_span(self, span, t0, dt):
        self._span_ids.pop()
        span["start_s"] = t0
        span["dur_s"] = dt

    def count_orbit(self, fn):
        """Around ``kotzig_orbit``: new systems found vs transforms tried."""
        kappa = self.functions.setdefault("euler.kappa_transform", [0, 0.0, 0.0, 0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            before = kappa[0]
            orbit = fn(*args, **kwargs)
            self.orbit["new"] += len(orbit) - 1
            self.orbit["attempted"] += kappa[0] - before
            return orbit

        return counted

    def stats(self):
        caches = {}
        for key, fn in self.caches.items():
            info = fn.cache_info()
            caches[key] = {"hits": info.hits, "misses": info.misses}
        return {
            "functions": self.functions,
            "layers": self.layers,
            "caches": caches,
            "orbit": self.orbit,
            "spans": self.spans,
        }


def _public_functions(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
            yield name, obj


def install(tracer):
    """Wrap every public layer function wherever an ``interlacement``
    module holds a reference to it by name."""
    replacement = {}
    for layer in LAYERS:
        module = importlib.import_module(f"interlacement.{layer}")
        for name, fn in _public_functions(module):
            key = f"{layer}.{name}"
            if key in UNTRACED:
                continue
            if hasattr(fn, "cache_info"):
                tracer.caches[key] = fn
            inner = tracer.count_orbit(fn) if key == "euler.kotzig_orbit" else fn
            replacement[id(fn)] = tracer.wrap(layer, key, inner)
    modules = [
        m for n, m in sys.modules.items()
        if n == "interlacement" or n.startswith("interlacement.")
    ]
    for module in modules:
        for name, obj in list(vars(module).items()):
            wrapped = replacement.get(id(obj))
            if wrapped is not None:
                setattr(module, name, wrapped)


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: layertrace.py STATS.json -- ARGV...", file=sys.stderr)
        return 1
    stats_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["interlacement.cli"]
    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(stats_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.stats(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
