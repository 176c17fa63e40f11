"""Out-of-program span tracer for the seven cone_forge layers.

`Tracer.install()` replaces, in every cone_forge module, each attribute that
is a function listed in the ``__all__`` of the module defining it with a
timing wrapper.  Names other modules bind at import time (``edge.bessel_k``,
``cli.load_spectrum``) are replaced too, so nested and intra-module calls,
which resolve through module globals, each get a span.  The layer of a span
is the module that defines the function.  `Tracer.uninstall()` puts the
originals back.

A span is ``(id, parent_id, layer, name, item, start, dur, self, attrs)``;
self time is the duration minus the time of wrapped children.  Spans stay in
memory until the caller writes them out.

Run as a script, this module is the traced form of the ``cone-forge``
command: ``python3 tracer.py SPANS_FILE ARGS...`` installs the tracer, runs
the command line, and pickles the spans to SPANS_FILE when the command exits.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pickle
import sys
from time import perf_counter

import numpy as np

LAYERS = ("g2", "bessel", "stenzel", "spectra", "edge", "lattice", "cli")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _points(args, kwargs):
    x = np.asarray(_arg(args, kwargs, 1, "x"), dtype=float)
    return {"points": int(x.size), "small": int(np.count_nonzero(x < 0.1))}


def _problem(args, kwargs):
    p = _arg(args, kwargs, 0, "problem")
    return {"N": len(p.grid), "key": (len(p.grid), float(p.grid[0]),
                                      float(p.grid[-1]), p.n, p.mu)}


def _profile(args, kwargs):
    return {"n": _arg(args, kwargs, 0, "n"), "steps": _arg(args, kwargs, 2, "steps")}


def _search(args, kwargs):
    return {"square": _arg(args, kwargs, 1, "square"),
            "ndots": len(_arg(args, kwargs, 2, "dot_constraints")),
            "bound": _arg(args, kwargs, 3, "bound")}


# counts recorded at the boundary of these functions, as span attributes
HOOKS = {
    ("bessel", "bessel_k"): _points,
    ("bessel", "bessel_i"): _points,
    ("edge", "solve_mode"): _problem,
    ("edge", "split_solution"): _problem,
    ("edge", "coefficient_bound_check"): _problem,
    ("stenzel", "solve_profile"): _profile,
    ("lattice", "constrained_class_search"): _search,
}
# functions returning a potential u(z); u itself is traced as "potential"
POTENTIAL_FACTORIES = {("stenzel", "cone_potential_fn"),
                       ("stenzel", "stenzel_potential_fn")}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.item = None
        self._stack: list[list] = []
        self._next_id = 0
        self._bindings: list[tuple] = []  # (module, attribute, original, wrapper)

    def wrap(self, layer: str, name: str, fn):
        hook = HOOKS.get((layer, name))
        factory = (layer, name) in POTENTIAL_FACTORIES

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = hook(args, kwargs) if hook else None
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            frame = [sid, 0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                self.spans.append((sid, parent, layer, name, self.item, start,
                                   dur, dur - frame[1], attrs))
            return self.wrap("stenzel", "potential", out) if factory else out

        return traced

    def install(self) -> None:
        if not self._bindings:
            modules = {layer: importlib.import_module(f"cone_forge.{layer}")
                       for layer in LAYERS}
            wrapped = {}
            for mod in modules.values():
                for attr, obj in list(vars(mod).items()):
                    if not inspect.isfunction(obj):
                        continue
                    layer = obj.__module__.rpartition(".")[2]
                    home = modules.get(layer)
                    if home is None or obj.__name__ not in home.__all__:
                        continue
                    if id(obj) not in wrapped:
                        wrapped[id(obj)] = self.wrap(layer, obj.__name__, obj)
                    self._bindings.append((mod, attr, obj, wrapped[id(obj)]))
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)


def _traced_cli(spans_path: str, argv: list[str]) -> None:
    from cone_forge import cli

    tracer = Tracer()
    tracer.install()
    sys.argv = ["cone-forge", *argv]
    try:
        cli.main()
    finally:
        with open(spans_path, "wb") as fh:
            pickle.dump(tracer.spans, fh)


if __name__ == "__main__":
    _traced_cli(sys.argv[1], sys.argv[2:])
