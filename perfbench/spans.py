"""In-memory span tracer for the viscotv package, installed from outside it.

Every public function of a package module is wrapped under the name its
callers look up: ``viscotv.solver.primal_energy``, ``viscotv.dual.primal_energy``
and ``viscotv.energy.primal_energy`` each get their own wrapper, so a span
records both the function (``energy.primal_energy``) and the module whose
global it was called through (its *site*).  The package source is untouched;
``install`` swaps module attributes and ``uninstall`` restores them.

A span is one row of parallel arrays: function id, parent span, op id,
start, end and computed bytes.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

# Bytes a kernel must read and write at minimum, computed from array shapes
# (float64): gradient reads u and writes a field twice its size; divergence
# reads p and writes an image half its size.  Cache misses are not counted.
_BYTE_MODELS = {
    "grid.gradient": lambda args: 3.0 * np.asarray(args[0]).nbytes,
    "grid.divergence": lambda args: 1.5 * np.asarray(args[0]).nbytes,
}


class Tracer:
    """Wraps the public functions of ``modules`` (layer name -> module)."""

    OP = "bench.op"

    def __init__(self, modules):
        self.names = [(self.OP, "bench")]  # (function, site) per id
        self.func = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("d")
        self.inner_results = []  # (op id, iterations, cap hit, accepted steps)
        self._stack = [-1]
        self._op_id = -1
        self._patches = []
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        for site, mod in modules.items():
            for attr, value in sorted(vars(mod).items()):
                if (
                    isinstance(value, types.FunctionType)
                    and not value.__name__.startswith("_")
                    and value.__module__ in layer_of
                ):
                    fname = f"{layer_of[value.__module__]}.{value.__name__}"
                    sid = len(self.names)
                    self.names.append((fname, site))
                    self._patches.append((mod, attr, value, self._wrap(value, sid, fname)))

    def _wrap(self, fn, sid, fname):
        func, parent, op, start, end, nbytes = (
            self.func, self.parent, self.op, self.start, self.end, self.nbytes
        )
        stack = self._stack
        clock = time.perf_counter
        measure = _BYTE_MODELS.get(fname)
        observe = self._observe_inner if fname == "solver.minimize_smooth" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(func)
            func.append(sid)
            parent.append(stack[-1])
            op.append(self._op_id)
            start.append(0.0)
            end.append(0.0)
            nbytes.append(measure(args) if measure else 0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if observe:
                observe(args, kwargs, result)
            return result

        return traced

    def _observe_inner(self, args, kwargs, result):
        cfg = kwargs["cfg"] if "cfg" in kwargs else args[5]
        cap_hit = (not result.converged) and result.iterations == cfg.inner_max_iters
        accepted = len(result.energy_history) - 1
        self.inner_results.append((self._op_id, result.iterations, cap_hit, accepted))

    def install(self):
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)

    @contextmanager
    def traced_op(self, op_id):
        """Root span for one op; the package is wrapped only inside it."""
        self._op_id = op_id
        i = len(self.func)
        for column, value in ((self.func, 0), (self.parent, -1), (self.op, op_id)):
            column.append(value)
        for column in (self.start, self.end, self.nbytes):
            column.append(0.0)
        self._stack.append(i)
        self.install()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self.start[i] = t0
            self.uninstall()
            self._stack.pop()
            self._op_id = -1

    def spans(self):
        """All spans as numpy columns, with duration and self time added."""
        cols = {
            "func": np.frombuffer(self.func, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=float).copy(),
            "end": np.frombuffer(self.end, dtype=float).copy(),
            "nbytes": np.frombuffer(self.nbytes, dtype=float).copy(),
        }
        dur = cols["end"] - cols["start"]
        has_parent = cols["parent"] >= 0
        children = np.bincount(
            cols["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
        )
        cols["dur"] = dur
        cols["self"] = dur - children
        return cols

    def write(self, path):
        """Write every span and the id -> (function, site) table to ``path``."""
        cols = self.spans()
        names = np.array([f"{fname}@{site}" for fname, site in self.names])
        np.savez(path, names=names, **cols)
