"""Span tracer installed from outside the package, for the per-layer split.

``Tracer.install`` replaces the public functions and methods of each
``nilg2`` module with timing wrappers, and also rebinds the copies that
``from .module import name`` placed in the other modules, so cross-module
calls are traced too.  Nothing under ``src/`` is edited.

Every wrapped call records a span (name, start, end, parent span, op id) in
flat arrays kept in memory; ``write`` dumps them at exit.  A layer's self
time is its spans' durations minus the part covered by their child spans.

Scalar arithmetic (``Scalar.__add__`` and friends) is too frequent to keep
one span per call: those calls are counted by arithmetic path and their
time is added to the enclosing span, where it is subtracted from that
span's self time and booked to the ``scalars`` layer.
"""

from __future__ import annotations

import functools
import inspect
from array import array
from fractions import Fraction
from time import perf_counter_ns

LAYERS = ("scalars", "exterior", "linalg", "liealg", "su3", "g2", "families", "cli")

# Dunder methods that are worth a span (the rest are equality, hashing, repr).
_SPAN_DUNDERS = {
    "Form": ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__"),
    "LieAlgebra": ("__init__",),
}
# Private methods that a per-layer metric needs.
_SPAN_PRIVATE = {"LieAlgebra": ("_check_filtration",)}
_SCALAR_BINARY = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__pow__",
)


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self, package):
        self.modules = {layer: getattr(package, layer) for layer in LAYERS}
        self.names = []            # span name table
        self.name_layer = []       # layer index per name
        self.name_index = {}
        # one entry per span
        self.s_name = array("i")
        self.s_start = array("q")
        self.s_end = array("q")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_scalar_ns = array("q")
        self.s_outer = array("b")  # 1 unless a span of the same name is open
        self.s_raised = array("b")
        self.stack = []
        self.open_depth = {}
        self.op = -1
        # scalar arithmetic
        self.scalar_rational = 0
        self.scalar_symbolic = 0
        self.scalar_symbolic_poly = 0
        self.scalar_orphan_ns = 0
        # extra counts taken from call arguments
        self.wedge_term_pairs = 0
        self.rref_symbolic = 0
        self.rref_cells = 0
        self._patches = []

    # -- installation -------------------------------------------------------

    def _name_id(self, name, layer):
        nid = self.name_index.get(name)
        if nid is None:
            nid = len(self.names)
            self.names.append(name)
            self.name_layer.append(LAYERS.index(layer))
            self.name_index[name] = nid
        return nid

    def _span_wrapper(self, fn, name, layer):
        nid = self._name_id(name, layer)
        stack, depth = self.stack, self.open_depth
        s_name, s_start, s_end = self.s_name, self.s_start, self.s_end
        s_parent, s_op, s_scalar = self.s_parent, self.s_op, self.s_scalar_ns
        s_outer, s_raised = self.s_outer, self.s_raised
        extra = self._extra_counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_op.append(self.op)
            s_scalar.append(0)
            open_now = depth.get(nid, 0)
            s_outer.append(0 if open_now else 1)
            s_raised.append(0)
            s_end.append(0)
            if extra is not None:
                extra(args)
            depth[nid] = open_now + 1
            stack.append(idx)
            s_start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                s_raised[idx] = 1
                raise
            finally:
                s_end[idx] = perf_counter_ns()
                stack.pop()
                depth[nid] = open_now

        return wrapper

    def _extra_counter(self, name):
        if name == "exterior.Form.wedge":
            def count(args):
                self.wedge_term_pairs += len(args[0].comps) * len(args[1].comps)
            return count
        if name == "linalg.rref":
            def count(args):
                rows = args[0]
                if rows:
                    self.rref_cells += len(rows) * len(rows[0])
                    if not all(x.is_rational for row in rows for x in row):
                        self.rref_symbolic += 1
            return count
        return None

    def _scalar_wrapper(self, fn, unary):
        stack, s_scalar = self.stack, self.s_scalar_ns

        def book(ns, rational, result):
            if stack:
                s_scalar[stack[-1]] += ns
            else:
                self.scalar_orphan_ns += ns
            if rational:
                self.scalar_rational += 1
            else:
                self.scalar_symbolic += 1
                raw = result.raw
                if type(raw) is Fraction or raw.denom.is_ground:
                    self.scalar_symbolic_poly += 1

        if unary:
            @functools.wraps(fn)
            def wrapper(a):
                t0 = perf_counter_ns()
                result = fn(a)
                book(perf_counter_ns() - t0, type(a.raw) is Fraction, result)
                return result
            return wrapper

        scalar_type = self.modules["scalars"].Scalar

        @functools.wraps(fn)
        def wrapper(a, b):
            t0 = perf_counter_ns()
            result = fn(a, b)
            ns = perf_counter_ns() - t0
            if result is not NotImplemented:
                rational = type(a.raw) is Fraction and (
                    type(b.raw) is Fraction if isinstance(b, scalar_type) else True
                )
                book(ns, rational, result)
            return result
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function and method of the eight modules."""
        replaced = {}
        for layer, mod in self.modules.items():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrapped = self._span_wrapper(obj, f"{layer}.{attr}", layer)
                    replaced[obj] = wrapped
                    self._set(mod, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    self._install_class(layer, obj)
        # rebind the copies made by ``from .module import name``
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    self._set(mod, attr, replaced[obj])

    def _install_class(self, layer, cls):
        if cls.__name__ == "Scalar":
            for attr in _SCALAR_BINARY:
                self._set(cls, attr, self._scalar_wrapper(cls.__dict__[attr], False))
            self._set(cls, "__neg__", self._scalar_wrapper(cls.__dict__["__neg__"], True))
            return
        wanted = _SPAN_DUNDERS.get(cls.__name__, ()) + _SPAN_PRIVATE.get(cls.__name__, ())
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_") and attr not in wanted:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._span_wrapper(raw.__func__, name, layer)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._span_wrapper(raw.__func__, name, layer)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._span_wrapper(raw, name, layer))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def summary(self):
        """Per-name call counts, raised counts and outermost inclusive ns; per-layer self ns."""
        n_spans = len(self.s_name)
        child_ns = [0] * n_spans
        s_start, s_end, s_parent = self.s_start, self.s_end, self.s_parent
        for i in range(n_spans):
            p = s_parent[i]
            if p >= 0:
                child_ns[p] += s_end[i] - s_start[i]
        layer_self = [0] * len(LAYERS)
        calls = [0] * len(self.names)
        raised = [0] * len(self.names)
        inclusive = [0] * len(self.names)
        for i in range(n_spans):
            nid = self.s_name[i]
            dur = s_end[i] - s_start[i]
            calls[nid] += 1
            raised[nid] += self.s_raised[i]
            if self.s_outer[i]:
                inclusive[nid] += dur
            layer_self[self.name_layer[nid]] += dur - child_ns[i] - self.s_scalar_ns[i]
        layer_self[LAYERS.index("scalars")] += sum(self.s_scalar_ns) + self.scalar_orphan_ns
        by_name = {
            name: (calls[i], raised[i], inclusive[i]) for i, name in enumerate(self.names)
        }
        return by_name, dict(zip(LAYERS, layer_self))

    def write(self, path):
        """Dump the spans as tab-separated text: name, start_ns, end_ns, parent, op."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.s_name)):
                out.write(
                    f"{self.names[self.s_name[i]]}\t{self.s_start[i]}\t{self.s_end[i]}"
                    f"\t{self.s_parent[i]}\t{self.s_op[i]}\n"
                )
