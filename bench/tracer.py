"""Traced-run instrumentation, installed from the benchmark's side only.

``Tracer.install`` wraps every public function of the semicat layers and
rebinds it in every semicat namespace that holds it, since
``from .matcat import mat_compose`` keeps the original object. It also
wraps the monad operations of the monad classes, the scalar operations of
the built-in semiring descriptors and ``fractions.Fraction.__new__``.
``uninstall`` puts every original back.

Each wrapped call is a frame on one stack, so a function's self time is
its duration minus its children's. Calls into the algebra layer number in
the millions, so they are counted and timed but not kept as spans; every
other call is kept as a span (name, start, end, parent, op id) in memory
and written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import sys
from array import array
from fractions import Fraction
from time import perf_counter

LAYERS = ("algebra", "matcat", "monadcore", "freetheory", "kleisli", "adjunctions",
          "sampling", "cli")
MONAD_OPS = ("fmap", "unit", "mult", "dst", "bc", "bc_inv", "involution")
SCALAR_OPS = ("add", "mul", "star")


class Tracer:
    def __init__(self):
        self.op_id = -1
        # function name -> [calls, self seconds]
        self.stats: dict[str, list] = {}
        self.counts = {"compose_cells": 0, "add_noop": 0, "pairs_in": 0, "pairs_kept": 0,
                       "hops": 0}
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack: list = []
        self._undo: list = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn, keep_span: bool, observe=None):
        stat = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        name_id = len(self.names)
        self.names.append(name)
        ids, starts, ends = self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op
        tracer = self

        def wrapper(*args, **kwargs):
            stat[0] += 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, parent]
            if keep_span:
                frame[1] = len(starts)
                ids.append(name_id)
                starts.append(0.0)
                ends.append(0.0)
                parents.append(parent)
                ops.append(tracer.op_id)
            stack.append(frame)
            if observe is not None:
                args = observe(tracer, args, None)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                duration = t1 - t0
                stat[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    starts[frame[1]] = t0
                    ends[frame[1]] = t1
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap the layers of the imported ``package`` (semicat)."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    replaced[fn] = self._wrap(f"{layer}.{name}", fn, layer != "algebra",
                                              _OBSERVERS.get(f"{layer}.{name}"))
        monadcore = sys.modules[f"{package.__name__}.monadcore"]
        base = monadcore.MonadInstance
        for cls in (base, *base.__subclasses__()):
            for op in MONAD_OPS:
                fn = cls.__dict__.get(op)
                if inspect.isfunction(fn):
                    self._set(cls, op, self._wrap(f"monadcore.{op}", fn, True))
        for module in modules:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._set(module, name, replaced[value])

        algebra = sys.modules[f"{package.__name__}.algebra"]
        scalar_ops = {}
        for desc in algebra.SEMIRINGS.values():
            for op in SCALAR_OPS:
                fn = getattr(desc, op)
                if fn is not None:
                    scalar_ops[fn] = self._wrap(f"algebra.{op}", fn, False)
                    self._set(desc, op, scalar_ops[fn], frozen=True)
        for monoid in algebra.MONOIDS.values():
            if monoid.op in scalar_ops:
                self._set(monoid, "op", scalar_ops[monoid.op], frozen=True)

        fraction_calls = self.stats.setdefault("algebra.fraction_new", [0, 0.0])
        original_new = Fraction.__dict__["__new__"].__func__

        def fraction_new(cls, *args, **kwargs):
            fraction_calls[0] += 1
            return original_new(cls, *args, **kwargs)

        self._set(Fraction, "__new__", staticmethod(fraction_new))

    def _set(self, obj, attr: str, value, frozen: bool = False) -> None:
        setter = object.__setattr__ if frozen else setattr
        self._undo.append((setter, obj, attr, obj.__dict__[attr]))
        setter(obj, attr, value)

    def uninstall(self) -> None:
        for setter, obj, attr, original in reversed(self._undo):
            setter(obj, attr, original)
        self._undo.clear()

    # -- results ----------------------------------------------------------

    def calls(self, *names: str) -> int:
        return sum(self.stats.get(n, (0, 0.0))[0] for n in names)

    def self_s(self, prefix: str) -> float:
        """Self time of one function (``matcat.mat_add``) or of every
        function of a layer (``matcat``)."""
        if prefix in self.stats:
            return self.stats[prefix][1]
        return sum(s for n, (_, s) in self.stats.items() if n.split(".")[0] == prefix)

    def write_spans(self, path) -> int:
        """Write one line per span: name, start and end in nanoseconds since
        the first span started, parent span index (-1 for none), op id."""
        origin = self.span_start[0] if self.span_start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.span_start)):
                f.write(f"{self.names[self.span_name[i]]}\t"
                        f"{round((self.span_start[i] - origin) * 1e9)}\t"
                        f"{round((self.span_end[i] - origin) * 1e9)}\t"
                        f"{self.span_parent[i]}\t{self.span_op[i]}\n")
        return len(self.span_start)


# -- boundary observers: called with result None before the call (may
# replace the arguments) and with the result after it ----------------------


def _observe_compose(tracer, args, result):
    if result is None:
        g, h = args[0], args[1]
        tracer.counts["compose_cells"] += g.rows * g.cols * h.cols
    return args


def _observe_add(tracer, args, result):
    if result is not None and result == args[0]:
        tracer.counts["add_noop"] += 1
    return args


def _observe_ms_from_pairs(tracer, args, result):
    if result is None:
        return (args[0], _counted(tracer, args[1]), *args[2:])
    tracer.counts["pairs_kept"] += len(result.entries)
    return args


def _counted(tracer, pairs):
    counts = tracer.counts
    for pair in pairs:
        counts["pairs_in"] += 1
        yield pair


def _observe_bounded_paths(tracer, args, result):
    if result is None:
        tracer.counts["hops"] += args[1]
    return args


_OBSERVERS = {
    "matcat.mat_compose": _observe_compose,
    "matcat.mat_add": _observe_add,
    "monadcore.ms_from_pairs": _observe_ms_from_pairs,
    "cli.bounded_paths": _observe_bounded_paths,
}
