"""Layer tracing by wrapping the public functions and methods of each layer.

``Tracer.install()`` replaces every public module function and every public
method (plus the arithmetic operators) of the layer modules with a timing
wrapper, and rebinds the names other ``ellhall`` modules imported.  Nothing
under ``src/`` changes; the wrappers live only in the traced process.

Every call is folded into per-name aggregates: calls, inclusive time and
self time (its duration minus the time spent in wrapped callees).  A
layer's self time is the sum over its names, which equals the time inside
the layer minus the time in child spans of other layers.  Spans are kept
in memory for ops and for layer entries (a call whose caller is in another
layer), except the hot scalar arithmetic and the polynomial and lattice
helpers, which run millions of times and are folded only.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("ratfunc", "cyclotomic", "scalars", "lattice", "finitefield",
          "dvr_hall", "curve", "elliptic_hall", "autoforms", "linalg")

OPERATORS = frozenset({"__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                       "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "__neg__"})

# Folded only: no span per call.
HOT_CLASSES = frozenset({"FormalScalar", "CurveScalar", "FFElement"})
HOT_MODULES = frozenset({"ratfunc", "lattice"})

MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        # frame: [layer, time in wrapped callees, enclosing span id]
        self.stack = [[None, 0.0, -1]]
        # name -> [layer, calls, inclusive time, self time, active depth]
        self.stats: dict[str, list] = {}
        self.spans: list = []
        self.dropped_spans = 0
        self.op_id = None
        self.gcd_useful = 0
        self.commutator_keys: set = set()
        self.rank_rows = 0
        self.rank_cols = 0
        self.census = None

    # -- installation ------------------------------------------------------

    def install(self):
        hooks = {
            "ratfunc.bgcd": self._on_bgcd,
            "elliptic_hall.EllipticHallAlgebra.commutator": self._on_commutator,
            "linalg.rank_mod_p": self._on_rank,
        }
        replaced = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = importlib.import_module(f"ellhall.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj, hooks)
                elif callable(obj):
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(layer, name, obj, layer not in HOT_MODULES,
                                         hooks.get(name))
                    replaced[id(obj)] = (obj, wrapper)
        self.census = getattr(sys.modules["ellhall.dvr_hall"], "submodule_census", None)
        for modname, mod in list(sys.modules.items()):
            if modname != "ellhall" and not modname.startswith("ellhall."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])

    def _wrap_class(self, layer, cls, hooks):
        keep_spans = cls.__name__ not in HOT_CLASSES
        wrapped = {}
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in OPERATORS:
                continue
            kind = None
            if isinstance(raw, (staticmethod, classmethod)):
                kind, fn = type(raw), raw.__func__
            elif inspect.isfunction(raw):
                fn = raw
            else:
                continue
            wrapper = wrapped.get(id(fn))
            if wrapper is None:
                name = f"{layer}.{cls.__name__}.{fn.__name__}"
                wrapper = self._wrap(layer, name, fn, keep_spans, hooks.get(name))
                wrapped[id(fn)] = wrapper
            setattr(cls, attr, kind(wrapper) if kind else wrapper)

    def _wrap(self, layer, name, fn, keep_spans, hook=None):
        rec = self.stats.setdefault(name, [layer, 0, 0.0, 0.0, 0])
        stack, spans, clock, tracer = self.stack, self.spans, time.perf_counter, self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = -1
            if keep_spans and parent[0] != layer:
                if len(spans) < MAX_SPANS:
                    span = len(spans)
                    spans.append(None)
                else:
                    tracer.dropped_spans += 1
            frame = [layer, 0.0, span if span >= 0 else parent[2]]
            stack.append(frame)
            rec[4] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                parent[1] += elapsed
                rec[1] += 1
                rec[3] += elapsed - frame[1]
                rec[4] -= 1
                if not rec[4]:
                    rec[2] += elapsed
                if span >= 0:
                    spans[span] = (name, tracer.op_id, parent[2], t0, t1)
            if hook is not None:
                hook(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        for extra in ("cache_info", "cache_clear"):
            if hasattr(fn, extra):
                setattr(wrapper, extra, getattr(fn, extra))
        return wrapper

    # -- hooks ---------------------------------------------------------------

    def _on_bgcd(self, args, result):
        if any(i or j for i, j in result):
            self.gcd_useful += 1

    def _on_commutator(self, args, result):
        alg, a, b = args
        self.commutator_keys.add((id(alg), tuple(a), tuple(b)))

    def _on_rank(self, args, result):
        rows, ncols = args[0], args[1]
        self.rank_rows += len(rows)
        self.rank_cols += ncols

    # -- ops and results -------------------------------------------------------

    def begin_op(self, op_id):
        """Open the span of one op: the parent of the layer entries inside it."""
        self.op_id = op_id
        self.stack[0][2] = len(self.spans)
        self.spans.append(None)

    def end_op(self, label, t0, t1):
        self.spans[self.stack[0][2]] = (f"op:{label}", self.op_id, -1, t0, t1)
        self.stack[0][2] = -1
        self.op_id = None

    def calls(self, name) -> int:
        """Calls of one wrapped name; 0 for a name the layers do not define."""
        return self.stats[name][1] if name in self.stats else 0

    def census_misses(self) -> int:
        return self.census.cache_info().misses if self.census is not None else 0

    def layer_metrics(self) -> dict:
        """The per-layer metrics, by name: counts, and self times in seconds."""
        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        lattice_calls = 0
        for rec in self.stats.values():
            out[f"{rec[0]}.self_s"] += rec[3]
            if rec[0] == "lattice":
                lattice_calls += rec[1]
        comm = self.calls("elliptic_hall.EllipticHallAlgebra.commutator")
        gcds = self.calls("ratfunc.bgcd")
        out.update({
            "elliptic_hall.multiply_calls":
                self.calls("elliptic_hall.EllipticHallAlgebra.multiply"),
            "elliptic_hall.commutator_calls": comm,
            "elliptic_hall.commutator_reuse":
                comm / len(self.commutator_keys) if self.commutator_keys else 0.0,
            "ratfunc.mul_calls": self.calls("ratfunc.FormalScalar.__mul__"),
            "ratfunc.add_calls": self.calls("ratfunc.FormalScalar.__add__"),
            "ratfunc.inverse_calls": self.calls("ratfunc.FormalScalar.inverse"),
            "ratfunc.bgcd_calls": gcds,
            "ratfunc.bgcd_useful_ratio": self.gcd_useful / gcds if gcds else 0.0,
            "lattice.calls": lattice_calls,
            "scalars.series_exp_calls": self.calls("scalars.series_exp"),
            "cyclotomic.mul_calls": self.calls("cyclotomic.CurveScalar.__mul__"),
            "cyclotomic.add_calls": self.calls("cyclotomic.CurveScalar.__add__"),
            "cyclotomic.reduce_mod_calls": self.calls("cyclotomic.CurveScalar.reduce_mod"),
            "autoforms.global_mul_calls": self.calls("autoforms.GlobalTorsionElement.__mul__"),
            "autoforms.certificate_s":
                self.stats.get("autoforms.monomial_independence_rank", [0, 0, 0.0])[2],
            "linalg.rank_rows": self.rank_rows,
            "linalg.rank_cols": self.rank_cols,
            "dvr_hall.multiply_calls": self.calls("dvr_hall.DvrHallAlgebra.multiply"),
            "dvr_hall.census_misses": self.census_misses(),
            "curve.count_points_calls": self.calls("curve.CurveData.count_points"),
            "curve.closed_points_calls": self.calls("curve.CurveData.closed_points"),
            "finitefield.mul_calls": self.calls("finitefield.FFElement.__mul__"),
            "finitefield.inverse_calls": self.calls("finitefield.FFElement.inverse"),
        })
        return out

    def counts(self) -> dict:
        """Every deterministic count: per-name calls and the hook counters."""
        out = {name: rec[1] for name, rec in sorted(self.stats.items())}
        out.update({"hook.gcd_useful": self.gcd_useful,
                    "hook.commutator_distinct": len(self.commutator_keys),
                    "hook.rank_rows": self.rank_rows,
                    "hook.rank_cols": self.rank_cols,
                    "hook.census_misses": self.census_misses()})
        return out

    def write(self, path):
        """Write spans and per-name aggregates as JSON."""
        names = {name: {"layer": rec[0], "calls": rec[1], "total_s": rec[2], "self_s": rec[3]}
                 for name, rec in sorted(self.stats.items()) if rec[1]}
        with open(path, "w") as fh:
            json.dump({"names": names, "dropped_spans": self.dropped_spans,
                       "span_fields": ["name", "op", "parent", "start", "end"],
                       "spans": self.spans}, fh)
