"""Span recorder for the traced run, installed around the engine's public
functions from outside the engine.

Every public module-level function and every public method (plus the
constructors and arithmetic operators) of the public classes of the six
engine modules is replaced by a wrapper that records a span: name, start,
end, parent span and op id.  Self time is a span's duration minus the
time its child spans cover; it is summed per layer (module) as spans end.
`GaussianRational` and `Lcg` are left alone: they are the scalar
coefficients and the random draws, called ~10^5 times per request.  So are
constant-time accessors, predicates and constructors that only store their
arguments, which would otherwise make up most spans.  Their time counts as
self time of the span that calls them.

`uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

from engine import LAYERS

PACKAGE = importlib.import_module("wickstar")
MODULES = {layer: importlib.import_module(f"wickstar.{layer}") for layer in LAYERS}

SKIP_CLASSES = {"GaussianRational", "Lcg"}
LEAF_METHODS = {"is_zero", "is_constant", "is_polynomial", "constant_value", "leading",
                "nvars", "n", "zero", "one", "constant", "variable", "contraction_memo"}
PLAIN_INIT = {"ChartPolynomial", "WeylElement", "NuSeries"}
DUNDERS = {"__init__", "__add__", "__sub__", "__neg__", "__mul__",
           "__truediv__", "__pow__", "__eq__"}

# spans aggregated under one metric name; nesting within a group counts once
GROUPS = {
    "expr.ChartExpr.__add__": "expr.add",
    "expr.ChartExpr.__sub__": "expr.add",
    "expr.ChartExpr.__mul__": "expr.mul",
    "expr.ChartExpr.differentiate": "expr.diff",
    "expr.ChartPolynomial.exact_div": "expr.exact_div",
    "weyl.ad_over_nu": "weyl.ad_over_nu",
    "weyl.circ": "weyl.circ",
    "weyl.circ_over_nu": "weyl.circ",
    "weyl.sigma_circ": "weyl.sigma_circ",
    "weyl.nabla": "weyl.nabla",
    "weyl.delta_inv": "weyl.delta_inv",
    "fedosov.FedosovData.__init__": "fedosov.data",
    "fedosov.FedosovData.verify_r": "fedosov.verify_r",
    "fedosov.tau": "fedosov.tau",
    "chart.load_chart": "chart.load",
    "chart.Chart.connection": "chart.geometry",
    "chart.Chart.curvature_data": "chart.geometry",
}
# the fibrewise pair-product kernels; weyl.pairs sums |a.terms| * |b.terms|
PAIR_PRODUCTS = {"weyl.circ", "weyl.circ_over_nu", "weyl.ad", "weyl.ad_over_nu"}

CALLS, INCL, DEPTH = 0, 1, 2


class Tracer:
    def __init__(self):
        self.spans = []      # (name, start, end, parent span index, op id)
        self.stack = []      # [span index, time covered by child spans]
        self.op = None
        self.groups = {}     # group -> [calls, outermost inclusive s, depth]
        self.layer_self = {layer: [0.0] for layer in LAYERS}
        self.counts = {"pairs": 0, "tau_calls": 0, "tau_hits": 0, "r_terms": 0,
                       "tau_terms_max": 0, "max_num_terms": 0, "max_den_terms": 0}
        self.verify_r_in_data = 0.0
        self._saved = []

    # -- installing ------------------------------------------------------------

    def _targets(self):
        for layer, mod in MODULES.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield layer, mod, name, obj, f"{layer}.{name}"
                elif inspect.isclass(obj) and name not in SKIP_CLASSES:
                    for attr, val in list(vars(obj).items()):
                        if (attr.startswith("_") and attr not in DUNDERS) or attr in LEAF_METHODS \
                                or (attr == "__init__" and name in PLAIN_INIT):
                            continue
                        if isinstance(val, (staticmethod, property)) or inspect.isfunction(val):
                            yield layer, obj, attr, val, f"{layer}.{name}.{attr}"

    def install(self):
        modules = [*MODULES.values(), PACKAGE]
        for layer, owner, attr, val, name in list(self._targets()):
            if isinstance(val, staticmethod):
                new = staticmethod(self._wrap(val.__func__, name, layer))
            elif isinstance(val, property):
                if val.fget is None:
                    continue
                new = property(self._wrap(val.fget, name, layer), val.fset, val.fdel, val.__doc__)
            else:
                new = self._wrap(val, name, layer)
            self._replace(owner, attr, val, new)
            if inspect.isfunction(val):
                # names imported with `from .x import f` are separate bindings
                for mod in modules:
                    if mod is not owner and vars(mod).get(attr) is val:
                        self._replace(mod, attr, val, new)
        return self

    def _replace(self, owner, attr, old, new):
        self._saved.append((owner, attr, old))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording ---------------------------------------------------------------

    def _wrap(self, fn, name, layer):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        group = self.groups.setdefault(GROUPS.get(name, name), [0, 0.0, 0])
        layer_self = self.layer_self[layer]
        before, after = self._hooks(name, layer)
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            group[DEPTH] += 1
            token = before(args) if before else None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                group[DEPTH] -= 1
                group[CALLS] += 1
                if not group[DEPTH]:
                    group[INCL] += dur
                layer_self[0] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[index] = (name, start, end, parent, tracer.op)
            if after:
                after(args, result, dur, token)
            return result

        return functools.update_wrapper(traced, fn)

    def _hooks(self, name, layer):
        """Counters read from arguments and results at a few boundaries."""
        counts = self.counts
        if layer == "expr":
            expr_type = MODULES["expr"].ChartExpr

            def after(args, result, dur, token):
                if type(result) is expr_type:
                    counts["max_num_terms"] = max(counts["max_num_terms"], len(result.num.terms))
                    counts["max_den_terms"] = max(counts["max_den_terms"], len(result.den.terms))
            return None, after
        if name in PAIR_PRODUCTS:
            def before(args):
                counts["pairs"] += len(args[0].terms) * len(args[1].terms)
            return before, None
        if name == "fedosov.tau":
            def before(args):
                return len(args[0].tau_cache)

            def after(args, result, dur, size):
                counts["tau_calls"] += 1
                counts["tau_hits"] += len(args[0].tau_cache) == size
                counts["tau_terms_max"] = max(counts["tau_terms_max"], len(result.terms))
            return before, after
        if name == "fedosov.FedosovData.__init__":
            def after(args, result, dur, token):
                counts["r_terms"] = max(counts["r_terms"], len(args[0].r.terms))
            return None, after
        if name == "fedosov.FedosovData.verify_r":
            data = self.groups.setdefault("fedosov.data", [0, 0.0, 0])

            def after(args, result, dur, token):
                if data[DEPTH]:
                    self.verify_r_in_data += dur
            return None, after
        return None, None

    # -- results -------------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics as (name, value, unit): `_s` of a function is
        its inclusive time, `self_s` of a layer is exclusive."""

        def grp(key):
            return self.groups.get(key, [0, 0.0, 0])

        c = self.counts
        out = []
        for key in ("expr.add", "expr.mul", "expr.diff", "expr.exact_div"):
            out.append((f"{key}_calls", grp(key)[CALLS], "count"))
            out.append((f"{key}_s", grp(key)[INCL], "s"))
        out.append(("expr.max_num_terms", c["max_num_terms"], "count"))
        out.append(("expr.max_den_terms", c["max_den_terms"], "count"))
        for key in ("weyl.ad_over_nu", "weyl.circ", "weyl.sigma_circ", "weyl.nabla", "weyl.delta_inv"):
            out.append((f"{key}_s", grp(key)[INCL], "s"))
        out.append(("weyl.pairs", c["pairs"], "count"))
        out.append(("fedosov.data_s", grp("fedosov.data")[INCL] - self.verify_r_in_data, "s"))
        out.append(("fedosov.verify_r_s", grp("fedosov.verify_r")[INCL], "s"))
        out.append(("fedosov.tau_s", grp("fedosov.tau")[INCL], "s"))
        out.append(("fedosov.tau_calls", c["tau_calls"], "count"))
        hit_ratio = c["tau_hits"] / c["tau_calls"] if c["tau_calls"] else 0.0
        out.append(("fedosov.tau_cache_hit_ratio", hit_ratio, "ratio"))
        out.append(("fedosov.r_terms", c["r_terms"], "count"))
        out.append(("fedosov.tau_terms_max", c["tau_terms_max"], "count"))
        out.append(("chart.load_s", grp("chart.load")[INCL], "s"))
        out.append(("chart.geometry_s", grp("chart.geometry")[INCL], "s"))
        for layer in LAYERS:
            out.append((f"{layer}.self_s", self.layer_self[layer][0], "s"))
        return out

    def write_spans(self, path):
        """Spans as tab-separated lines: id, name, start, end, parent, op."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\top\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
