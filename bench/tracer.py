"""Per-layer tracing for the benchmark, done entirely from outside waveq.

`install` wraps every public callable of the traced modules: module-level
functions, and the public methods and arithmetic operators of the classes
each module defines.  A wrapper replaces the original in every namespace
that imported it (the defining module, the package and sibling modules),
and in function defaults that held the original, so identity tests such as
`step is doubling_step` still hold.

Each call records a span [callable, start_ns, end_ns, parent span, operation
id, child_ns].  Spans stay in memory and are written out by `write_spans`
when the run ends.  A span's self time is its duration minus the time its
child spans cover; a layer's self time is the sum over its spans.  Counts
(term pairs, output points, bytes written) are taken from argument and
result sizes at the same boundaries.

Not traced: the exponent scalars `Dyadic` and `Exponent` and the `OpTerm`
tuple.  They are created and combined per term, and a span per exponent
addition would cost more than the work it measures; their time shows up as
self time of the container operation that called them.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("laurent", "opalgebra", "gridfn", "qdeform", "scaling", "spectra", "funceq", "cli")
LINALG = "linalg"
UNTRACED_CLASSES = {"Dyadic", "Exponent", "OpTerm"}
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__pow__", "__neg__")
POINT_EVAL_CALLABLES = ("apply_op_grid", "sample_op_applied", "apply_op_expsum")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layers: list[str] = []
        self.spans: list[list[int]] = []
        self.stack: list[int] = []
        self.op_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.peak_terms = 0

    def wrap(self, fn, name: str, layer: str, counter=None):
        idx = len(self.names)
        self.names.append(name)
        self.layers.append(layer)
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            rec = [idx, clock(), 0, parent, self.op_id, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][5] += rec[2] - rec[1]
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    # -- aggregation -----------------------------------------------------------

    def layer_metrics(self, operations: int) -> dict[str, float]:
        """Per-operation layer metrics over the spans of timed operations."""
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        linalg_ns = 0
        point_eval_ns = 0
        point_idx = {i for i, n in enumerate(self.names) if n.split(".")[-1] in POINT_EVAL_CALLABLES}
        for idx, start, end, _parent, _op, child in self.spans:
            layer = self.layers[idx]
            calls[layer] += 1
            self_ns[layer] += end - start - child
            if layer == LINALG:
                linalg_ns += end - start
            if idx in point_idx:
                point_eval_ns += end - start
        ops = max(operations, 1)
        c = self.counts
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer] / ops
            out[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / ops
        out["laurent.term_pairs"] = c["laurent.term_pairs"] / ops
        out["laurent.terms_out"] = c["laurent.terms_out"] / ops
        out["opalgebra.term_pairs"] = c["opalgebra.term_pairs"] / ops
        out["opalgebra.terms_out"] = c["opalgebra.terms_out"] / ops
        pairs = c["opalgebra.term_pairs"]
        out["opalgebra.merge_ratio"] = c["opalgebra.terms_out"] / pairs if pairs else 0.0
        out["opalgebra.peak_terms"] = float(self.peak_terms)
        evals = c["gridfn.point_evals"]
        out["gridfn.point_evals"] = evals / ops
        out["gridfn.ns_per_point_eval"] = point_eval_ns / evals if evals else 0.0
        out["funceq.linalg_ms"] = linalg_ns / 1e6 / ops
        out["cli.bytes_written"] = c["cli.bytes_written"] / ops
        return out

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "op", "parent", "name", "start_ns", "end_ns", "self_ns"])
            for sid, (idx, start, end, parent, op, child) in enumerate(self.spans):
                w.writerow([sid, op, parent, self.names[idx], start, end, end - start - child])


# -- counters ----------------------------------------------------------------------


def _product_counter(layer: str):
    def count(tr: Tracer, args, kwargs, result):
        a, b = args[0], args[1]
        if type(b) is type(a):
            tr.counts[f"{layer}.term_pairs"] += len(a) * len(b)
            tr.counts[f"{layer}.terms_out"] += len(result)
        _track_terms(tr, args, kwargs, result)

    return count


def _track_terms(tr: Tracer, args, kwargs, result):
    if type(result).__name__ == "OpExpr":
        n = len(result)
        if n > tr.peak_terms:
            tr.peak_terms = n


def _grid_counter(tr: Tracer, args, kwargs, result):
    tr.counts["gridfn.point_evals"] += len(args[0]) * len(result.values)


def _sample_counter(tr: Tracer, args, kwargs, result):
    tr.counts["gridfn.point_evals"] += len(args[0]) * result.size


def _expsum_counter(tr: Tracer, args, kwargs, result):
    tr.counts["gridfn.point_evals"] += len(args[0]) * len(args[1])


def _dispatch_counter(tr: Tracer, args, kwargs, result):
    argv = list(args[0])
    if result != 0 or not argv:
        return
    out_dir = "."
    for i, a in enumerate(argv):
        if a == "--output" and i + 1 < len(argv):
            out_dir = argv[i + 1]
        elif a.startswith("--output="):
            out_dir = a.split("=", 1)[1]
    for suffix in (".csv", ".manifest.json"):
        path = os.path.join(out_dir, argv[0] + suffix)
        if os.path.exists(path):
            tr.counts["cli.bytes_written"] += os.path.getsize(path)


_COUNTERS = {
    "apply_op_grid": _grid_counter,
    "sample_op_applied": _sample_counter,
    "apply_op_expsum": _expsum_counter,
    "dispatch": _dispatch_counter,
}


def _counter_for(layer: str, qualname: str):
    leaf = qualname.split(".")[-1]
    if leaf in _COUNTERS:
        return _COUNTERS[leaf]
    if layer in ("laurent", "opalgebra") and leaf in ("__mul__", "__rmul__"):
        return _product_counter(layer)
    if layer == "opalgebra":
        return _track_terms
    return None


# -- installation -------------------------------------------------------------------


class _ModuleProxy(types.ModuleType):
    """A module as one importer sees it, with some attributes replaced."""

    def __init__(self, module, **replaced):
        super().__init__(module.__name__)
        self._module = module
        vars(self).update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _public_callables(module):
    """(qualname, owner, attribute, raw object) for each traced callable."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, module, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            if name in UNTRACED_CLASSES:
                continue
            for attr, raw in list(vars(obj).items()):
                if attr.startswith("_") and attr not in OPERATORS:
                    continue
                if isinstance(raw, (staticmethod, classmethod)) or inspect.isfunction(raw):
                    yield f"{name}.{attr}", obj, attr, raw


def install(package: str = "waveq") -> Tracer:
    """Wrap the public callables of package.<layer> for every traced layer."""
    tr = Tracer()
    originals: dict[int, object] = {}
    for layer in LAYERS:
        module = sys.modules[f"{package}.{layer}"]
        for qualname, owner, attr, raw in _public_callables(module):
            counter = _counter_for(layer, qualname)
            name = f"{layer}.{qualname}"
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = tr.wrap(raw.__func__, name, layer, counter)
                setattr(owner, attr, type(raw)(wrapped))
                originals[id(raw.__func__)] = wrapped
            else:
                wrapped = tr.wrap(raw, name, layer, counter)
                setattr(owner, attr, wrapped)
                originals[id(raw)] = wrapped

    namespaces = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
    for ns in namespaces:
        for key, value in list(vars(ns).items()):
            if id(value) in originals:
                setattr(ns, key, originals[id(value)])
        for value in list(vars(ns).values()):
            for fn in _functions_of(value):
                if fn.__defaults__ and any(id(d) in originals for d in fn.__defaults__):
                    fn.__defaults__ = tuple(originals.get(id(d), d) for d in fn.__defaults__)

    funceq = sys.modules[f"{package}.funceq"]
    np = funceq.np
    svd = tr.wrap(np.linalg.svd, "funceq.numpy.linalg.svd", LINALG)
    funceq.np = _ModuleProxy(np, linalg=_ModuleProxy(np.linalg, svd=svd))
    return tr


def _functions_of(value):
    """The plain functions behind a namespace entry (wrapped ones included)."""
    if inspect.isfunction(value):
        yield inspect.unwrap(value)
    elif inspect.isclass(value):
        for raw in vars(value).values():
            fn = getattr(raw, "__func__", raw)
            if inspect.isfunction(fn):
                yield inspect.unwrap(fn)
