"""Spans and counters recorded around calls into each qhopf layer.

The program is not changed: the traced child process replaces every
binding of a public function (or class attribute) with a wrapper that
records a span.  ``s3core.mul`` is bound as ``chern.mul``, ``cli.mul``,
``verify.mul`` and ``qhopf.mul`` too, so every module attribute that is
the original object is replaced.  Private helpers called directly (the
monomial product ``_mono_mul`` used by ``galois`` and ``hopf``) are not
wrapped; their time stays in the caller's self time.

A span is (id, parent id, name, item index, start, end).  Self time is a
span's duration minus the time covered by its direct child spans.
Scalar operations are counted only, without spans: they are too many
and too small to time one by one.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute path, metric name) of every spanned function
SPANNED = (
    ("qhopf.scalars", "qbinomial", "scalars.qbinomial"),
    ("qhopf.s3core", "mul", "s3core.mul"),
    ("qhopf.s3core", "AlgElement.star", "s3core.AlgElement.star"),
    ("qhopf.galois", "strong_connection", "galois.strong_connection"),
    ("qhopf.galois", "strong_connection_closed",
     "galois.strong_connection_closed"),
    ("qhopf.galois", "lifted_can", "galois.lifted_can"),
    ("qhopf.chern", "idempotent", "chern.idempotent"),
    ("qhopf.chern", "CoinvariantMatrix.__matmul__",
     "chern.CoinvariantMatrix.matmul"),
    ("qhopf.chern", "trace_functional", "chern.trace_functional"),
    ("qhopf.chern", "pairing", "chern.pairing"),
    ("qhopf.hopf", "coaction", "hopf.coaction"),
    ("qhopf.gluing", "gluing_check", "gluing.gluing_check"),
    ("qhopf.gluing", "chi", "gluing.chi"),
    ("qhopf.exprs", "evaluate_algebra", "exprs.evaluate_algebra"),
    ("qhopf.cli", "main", "cli.main"),
    ("qhopf.numrep", "build_rep", "numrep.build_rep"),
    ("qhopf.numrep", "evaluate", "numrep.evaluate"),
    ("qhopf.numrep", "numeric_trace", "numrep.numeric_trace"),
    ("qhopf.numrep", "homomorphism_defect", "numrep.homomorphism_defect"),
    ("qhopf.numrep", "relation_defects", "numrep.relation_defects"),
    ("qhopf.numrep", "spectrum_check", "numrep.spectrum_check"),
)

# (class attribute, metric name) of every counted scalar operation; the
# reflected operators are the same functions and count under one name
COUNTED = (
    ("__mul__", "scalars.ParamScalar.mul"),
    ("__rmul__", "scalars.ParamScalar.mul"),
    ("__add__", "scalars.ParamScalar.add"),
    ("__radd__", "scalars.ParamScalar.add"),
)

SPAN_FIELDS = ("id", "parent", "name", "item", "start", "end")


def _resolve(module: str, attr: str):
    owner = sys.modules[module]
    *path, last = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, last


def _rebind(original, wrapper) -> None:
    # every qhopf module attribute that is the original object
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "qhopf" or name.startswith("qhopf.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)


class Tracer:
    """In-memory span recorder for one child process."""

    def __init__(self):
        self.spans: list = []
        self.stats: dict = {}        # name -> [calls, total_s, self_s]
        self.counts: dict = {}       # counted scalar operations
        self.item = -1               # index of the item being run
        self.term_pairs = 0
        self.terms_out = 0
        self.mono_pairs: set = set()
        self.dense_bytes = 0
        self._stack: list = []       # [span id, time covered by children]

    def _span(self, name: str, fn, before=None, after=None):
        spans, stats, stack = self.spans, self.stats, self._stack
        stats[name] = [0, 0.0, 0.0]
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                spans[sid] = (sid, parent, name, tracer.item, t0, t1)
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(a, b):
            counts[name] += 1
            return fn(a, b)

        return wrapper

    def _before_mul(self, x, y):
        self.term_pairs += len(x.terms) * len(y.terms)
        self.mono_pairs.update((s, t) for s in x.terms for t in y.terms)

    def _after_mul(self, out):
        self.terms_out += len(out.terms)

    def _before_evaluate(self, x, rep):
        self.dense_bytes += 16 * rep.dim * rep.dim

    def install(self) -> None:
        """Wrap every binding listed in SPANNED and COUNTED."""
        hooks = {"s3core.mul": (self._before_mul, self._after_mul),
                 "numrep.evaluate": (self._before_evaluate, None)}
        for module, attr, name in SPANNED:
            owner, last = _resolve(module, attr)
            original = getattr(owner, last)
            wrapper = self._span(name, original, *hooks.get(name, ()))
            if isinstance(owner, type):
                setattr(owner, last, wrapper)
            else:
                _rebind(original, wrapper)
        from qhopf.scalars import ParamScalar
        wrapped: dict = {}
        for attr, name in COUNTED:
            original = getattr(ParamScalar, attr)
            if id(original) not in wrapped:
                wrapped[id(original)] = self._count(name, original)
            setattr(ParamScalar, attr, wrapped[id(original)])

    def metrics(self) -> dict:
        """Per-layer values of this process (without the overhead ratio)."""
        out = {}
        for _mod, _attr, name in SPANNED:
            calls, total, self_s = self.stats[name]
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = total
            out[f"{name}.self_s"] = self_s
        out.update({f"{name}.calls": n for name, n in self.counts.items()})
        out["s3core.mul.term_pairs"] = self.term_pairs
        out["s3core.mul.terms_out"] = self.terms_out
        out["s3core.mul.pair_reuse"] = (
            1.0 - len(self.mono_pairs) / self.term_pairs
            if self.term_pairs else 0.0)
        out["numrep.dense_bytes"] = self.dense_bytes
        return out
