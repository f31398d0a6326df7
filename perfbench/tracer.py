"""Span recorder that times the package's layers from outside the package.

`Tracer.install` replaces the functions named in `LAYER_SPANS` (and the two
hot operators, the Grassmann product and the supermatrix product) with
wrappers that record one span per call: name, start, end, parent span and
request id.  Every module binding of a wrapped function is replaced, so a
call made through `from .x import f` is seen as well.  `uninstall` puts the
originals back; nothing under `src/` is edited.

Spans stay in flat integer arrays until `write` saves them.  A span's self
time is its duration minus the durations of its direct children, so the
self times of one request add up to the duration of its root span.
"""

from __future__ import annotations

import sys
from array import array
from time import perf_counter_ns

import numpy as np

# (defining module, function, metric its self time is charged to)
LAYER_SPANS = (
    ("cli", "_load_json", "serialization.parse_ms"),
    ("serialization", "matrix_from_json", "serialization.parse_ms"),
    ("serialization", "gamma_from_json", "serialization.parse_ms"),
    ("serialization", "group_element_from_json", "serialization.parse_ms"),
    ("serialization", "dumps", "serialization.dump_ms"),
    ("serialization", "matrix_to_json", "serialization.dump_ms"),
    ("serialization", "gamma_to_json", "serialization.dump_ms"),
    ("serialization", "group_element_to_json", "serialization.dump_ms"),
    ("canonical", "validate_metric", "canonical.validate_ms"),
    ("canonical", "orthogonalize_even", "canonical.orthogonalize_ms"),
    ("canonical", "odd_complement", "canonical.odd_complement_ms"),
    ("canonical", "symplectic_reduce", "canonical.symplectic_ms"),
    ("canonical", "body_reduce", "canonical.body_reduce_ms"),
    ("canonical", "congruence", "canonical.congruence_ms"),
    ("isometry", "lie_membership", "isometry.lie_membership_ms"),
    ("isometry", "is_isometry", "isometry.is_isometry_ms"),
    ("isometry", "lie_basis", "isometry.lie_basis_ms"),
    ("group", "semidirect_multiply", "group.semidirect_multiply_ms"),
    ("group", "diamond", "group.diamond_ms"),
    ("group", "conjugate_action", "group.conjugate_action_ms"),
    ("group", "embed_isometry", "group.embed_isometry_ms"),
    ("group", "bch_series", "group.bch_series_ms"),
    ("matrices", "exp_zero_body", "matrices.exp_log_ms"),
    ("matrices", "log_unipotent", "matrices.exp_log_ms"),
    ("matrices", "ad_operator", "matrices.ad_operator_ms"),
    ("algebra", "invert", "algebra.invert_ms"),
)
ROOT = "cli.main"
MATMUL = "matrices.SuperMatrix.__matmul__"
MUL = "algebra.Supernumber.__mul__"

# metric of each span name; the root's self time is the CLI's own work
SPAN_METRIC = {f"{mod}.{fn}": metric for mod, fn, metric in LAYER_SPANS}
SPAN_METRIC.update({ROOT: "cli.self_ms", MATMUL: "matrices.matmul_ms",
                    MUL: "algebra.mul_ms"})

# exact per-request counts: span name -> counter
SPAN_COUNT = {
    "isometry.lie_membership": "isometry.lie_membership_calls",
    MATMUL: "matrices.matmul_calls",
    MUL: "algebra.mul_calls",
    "algebra.invert": "algebra.invert_calls",
}


class Tracer:
    """Records spans while installed; `request` tags the spans that follow."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request_of = array("q")
        self.stack = []
        self.request = -1
        self.term_pairs = 0
        self.ad_entries = 0
        self._undo = []

    def _sid(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, sid):
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.request_of.append(self.request)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def _close(self, idx):
        self.end[idx] = perf_counter_ns()
        self.stack.pop()

    def span(self, fn, name):
        """`fn` wrapped so that each call records one span called `name`."""
        sid = self._sid(name)

        def wrapper(*args, **kwargs):
            idx = self._open(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return wrapper

    # -- installation ----------------------------------------------------

    def install(self):
        from supermetric.algebra import Supernumber
        from supermetric.matrices import SuperMatrix

        modules = [m for k, m in sys.modules.items()
                   if k.startswith("supermetric.") and m is not None]
        for mod, fn, _ in LAYER_SPANS:
            original = getattr(sys.modules[f"supermetric.{mod}"], fn)
            wrapped = self.span(original, f"{mod}.{fn}")
            if fn == "ad_operator":
                wrapped = self._count_ad_entries(wrapped)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        self._undo.append((module, attr, original))

        self._patch_method(SuperMatrix, "__matmul__",
                           self.span(SuperMatrix.__matmul__, MATMUL))
        plain_mul = Supernumber.__mul__
        sid = self._sid(MUL)

        def mul(a, b):
            if not isinstance(b, Supernumber):
                return plain_mul(a, b)     # scaling, not a Grassmann product
            self.term_pairs += len(a.terms) * len(b.terms)
            idx = self._open(sid)
            try:
                return plain_mul(a, b)
            finally:
                self._close(idx)
        self._patch_method(Supernumber, "__mul__", mul)

    def _patch_method(self, cls, attr, wrapped):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapped)

    def _count_ad_entries(self, wrapped):
        def ad_operator(*args, **kwargs):
            op = wrapped(*args, **kwargs)
            self.ad_entries += len(op.matrix.rows) ** 2
            return op
        return ad_operator

    def uninstall(self):
        while self._undo:
            target, attr, original = self._undo.pop()
            setattr(target, attr, original)

    # -- reading spans -----------------------------------------------------

    def request_spans(self, first):
        """Self time (ns) and call count per span name, and the inclusive
        duration of each outermost span, for spans from index `first` on."""
        n = len(self.start)
        self_ns = {}
        calls = {}
        dur = [self.end[i] - self.start[i] for i in range(first, n)]
        own = list(dur)
        for i in range(first, n):
            p = self.parent[i]
            if p >= first:
                own[p - first] -= dur[i - first]
        inclusive = {}
        for i in range(first, n):
            name = self.names[self.name_id[i]]
            self_ns[name] = self_ns.get(name, 0) + own[i - first]
            calls[name] = calls.get(name, 0) + 1
            if not self._inside_same(i, first):
                inclusive[name] = inclusive.get(name, 0) + dur[i - first]
        return self_ns, calls, inclusive

    def _inside_same(self, i, first):
        sid = self.name_id[i]
        p = self.parent[i]
        while p >= first:
            if self.name_id[p] == sid:
                return True
            p = self.parent[p]
        return False

    def write(self, path):
        """Save every span as columns: name, start_ns, end_ns, parent,
        request (parent -1 marks a root)."""
        with open(path, "wb") as fh:
            np.savez(fh, names=np.array(self.names),
                     name=np.frombuffer(self.name_id, dtype=np.int64),
                     start_ns=np.frombuffer(self.start, dtype=np.int64),
                     end_ns=np.frombuffer(self.end, dtype=np.int64),
                     parent=np.frombuffer(self.parent, dtype=np.int64),
                     request=np.frombuffer(self.request_of, dtype=np.int64))
