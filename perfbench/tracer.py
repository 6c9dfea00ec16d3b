"""Span tracing and scalar-operation counting for the ualie layers.

Nothing here edits the package: a `Tracer` replaces callables with timing
wrappers at run time and puts the originals back on `remove()`.

* Every public module-level function of the traced layers is wrapped, plus
  the methods in `METHODS` and the private functions in `PRIVATE` that a
  per-layer metric names.  A wrapper is installed in *every* ``ualie``
  module namespace that bound the function (``kernel_dim_fast`` lives in
  ``linalg``, ``liecore`` and ``analysis``), so calls are caught whichever
  name they go through.
* A span is ``[name, start, end, parent, op, size, result]``: ``parent`` is
  the index of the enclosing span (-1 at the top), ``op`` the id of the
  benchmark op that caused it, ``size`` the matrix cells of an elimination
  and ``result`` the count returned by a bijection count.  Spans stay in
  memory until the run ends.
* `FieldOpCounter` counts calls to add/sub/mul/div/inv on the field classes.
  It runs in a pass of its own, because wrapping methods that run millions
  of times would swamp the span times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("scalars", "linalg", "_kernels", "liecore", "constructions", "analysis", "finite", "cli")

# methods and private functions that per-layer metrics name; spans are called
# "<layer>.<attribute>" with the leading underscore of `_kernels` dropped
METHODS = {
    "linalg": {"Subspace": ("from_spanning", "contains", "intersect")},
    "liecore": {
        "StructureConstantAlgebra": (
            "ad_matrix", "basis_ads", "centralizer", "center",
            "mutual_centralizer_dim", "derived_subalgebra", "validate",
        )
    },
    "finite": {"FiniteLieRing": ("from_json_dict", "validate")},
}
PRIVATE = {"analysis": ("_verify_witness_exactly",)}

# cells = rows * cols of the matrix an elimination works on
SIZE = {
    "linalg.rref": lambda m: m.rows * m.cols,
    "kernels.rank_mod_p": lambda entries, rows, cols, p: rows * cols,
    "kernels.int_rank": lambda entries, rows, cols: rows * cols,
}
RESULT = {"finite.commutator_bijections": lambda out: out[0]}

FIELD_OPS = ("add", "sub", "mul", "div", "inv")


def traced_callables():
    """Yield ``(span name, owner, attribute, original)`` for every target.

    ``owner`` is the class for methods and None for module functions, whose
    bindings are found by scanning the module namespaces.
    """
    for layer in LAYERS:
        mod = importlib.import_module(f"ualie.{layer}")
        prefix = layer.lstrip("_")
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            yield f"{prefix}.{attr}", None, attr, obj
        for cls_name, methods in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                yield f"{prefix}.{meth}", cls, meth, cls.__dict__[meth]


class Tracer:
    """Installs span wrappers on the ualie layers and records spans."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patches: list = []  # (module or class, attribute, original, span name)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        names = set()
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "ualie" or n.startswith("ualie."))]
        for name, owner, attr, original in list(traced_callables()):
            if name in names:
                raise RuntimeError(f"duplicate span name {name}")
            names.add(name)
            if owner is not None:
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                self._patch(owner, attr, wrapped, name)
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped, name)

    def bindings(self, name: str):
        """Names of the modules or classes where span ``name`` is installed."""
        return sorted(owner.__name__ for owner, _, _, n in self._patches if n == name)

    def remove(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, wrapped, name):
        self._patches.append((owner, attr, owner.__dict__[attr], name))
        setattr(owner, attr, wrapped)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        size_of, result_of = SIZE.get(name), RESULT.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            size = size_of(*args, **kwargs) if size_of is not None else 0
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op, size, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if result_of is not None:
                rec[6] = result_of(out)
            return out

        return traced


class FieldOpCounter:
    """Counts add/sub/mul/div/inv calls on every field class of ualie.scalars."""

    def __init__(self):
        self._cell = [0]
        self._patches: list = []

    @property
    def count(self) -> int:
        return self._cell[0]

    def install(self):
        from ualie import scalars

        cell = self._cell
        for cls in (scalars.Rationals, scalars.PrimeField, scalars.ExtensionField):
            for op in FIELD_OPS:
                original = cls.__dict__[op]

                def counted(*args, _fn=original):
                    cell[0] += 1
                    return _fn(*args)

                self._patches.append((cls, op, original))
                setattr(cls, op, counted)

    def remove(self):
        for cls, op, original in reversed(self._patches):
            setattr(cls, op, original)
        self._patches.clear()


# ---------------------------------------------------------------------------
# reading spans


def self_times(spans):
    """Per-span self time: duration minus the time its child spans cover.

    Spans come from nested wrapper calls on one thread, so children of a
    span are disjoint sub-intervals of it.
    """
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - child[i] for i, rec in enumerate(spans)]


def outermost(spans, idx, pred):
    """True when no ancestor of span ``idx`` satisfies ``pred``."""
    parent = spans[idx][3]
    while parent >= 0:
        if pred(spans[parent][0]):
            return False
        parent = spans[parent][3]
    return True


def has_ancestor(spans, idx, name):
    return not outermost(spans, idx, lambda n: n == name)


def self_time_tree(spans):
    """Aggregate spans by call path: ``{path: [calls, inclusive_s, self_s]}``."""
    selfs = self_times(spans)
    paths: list = [None] * len(spans)
    tree: dict = {}
    for i, rec in enumerate(spans):
        parent = rec[3]
        paths[i] = (paths[parent] if parent >= 0 else ()) + (rec[0],)
        node = tree.setdefault(paths[i], [0, 0.0, 0.0])
        node[0] += 1
        node[1] += rec[2] - rec[1]
        node[2] += selfs[i]
    return tree


def layer_metrics(spans):
    """Per-layer metrics that can be read off the spans alone."""
    selfs = self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    incl_s: dict = {}
    cells: dict = {}
    for i, rec in enumerate(spans):
        name = rec[0]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]
        cells[name] = cells.get(name, 0) + rec[5]
        if outermost(spans, i, lambda n, name=name: n == name):
            incl_s[name] = incl_s.get(name, 0.0) + rec[2] - rec[1]

    build_s = sum(
        rec[2] - rec[1]
        for i, rec in enumerate(spans)
        if rec[0].startswith("constructions.build_")
        and outermost(spans, i, lambda n: n.startswith("constructions.build_"))
    )
    elim = ("linalg.rref", "kernels.rank_mod_p", "kernels.int_rank")
    c_elims = sum(1 for i, rec in enumerate(spans)
                  if rec[0] in elim and has_ancestor(spans, i, "analysis.c_condition"))
    kdf = calls.get("linalg.kernel_dim_fast", 0)
    kdf_int_rank = sum(1 for i, rec in enumerate(spans)
                       if rec[0] == "kernels.int_rank"
                       and has_ancestor(spans, i, "linalg.kernel_dim_fast"))
    counted = [rec for rec in spans if rec[0] == "finite.commutator_bijections" and rec[6] is not None]
    maps = sum(rec[6] for rec in counted)
    maps_s = sum(rec[2] - rec[1] for rec in counted)
    int_rank_idx = {i for i, rec in enumerate(spans) if rec[0] == "kernels.int_rank"}
    with_modp = {rec[3] for rec in spans if rec[0] == "kernels.rank_mod_p" and rec[3] in int_rank_idx}

    c = lambda n: calls.get(n, 0)  # noqa: E731
    s = lambda n: incl_s.get(n, 0.0)  # noqa: E731
    ss = lambda n: self_s.get(n, 0.0)  # noqa: E731
    return {
        "linalg.rref.calls": c("linalg.rref"),
        "linalg.rref.self_s": ss("linalg.rref"),
        "linalg.rref.cells": cells.get("linalg.rref", 0),
        "linalg.kernel.calls": c("linalg.kernel"),
        "linalg.kernel.self_s": ss("linalg.kernel"),
        "linalg.intersect.calls": c("linalg.intersect"),
        "linalg.intersect.s": s("linalg.intersect"),
        "analysis.reverify.s": s("analysis._verify_witness_exactly"),
        "linalg.integerized_entries.self_s": ss("linalg.integerized_entries"),
        "linalg.kernel_dim_fast.calls": kdf,
        "kernels.rank_mod_p.calls": c("kernels.rank_mod_p"),
        "kernels.rank_mod_p.self_s": ss("kernels.rank_mod_p"),
        "kernels.rank_mod_p.cells": cells.get("kernels.rank_mod_p", 0),
        "kernels.int_rank.calls": c("kernels.int_rank"),
        "kernels.int_rank.self_s": ss("kernels.int_rank"),
        "kernels.modp_certified_frac": (kdf - kdf_int_rank) / kdf if kdf else 0.0,
        "kernels.int_rank.modp_child_frac": len(with_modp) / len(int_rank_idx) if int_rank_idx else 0.0,
        "liecore.center.calls": c("liecore.center"),
        "liecore.center.s": s("liecore.center"),
        "liecore.derived_subalgebra.s": s("liecore.derived_subalgebra"),
        "liecore.ad_matrix.calls": c("liecore.ad_matrix"),
        "liecore.ad_matrix.self_s": ss("liecore.ad_matrix"),
        "liecore.mutual_centralizer_dim.calls": c("liecore.mutual_centralizer_dim"),
        "liecore.centralizer.s": s("liecore.centralizer"),
        "liecore.validate.s": s("liecore.validate"),
        "constructions.build.s": build_s,
        "analysis.verdict.self_s": ss("analysis.verdict"),
        "analysis.c_condition.s": s("analysis.c_condition"),
        "analysis.c_condition.eliminations": c_elims,
        "analysis.negative_criterion.s": s("analysis.negative_criterion"),
        "analysis.check_ample.s": s("analysis.check_ample"),
        "finite.from_algebra.s": s("finite.from_algebra"),
        "finite.ring_validate.s": s("finite.validate"),
        "finite.commutator_bijections.s": s("finite.commutator_bijections"),
        "finite.is_wua.s": s("finite.is_wua"),
        "finite.ua_against.s": s("finite.ua_against"),
        "finite.naive.s": s("finite.naive_commutator_bijections"),
        "finite.maps_counted": maps,
        "finite.maps_per_s": maps / maps_s if maps_s else 0.0,
    }
