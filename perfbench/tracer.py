"""Spans around the program's public functions, recorded from outside.

The tracer wraps functions and methods of the loaded `supvar` modules; the
program's own files are untouched.  Every call of a wrapped function is one
span: its name, the span that was open when it started, its start and end,
and whether it is the outermost open span of that name.  Spans are kept in
flat in-memory arrays and written out once, when the traced process ends.

`summarize` turns spans into per-name call counts, inclusive time of the
outermost spans and self time (a span's duration minus the time its child
spans cover), and `layer_metrics` turns those into the benchmark's
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np


def _matmul_name(args):
    return "linalg.matmul.prime" if args[0].n == 1 else "linalg.matmul.ext"


def _matmul_ops(counters, args, result):
    F, A, B = args[0], args[1], args[2]
    m, k = A.shape
    n = B.shape[1] if B.ndim == 2 else 1
    _add(counters, "linalg.matmul.ops", m * k * n * F.n * F.n)


def _rref_cells(counters, args, result):
    m, n = args[1].shape
    _add(counters, "linalg.rref.cells", m * n)
    size = max(m, n)
    if size <= 16:
        _add(counters, "linalg.rref.le16.calls", 1)
    elif size > 64:
        _add(counters, "linalg.rref.gt64.calls", 1)


def _solve_candidates(counters, args, result):
    ideal = args[0]
    field = args[1] if len(args) > 1 and args[1] is not None else ideal.target.field
    _add(counters, "superalg.homscheme.solve.candidates", field.q ** len(ideal.even_variable_names()))
    _add(counters, "superalg.homscheme.solve.solutions", len(result))


def _support_points(counters, args, result):
    _add(counters, "varieties.support_points", len(result.points))


# (module, attribute path, span name or a function of the positional
# arguments giving one, counter hook).  A counter hook gets (counters, args,
# result) after the call returns.
TARGETS = [
    ("supvar.cli", "main", "cli.main", None),
    ("supvar.gfield", "FieldElement.__mul__", "gfield.elem", None),
    ("supvar.gfield", "FieldElement.__add__", "gfield.elem", None),
    ("supvar.gfield", "FieldElement.__pow__", "gfield.elem", None),
    ("supvar.gfield", "FieldElement.inverse", "gfield.elem", None),
    ("supvar.linalg", "GFTables.__init__", "linalg.tables", None),
    ("supvar.linalg", "matmul", _matmul_name, _matmul_ops),
    ("supvar.linalg", "rref", "linalg.rref", _rref_cells),
    ("supvar.linalg", "rank", "linalg.rank", None),
    ("supvar.linalg", "matpow", "linalg.matpow", None),
    ("supvar.linalg", "complement_coords", "linalg.complement_coords", None),
    ("supvar.linalg", "solve", "linalg.solve", None),
    ("supvar.linalg", "right_kernel", "linalg.right_kernel", None),
    ("supvar.superalg.algebra", "build_group_algebra", "superalg.build", None),
    ("supvar.superalg.algebra", "verify_algebra", "superalg.verify", None),
    ("supvar.superalg.algebra", "verify_hopf", "superalg.verify", None),
    ("supvar.superalg.homscheme", "hom_scheme_ideal", "superalg.homscheme.ideal", None),
    ("supvar.superalg.homscheme", "SuperPoly.__mul__", "superalg.homscheme.polymul", None),
    ("supvar.superalg.homscheme", "PolynomialIdeal.render", "superalg.homscheme.render", None),
    (
        "supvar.superalg.homscheme",
        "solve_even_points",
        "superalg.homscheme.solve",
        _solve_candidates,
    ),
    ("supvar.superalg.morphisms", "classify_quotient", "superalg.classify", None),
    ("supvar.smod", "module_from_json", "smod.module_from_json", None),
    ("supvar.smod", "extend_scalars", "smod.extend_scalars", None),
    ("supvar.smod", "p1_view", "smod.p1_view", None),
    ("supvar.smod", "P1ModuleView.validate", "smod.validate", None),
    ("supvar.smod", "p1_dual", "smod.p1_dual", None),
    ("supvar.smod", "p1_tensor", "smod.p1_tensor", None),
    ("supvar.homalg", "pd_class", "homalg.pd_class", None),
    ("supvar.homalg", "p1_hom_complex", "homalg.hom_complex", None),
    ("supvar.homalg", "CochainComplex.__post_init__", "homalg.complex_check", None),
    ("supvar.homalg", "CochainComplex.cohomology_dims", "homalg.cohomology", None),
    ("supvar.homalg", "ext_dims", "homalg.ext_dims", None),
    ("supvar.homalg", "resolution_of_trivial", "homalg.resolution", None),
    ("supvar.homalg", "minimal_resolution", "homalg.resolution", None),
    ("supvar.varieties", "enumerate_points", "varieties.enumerate_points", None),
    ("supvar.varieties", "point_pullback", "varieties.point_pullback", None),
    ("supvar.varieties", "point_images", "varieties.point_images", None),
    ("supvar.varieties", "validate_point_images", "varieties.validate_point_images", None),
    ("supvar.varieties", "support_set", "varieties.support_set", _support_points),
]


def _add(counters, name, n):
    counters[name] = counters.get(name, 0) + n


class Tracer:
    """In-memory span recorder.  One per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = []
        self._active = []
        self.originals = []  # (original, wrapper) pairs, for rebinding

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def wrap(self, fn, name, hook=None):
        """A wrapper of fn that records one span per call.  `name` is the
        span name, or a function of the call's positional arguments."""
        clock = self.clock
        stack, active = self._stack, self._active
        names, parent, outer = self.name, self.parent, self.outer
        start, end = self.start, self.end
        counters = self.counters
        fixed = self.name_id(name) if isinstance(name, str) else None
        name_id = self.name_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = fixed if fixed is not None else name_id(name(args))
            idx = len(names)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(active[nid] == 0)
            end.append(0.0)
            active[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                active[nid] -= 1
            if hook is not None:
                hook(counters, args, result)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def install(self, targets=TARGETS):
        """Wrap every target and rebind it wherever the loaded `supvar`
        modules (and classes) hold the original, so that names bound by
        `from ... import` and aliases such as `__radd__ = __add__` are
        traced too."""
        for modname, path, name, hook in targets:
            mod = importlib.import_module(modname)
            owner = mod
            *outer_attrs, attr = path.split(".")
            for part in outer_attrs:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if getattr(original, "__wrapped_by_tracer__", False):
                raise ValueError(f"{modname}.{path} is already traced")
            wrapper = self.wrap(original, name, hook)
            self.originals.append((original, wrapper))
        swap = {id(o): w for o, w in self.originals}
        for scope in _supvar_scopes():
            for key, value in list(vars(scope).items()):
                w = swap.get(id(value))
                if w is not None:
                    setattr(scope, key, w)

    def arrays(self):
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int32),
            "outer": np.asarray(self.outer, dtype=bool),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
        }

    def dump(self, path):
        """Write the spans, names and counters to one .npz file."""
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            counter_names=np.array(list(self.counters), dtype=str),
            counter_values=np.array(list(self.counters.values()), dtype=np.float64),
            **a,
        )


def _supvar_scopes():
    """Every loaded supvar module and every class defined in one."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "supvar" or modname.startswith("supvar.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__ == modname:
                yield value


def summarize(names, name, parent, outer, start, end):
    """Per span name: {"calls", "incl", "self"}.

    `incl` sums the durations of the outermost spans of the name, so a
    recursive or nested call is not counted twice; `self` sums each span's
    duration minus the durations of its direct children.
    """
    dur = end - start
    n = len(names)
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    if has_parent.any():
        covered += np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - covered
    calls = np.bincount(name, minlength=n)
    incl = np.bincount(name[outer], weights=dur[outer], minlength=n)
    selfs = np.bincount(name, weights=self_t, minlength=n)
    return {
        names[i]: {"calls": int(calls[i]), "incl": float(incl[i]), "self": float(selfs[i])}
        for i in range(n)
    }


def load(path):
    """(span summary, counters) of one dumped trace file."""
    with np.load(path, allow_pickle=False) as z:
        names = [str(x) for x in z["names"]]
        spans = summarize(names, z["name"], z["parent"], z["outer"], z["start"], z["end"])
        counters = dict(zip((str(x) for x in z["counter_names"]), z["counter_values"].tolist()))
    return spans, counters


def merge(into_spans, into_counters, spans, counters):
    """Add one job's summary into a pass total."""
    for k, v in spans.items():
        acc = into_spans.setdefault(k, {"calls": 0, "incl": 0.0, "self": 0.0})
        for f in acc:
            acc[f] += v[f]
    for k, v in counters.items():
        into_counters[k] = into_counters.get(k, 0) + v


def _ratio(num, den):
    return num / den if den else 0.0


# Per-layer metric name -> (unit, function of (spans, counters)).
def _calls(name):
    return lambda s, c: s.get(name, {}).get("calls", 0)


def _incl(*names):
    return lambda s, c: sum(s.get(n, {}).get("incl", 0.0) for n in names)


def _self(name):
    return lambda s, c: s.get(name, {}).get("self", 0.0)


def _count(name):
    return lambda s, c: c.get(name, 0)


_MATMUL = ("linalg.matmul.prime", "linalg.matmul.ext")

LAYER_METRICS = {
    "cli.main.s": ("s", _incl("cli.main")),
    "gfield.elem_ops": ("count", _calls("gfield.elem")),
    "gfield.elem.s": ("s", _incl("gfield.elem")),
    "linalg.matmul.calls": ("count", lambda s, c: sum(_calls(n)(s, c) for n in _MATMUL)),
    "linalg.matmul.s": ("s", _incl(*_MATMUL)),
    "linalg.matmul.ops": ("count", _count("linalg.matmul.ops")),
    "linalg.matmul.prime.s": ("s", _incl("linalg.matmul.prime")),
    "linalg.matmul.ext.s": ("s", _incl("linalg.matmul.ext")),
    "linalg.rref.calls": ("count", _calls("linalg.rref")),
    "linalg.rref.s": ("s", _incl("linalg.rref")),
    "linalg.rref.cells": ("count", _count("linalg.rref.cells")),
    "linalg.rref.le16.calls": ("count", _count("linalg.rref.le16.calls")),
    "linalg.rref.gt64.calls": ("count", _count("linalg.rref.gt64.calls")),
    "linalg.rank.calls": ("count", _calls("linalg.rank")),
    "linalg.rank.s": ("s", _incl("linalg.rank")),
    "linalg.matpow.calls": ("count", _calls("linalg.matpow")),
    "linalg.matpow.s": ("s", _incl("linalg.matpow")),
    "linalg.complement_coords.calls": ("count", _calls("linalg.complement_coords")),
    "linalg.complement_coords.s": ("s", _incl("linalg.complement_coords")),
    "linalg.solve.s": ("s", _incl("linalg.solve")),
    "linalg.right_kernel.s": ("s", _incl("linalg.right_kernel")),
    "linalg.tables.s": ("s", _incl("linalg.tables")),
    "superalg.build.calls": ("count", _calls("superalg.build")),
    "superalg.build.s": ("s", _incl("superalg.build")),
    "superalg.verify.s": ("s", _incl("superalg.verify")),
    "superalg.homscheme.ideal.s": ("s", _incl("superalg.homscheme.ideal")),
    "superalg.homscheme.polymul.calls": ("count", _calls("superalg.homscheme.polymul")),
    "superalg.homscheme.polymul.s": ("s", _incl("superalg.homscheme.polymul")),
    "superalg.homscheme.polymul.self_s": ("s", _self("superalg.homscheme.polymul")),
    "superalg.homscheme.render.s": ("s", _incl("superalg.homscheme.render")),
    "superalg.homscheme.solve.s": ("s", _incl("superalg.homscheme.solve")),
    "superalg.homscheme.solve.candidates": (
        "count",
        _count("superalg.homscheme.solve.candidates"),
    ),
    "superalg.homscheme.solve.hit_ratio": (
        "ratio",
        lambda s, c: _ratio(
            c.get("superalg.homscheme.solve.solutions", 0),
            c.get("superalg.homscheme.solve.candidates", 0),
        ),
    ),
    "superalg.classify.s": ("s", _incl("superalg.classify")),
    "smod.module_from_json.s": ("s", _incl("smod.module_from_json")),
    "smod.extend_scalars.s": ("s", _incl("smod.extend_scalars")),
    "smod.p1_view.calls": ("count", _calls("smod.p1_view")),
    "smod.p1_view.s": ("s", _incl("smod.p1_view")),
    "smod.validate.calls": ("count", _calls("smod.validate")),
    "smod.validate.s": ("s", _incl("smod.validate")),
    "smod.p1_dual.s": ("s", _incl("smod.p1_dual")),
    "smod.p1_tensor.s": ("s", _incl("smod.p1_tensor")),
    "homalg.pd_class.calls": ("count", _calls("homalg.pd_class")),
    "homalg.pd_class.s": ("s", _incl("homalg.pd_class")),
    "homalg.hom_complex.s": ("s", _incl("homalg.hom_complex")),
    "homalg.complex_check.s": ("s", _incl("homalg.complex_check")),
    "homalg.cohomology.s": ("s", _incl("homalg.cohomology")),
    "homalg.ext_dims.s": ("s", _incl("homalg.ext_dims")),
    "homalg.resolution.s": ("s", _incl("homalg.resolution")),
    "varieties.enumerate_points.s": ("s", _incl("varieties.enumerate_points")),
    "varieties.points_tested": ("count", _calls("varieties.point_pullback")),
    "varieties.support_ratio": (
        "ratio",
        lambda s, c: _ratio(
            c.get("varieties.support_points", 0), _calls("varieties.point_pullback")(s, c)
        ),
    ),
    "varieties.point_images.s": ("s", _incl("varieties.point_images")),
    "varieties.validate_point_images.s": ("s", _incl("varieties.validate_point_images")),
    "varieties.point_loop.self_s": ("s", _self("varieties.support_set")),
}


def layer_metrics(spans, counters):
    """Every per-layer metric of one pass, as {name: (value, unit)}."""
    return {k: (fn(spans, counters), unit) for k, (unit, fn) in LAYER_METRICS.items()}
