"""The benchmark's workloads: seeded inputs, job lists and output checks.

Every job is one `supvar` command line.  Inputs are JSON files written into
the work directory before any pass starts; the program only ever sees
those files and its argv.  A workload's job list is fixed; the seed chooses
the modules (and the classifier's target) but never the sizes, so every
seed costs about the same.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, replace

WORKLOADS = ("support-sweep", "resolve-ext", "hom-scheme")

# Prime-field scalars that define L_{(mu,a)} modules: (mu, a) != (0, 0).
_L_PARAMS = [(mu, a) for mu in range(3) for a in range(3) if (mu, a) != (0, 0)]

# Random modules are drawn until their dimension hits the target, so the
# cost of a pass does not depend on the seed.
_RANDOM_TARGETS = {
    "m21": ("M21", 9),
    "m12": ("M12", 5),
    "m11p5": ("M11p5", 5),
}

GROUPS = {
    "M11": {"family": "Mrs", "p": 3, "r": 1, "s": 1, "eta": "0"},
    "M21": {"family": "Mrs", "p": 3, "r": 2, "s": 1, "eta": "0"},
    "M12": {"family": "Mrs", "p": 3, "r": 1, "s": 2, "eta": "0"},
    "M22": {"family": "Mrs", "p": 3, "r": 2, "s": 2, "eta": "0"},
    "M11p5": {"family": "Mrs", "p": 5, "r": 1, "s": 1, "eta": "0"},
    "M11p7": {"family": "Mrs", "p": 7, "r": 1, "s": 1, "eta": "0"},
    "Ga1": {"family": "Gar", "p": 3, "r": 1},
    "Ga3": {"family": "Gar", "p": 3, "r": 3},
    "GaMinus": {"family": "GaMinus", "p": 3},
}


@dataclass(frozen=True)
class Job:
    """One CLI run.  `name` is unique within its workload; `inputs` are the
    work-directory files the job reads; `check` names a per-job output
    check in CHECKS (or is empty); a `probe` runs in traced passes only."""

    name: str
    argv: tuple
    inputs: tuple = ()
    check: str = ""
    probe: bool = False


def _g(key):
    return f"{key}.json"


def _support(name, group, module, field):
    return Job(
        name,
        ("support", "-g", _g(group), "-m", module, "-F", field),
        (_g(group), module),
        "zero_in_support",
    )


def _resolve(name, group, steps):
    check = "resolve_ranks" if group in ("M11", "M11p5") else ""
    return Job(name, ("resolve", "-g", _g(group), "-n", str(steps)), (_g(group),), check)


def _ext(name, module, degree):
    return Job(
        name, ("ext", "-g", "p1", "-m", module, "-d", str(degree)), (module,), "ext_periodic"
    )


def _points(name, group, field, solve=False):
    argv = ("points", "-g", _g(group), "-F", field) + (("--method", "solve") if solve else ())
    return Job(name, argv, (_g(group),))


def _homscheme(name, source, target):
    src = source if source == "p1" else json.dumps(source, sort_keys=True)
    return Job(name, ("homscheme", "--source", src, "--target", _g(target)), (_g(target),))


# Probes: one small call into each layer that a workload's own jobs do not
# reach, so that a traced run measures every per-layer metric on every
# workload (a layer that is never entered would report a time of exactly 0).
# They run in traced passes only, so the end-to-end metrics, which come
# from untraced passes, measure the workload's own jobs alone.
_PROBES = {
    "support": _support("probe.support.LM.F9", "M11", "LM.json", "3^2"),
    "resolve": _resolve("probe.resolve.M11.n4", "M11", 4),
    "ext": _ext("probe.ext.LM.d4", "LM.json", 4),
    "homscheme": _homscheme("probe.homscheme.P1.M11", "p1", "M11"),
    "solve": _points("probe.points.M11.F3.solve", "M11", "3^1", solve=True),
    "classify": Job(
        "probe.classify", ("classify", "-f", "quotient.json"), ("quotient.json",), "classify_label"
    ),
}


def _probes(*names):
    return [replace(_PROBES[n], probe=True) for n in names]


# Jobs of each workload, in pass order, probes last.  `quick` keeps one
# small job per workload for the benchmark's own tests.
_JOBS = {
    "support-sweep": [
        _support("support.L.F27", "M11", "L1.json", "3^3"),
        _support("support.M21.F9", "M21", "m21.json", "3^2"),
        _support("support.M12.F9", "M12", "m12.json", "3^2"),
        _support("support.M11p5.F25", "M11p5", "m11p5.json", "5^2"),
        _support("support.LM.F9", "M11", "LM.json", "3^2"),
        _support("support.LN.F9", "M11", "LN.json", "3^2"),
        _support("support.LMxLN.F9", "M11", "LMxLN.json", "3^2"),
    ]
    + _probes("resolve", "ext", "homscheme", "solve", "classify"),
    "resolve-ext": [
        _resolve("resolve.M11.n30", "M11", 30),
        _resolve("resolve.M11p5.n15", "M11p5", 15),
        _resolve("resolve.M21.n5", "M21", 5),
        _ext("ext.L.d1000", "L1.json", 1000),
        _ext("ext.M21.d150", "m21.json", 150),
    ]
    + _probes("support", "homscheme", "solve", "classify"),
    "hom-scheme": [
        _homscheme("homscheme.P3.Ga3", {"p": 3, "r": 3}, "Ga3"),
        _homscheme("homscheme.P2.M22", {"p": 3, "r": 2}, "M22"),
        _homscheme("homscheme.P1.M11p7", "p1", "M11p7"),
        _points("points.M11.F3", "M11", "3^1"),
        _points("points.M11.F3.solve", "M11", "3^1", solve=True),
        _points("points.Ga1.F81", "Ga1", "3^4"),
        _points("points.Ga1.F81.solve", "Ga1", "3^4", solve=True),
        _points("points.GaMinus.F81", "GaMinus", "3^4"),
        _points("points.GaMinus.F81.solve", "GaMinus", "3^4", solve=True),
        Job("classify", ("classify", "-f", "quotient.json"), ("quotient.json",), "classify_label"),
    ]
    + _probes("support", "resolve", "ext"),
}

_QUICK = {
    "support-sweep": ["support.LM.F9"],
    "resolve-ext": ["ext.L.d1000"],
    "hom-scheme": ["points.M11.F3.solve"],
}


def jobs(workload: str, quick: bool = False) -> list:
    if workload not in _JOBS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    out = _JOBS[workload]
    if quick:
        keep = set(_QUICK[workload])
        out = [j for j in out if j.name in keep]
    return list(out)


# -- inputs ---------------------------------------------------------------


def _write(workdir, name, data):
    with open(os.path.join(workdir, name), "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _seeded_module(rng, spec, target_dim):
    from supvar.gfield import make_field
    from supvar.smod import random_module
    from supvar.superalg.algebra import build_group_algebra

    alg, _ = build_group_algebra(spec, make_field(spec.p, 1))
    for _ in range(400):
        M = random_module(rng.randrange(2**31), alg, target_dim)
        if M.dim == target_dim:
            return M
    raise RuntimeError(f"no random module of dimension {target_dim} for {spec.label()}")


def make_inputs(workdir: str, seed: int) -> dict:
    """Write every input file of every workload; returns the seeded choices
    that the checks need (the classifier's expected label)."""
    from supvar.gfield import make_field
    from supvar.smod import build_L, module_to_json, tensor_module
    from supvar.superalg.algebra import GroupAlgebraSpec

    rng = random.Random(seed)
    for key, spec in GROUPS.items():
        _write(workdir, _g(key), spec)

    F3 = make_field(3, 1)

    def L(params):
        mu, a = params
        return build_L(F3.element(mu), F3.element(a))

    L1 = L(rng.choice(_L_PARAMS))
    LM = L(rng.choice(_L_PARAMS))
    LN = L(rng.choice(_L_PARAMS))
    _write(workdir, "L1.json", module_to_json(L1))
    _write(workdir, "LM.json", module_to_json(LM))
    _write(workdir, "LN.json", module_to_json(LN))
    _write(workdir, "LMxLN.json", module_to_json(tensor_module(LM, LN)))

    for fname, (group, dim) in _RANDOM_TARGETS.items():
        spec = GroupAlgebraSpec.from_json(GROUPS[group])
        _write(workdir, f"{fname}.json", module_to_json(_seeded_module(rng, spec, dim)))

    # The quotient P_1 -> M_{1;1,eta} sending u0 and v to the basis
    # elements 1 and 3 of the 6-dimensional target.
    def basis(i):
        return ["1" if j == i else "0" for j in range(6)]

    eta = rng.randrange(3)
    quot = {
        "p": 3,
        "r": 1,
        "field": "3",
        "target": dict(GROUPS["M11"], eta=str(eta)),
        "images": {"u0": basis(1), "v": basis(3)},
    }
    _write(workdir, "quotient.json", quot)
    label = f"M_{{1;1,{eta}}}" if eta else "M_{1;1}"
    return {"classify_label": label}


# -- checks ---------------------------------------------------------------
#
# A check returns None when the output is right, else a one-line reason.
# Per-job checks see one job's stdout; cross checks see the stdout of every
# job of the pass and name the job they fail.


def _lines(out):
    return [ln for ln in out.splitlines() if ln]


def _zero_in_support(out, job, ctx):
    pts = _lines(out)
    if not pts:
        return "empty support of a nonzero module"
    if not any(all(set(c) <= {"0", ":"} for c in pt.split(",")) for pt in pts):
        return "zero point missing from the support"
    return None


def _resolve_ranks(out, job, ctx):
    steps = int(job.argv[job.argv.index("-n") + 1])
    rows = _lines(out)
    if len(rows) != steps + 1:
        return f"resolve printed {len(rows)} rows, expected {steps + 1}"
    for n, row in enumerate(rows):
        deg, ranks = row.split(": ")
        e, o = ranks.split("|")
        if int(deg) != n or int(e) + int(o) != n + 1:
            return f"resolve row {row!r}: total rank is not {n + 1}"
    return None


def _ext_periodic(out, job, ctx):
    degree = int(job.argv[job.argv.index("-d") + 1])
    rows = [row.split(": ")[1] for row in _lines(out)]
    if len(rows) != degree + 1:
        return f"ext printed {len(rows)} rows, expected {degree + 1}"
    # Degrees >= 1 of the complex alternate the differentials of phi and
    # psi, so cohomology is 2-periodic from degree 2 on.
    for i in range(4, len(rows)):
        if rows[i] != rows[i - 2]:
            return f"ext row {i} differs from row {i - 2}: not 2-periodic from degree 2"
    return None


def _classify_label(out, job, ctx):
    want = ctx["classify_label"]
    return None if out.strip() == want else f"classify printed {out.strip()!r}, expected {want!r}"


CHECKS = {
    "zero_in_support": _zero_in_support,
    "resolve_ranks": _resolve_ranks,
    "ext_periodic": _ext_periodic,
    "classify_label": _classify_label,
}


def _tensor_support(outs):
    m, n, mn = outs["support.LM.F9"], outs["support.LN.F9"], outs["support.LMxLN.F9"]
    if set(_lines(mn)) != set(_lines(m)) & set(_lines(n)):
        return "support(M (x) N) != support(M) & support(N)"
    return None


def _solve_matches(param, solve):
    def check(outs):
        if outs[solve] != outs[param]:
            return f"points --method solve differs from points ({param})"
        return None

    return check


# (job that fails, jobs read, check)
CROSS_CHECKS = [
    ("support.LMxLN.F9", ("support.LM.F9", "support.LN.F9", "support.LMxLN.F9"), _tensor_support),
] + [
    (f"{base}.solve", (base, f"{base}.solve"), _solve_matches(base, f"{base}.solve"))
    for base in ("points.M11.F3", "points.Ga1.F81", "points.GaMinus.F81")
]
