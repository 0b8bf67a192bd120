"""Command-line front end.

Inputs are JSON (group specs and module files); outputs are deterministic
sorted text, one item per line, so golden-file comparisons are exact.
Exit codes: 0 success, 2 validation error, 3 bound exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BoundExceeded, ValidationError
from .gfield import make_field, parse_element, parse_field
from .smod import (
    P1ModuleView,
    SuperModule,
    build_L,
    module_from_json,
    module_to_json,
    p1_view_from_module,
)
from .superalg.algebra import GroupAlgebraSpec, build_group_algebra
from .superalg.homscheme import check_source, hom_scheme_ideal
from .superalg.morphisms import SuperalgebraMorphism, classify_quotient
from .superalg.pr import PrPresentation
from .homalg import (
    EXT_DEGREE_CAP,
    RESOLVE_STEPS_CAP,
    check_depth,
    ext_dims,
    pd_class,
    resolution_of_trivial,
)
from .varieties import (
    GroupPoint,
    check_point,
    enumerate_points,
    point_pullback,
    psi_map,
    support_set,
)


def _load_json(arg: str):
    """Accept a path to a JSON file or inline JSON text."""
    if os.path.exists(arg):
        with open(arg) as fh:
            try:
                return json.load(fh)
            except json.JSONDecodeError as e:
                raise ValidationError(f"malformed JSON in {arg}: {e}") from None
    arg = arg.strip()
    if arg.startswith("{"):
        try:
            return json.loads(arg)
        except json.JSONDecodeError as e:
            raise ValidationError(f"malformed inline JSON: {e}") from None
    raise ValidationError(f"no such file: {arg}")


def parse_spec(arg: str):
    """Group spec from a path, inline JSON, or the shorthand 'p1'/'p<r>'."""
    if arg.strip().lower() == "p1":
        return "P1"
    return GroupAlgebraSpec.from_json(_load_json(arg))


def _parse_point(spec, field, text):
    parts = [s for s in text.split(",") if s != ""]
    pt = GroupPoint(tuple(parse_element(field, s) for s in parts))
    check_point(spec, pt)
    return pt


def _module_as_p1(mod, grp):
    if isinstance(mod, P1ModuleView):
        return mod
    return p1_view_from_module(mod)


def cmd_points(args):
    spec = parse_spec(args.group)
    field = parse_field(args.field)
    pts = enumerate_points(spec, field, method=args.method)
    out = pts.render()
    if out:
        print(out)
    return 0


def cmd_support(args):
    spec = parse_spec(args.group)
    field = parse_field(args.field)
    mod = module_from_json(_load_json(args.module))
    if not isinstance(mod, SuperModule):
        raise ValidationError("support needs a module over a finite group algebra")
    if mod.algebra.spec != spec:
        raise ValidationError("module file group does not match -g")
    sup = support_set(spec, mod, field)
    out = sup.render()
    if out:
        print(out)
    return 0


def cmd_ext(args):
    check_depth("-d", args.degree, 2, EXT_DEGREE_CAP)
    grp = parse_spec(args.group)
    mod = module_from_json(_load_json(args.module))
    M = _module_as_p1(mod, grp)
    if args.module2:
        N = _module_as_p1(module_from_json(_load_json(args.module2)), grp)
    else:
        N = M
    table = ext_dims(M, N, args.degree)
    print(table.render())
    return 0


def cmd_pd(args):
    spec = parse_spec(args.group)
    mod = module_from_json(_load_json(args.module))
    if spec == "P1":
        view = _module_as_p1(mod, spec)
    else:
        if not isinstance(mod, SuperModule):
            raise ValidationError("pd at a point needs a group algebra module")
        if mod.algebra.spec != spec:
            raise ValidationError("module file group does not match -g")
        if not args.point:
            raise ValidationError("pd over a group algebra needs -P <point>")
        field = mod.algebra.field
        pt = _parse_point(spec, field, args.point)
        view = point_pullback(spec, pt, mod)
    print(pd_class(view))
    return 0


def cmd_resolve(args):
    check_depth("-n", args.steps, 0, RESOLVE_STEPS_CAP)
    spec = parse_spec(args.group)
    field = make_field(spec.p, 1)
    alg, _ = build_group_algebra(spec, field)
    res = resolution_of_trivial(alg, args.steps)
    for n, (e, o) in enumerate(res.ranks()):
        print(f"{n}: {e}|{o}")
    return 0


def cmd_classify(args):
    data = _load_json(args.file)
    for key in ("p", "r", "target", "images"):
        if key not in data:
            raise ValidationError(f"classify file missing key {key!r}")
    try:
        p, r = int(data["p"]), int(data["r"])
    except (TypeError, ValueError):
        raise ValidationError("classify file fields 'p' and 'r' must be integers") from None
    field = parse_field(data.get("field", str(p)))
    spec = GroupAlgebraSpec.from_json(data["target"])
    alg, _ = build_group_algebra(spec, field)
    pres = PrPresentation(p, r)
    images = {}
    for g in pres.gen_names:
        if g not in data["images"]:
            raise ValidationError(f"missing image for generator {g}")
        vec = alg.el_zero()
        entries = data["images"][g]
        if len(entries) != alg.dim:
            raise ValidationError(f"image of {g} must list {alg.dim} coefficients")
        for i, s in enumerate(entries):
            vec[i] = parse_element(field, str(s)).index
        images[g] = vec
    phi = SuperalgebraMorphism(pres, alg, images)
    label = classify_quotient(phi)
    print(label.text(field))
    return 0


def cmd_psi(args):
    spec = parse_spec(args.group)
    field = parse_field(args.field)
    pt = _parse_point(spec, field, args.point)
    img = psi_map(spec, pt)
    print(",".join(c.encode() for c in img))
    return 0


def cmd_homscheme(args):
    spec = parse_spec(args.target)
    if not isinstance(spec, GroupAlgebraSpec):
        raise ValidationError("--target must be a finite group algebra spec")
    src = args.source.strip().lower()
    if src == "p1":
        pres = PrPresentation(spec.p, 1)
    else:
        data = _load_json(args.source)
        if "family" in data:
            raise ValidationError('--source must be "p1" or {"p": .., "r": ..}')
        try:
            pres = PrPresentation(int(data["p"]), int(data["r"]))
        except (KeyError, TypeError, ValueError):
            raise ValidationError("presentation needs integer fields 'p' and 'r'") from None
    check_source(pres, spec.p)
    field = make_field(spec.p, 1)
    alg, _ = build_group_algebra(spec, field)
    ideal = hom_scheme_ideal(pres, alg)
    out = ideal.render()
    if out:
        print(out)
    return 0


def cmd_lmodule(args):
    field = parse_field(args.field)
    mu = parse_element(field, args.mu)
    a = parse_element(field, args.a)
    M = build_L(mu, a)
    data = module_to_json(M)
    text = json.dumps(data, indent=1, sort_keys=True)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser():
    ap = argparse.ArgumentParser(prog="supvar", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("points", help="enumerate V_r(G)(F_q)")
    sp.add_argument("-g", "--group", required=True)
    sp.add_argument("-F", "--field", required=True)
    sp.add_argument("--method", choices=["param", "solve"], default="param")
    sp.set_defaults(func=cmd_points)

    sp = sub.add_parser("support", help="support set of a module")
    sp.add_argument("-g", "--group", required=True)
    sp.add_argument("-m", "--module", required=True)
    sp.add_argument("-F", "--field", required=True)
    sp.set_defaults(func=cmd_support)

    sp = sub.add_parser("ext", help="Ext dimensions over P_1")
    sp.add_argument("-g", "--group", required=True)
    sp.add_argument("-m", "--module", required=True)
    sp.add_argument("-m2", "--module2")
    sp.add_argument("-d", "--degree", type=int, required=True)
    sp.set_defaults(func=cmd_ext)

    sp = sub.add_parser("pd", help="projective dimension class at a point")
    sp.add_argument("-g", "--group", required=True)
    sp.add_argument("-m", "--module", required=True)
    sp.add_argument("-P", "--point", default="")
    sp.set_defaults(func=cmd_pd)

    sp = sub.add_parser("resolve", help="minimal resolution ranks of k")
    sp.add_argument("-g", "--group", required=True)
    sp.add_argument("-n", "--steps", type=int, required=True)
    sp.set_defaults(func=cmd_resolve)

    sp = sub.add_parser("classify", help="classify a Hopf quotient of P_r")
    sp.add_argument("-f", "--file", required=True)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("psi", help="psi image of a point")
    sp.add_argument("-g", "--group", required=True)
    sp.add_argument("-P", "--point", required=True)
    sp.add_argument("-F", "--field", required=True)
    sp.set_defaults(func=cmd_psi)

    sp = sub.add_parser("homscheme", help="emit the Hom-scheme ideal")
    sp.add_argument("--source", required=True)
    sp.add_argument("--target", required=True)
    sp.set_defaults(func=cmd_homscheme)

    sp = sub.add_parser("lmodule", help="write an L_{(mu,a)} module file")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--a", required=True)
    sp.add_argument("-F", "--field", required=True)
    sp.add_argument("-o", "--output")
    sp.set_defaults(func=cmd_lmodule)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except BoundExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
