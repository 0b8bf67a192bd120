"""Command-line front end.

Inputs are JSON (group specs and module files); outputs are deterministic
sorted text, one item per line, so golden-file comparisons are exact.
Exit codes: 0 success, 2 validation error or closed stdout, 3 bound exceeded.

Every command is a fresh process, so start-up is paid on every call.  This
module imports only the standard library and `supvar.errors` at load time:
`import supvar.cli` loads no numpy.  Each subcommand imports what it calls
when it runs, so `homscheme` never loads the module or homological layers
and `resolve` never loads the points, Hom-scheme or morphism code.

`main` sets `OPENBLAS_NUM_THREADS=1` before anything imports numpy, unless
the caller has set `OPENBLAS_NUM_THREADS` or `OMP_NUM_THREADS`.  The
products here are small: starting OpenBLAS's second thread adds tens of
milliseconds to the numpy import, and even the longest resolutions ran no
slower on one thread.  Set either variable to use more threads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import BoundExceeded, ValidationError, json_int


def _load_json(arg: str):
    """Accept a path to a JSON file or inline JSON text."""
    if os.path.exists(arg):
        try:
            with open(arg) as fh:
                return json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError(f"malformed JSON in {arg}: {e}") from None
        except OSError as e:
            raise ValidationError(f"cannot read {arg}: {e.strerror}") from None
        except UnicodeDecodeError:
            raise ValidationError(f"cannot read {arg}: not UTF-8 text") from None
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
    from .superalg.algebra import GroupAlgebraSpec

    return GroupAlgebraSpec.from_json(_load_json(arg))


def _parse_point(spec, field, text):
    from .gfield import parse_element
    from .varieties import GroupPoint, check_point

    parts = [s for s in text.split(",") if s != ""]
    pt = GroupPoint(tuple(parse_element(field, s) for s in parts))
    check_point(spec, pt)
    return pt


def _module_as_p1(mod, grp):
    from .smod import P1ModuleView, p1_view_from_module

    if isinstance(mod, P1ModuleView):
        return mod
    return p1_view_from_module(mod)


def cmd_points(args):
    from .gfield import parse_field
    from .varieties import enumerate_points

    spec = parse_spec(args.group)
    field = parse_field(args.field)
    pts = enumerate_points(spec, field, method=args.method)
    out = pts.render()
    if out:
        print(out)
    return 0


def cmd_support(args):
    from .gfield import parse_field
    from .smod import SuperModule, module_from_json
    from .varieties import support_set

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
    from .homalg import EXT_DEGREE_CAP, check_depth, ext_dims
    from .smod import module_from_json

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
    from .homalg import pd_class
    from .smod import SuperModule, module_from_json

    spec = parse_spec(args.group)
    mod = module_from_json(_load_json(args.module))
    if spec == "P1":
        view = _module_as_p1(mod, spec)
    else:
        from .varieties import point_pullback

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
    from .gfield import make_field
    from .homalg import RESOLVE_STEPS_CAP, check_depth, resolution_of_trivial
    from .superalg.algebra import build_group_algebra

    check_depth("-n", args.steps, 0, RESOLVE_STEPS_CAP)
    spec = parse_spec(args.group)
    if spec == "P1":
        raise ValidationError("resolve needs a finite group algebra spec")
    field = make_field(spec.p, 1)
    alg, _ = build_group_algebra(spec, field)
    res = resolution_of_trivial(alg, args.steps)
    for n, (e, o) in enumerate(res.ranks()):
        print(f"{n}: {e}|{o}")
    return 0


def cmd_classify(args):
    from .gfield import parse_element, parse_field
    from .superalg.algebra import GroupAlgebraSpec, build_group_algebra
    from .superalg.morphisms import SuperalgebraMorphism, classify_quotient
    from .superalg.pr import PrPresentation

    data = _load_json(args.file)
    if not isinstance(data, dict):
        raise ValidationError("classify file must hold a JSON object")
    for key in ("p", "r", "target", "images"):
        if key not in data:
            raise ValidationError(f"classify file missing key {key!r}")
    p, r = (json_int(data[key], f"classify file field {key!r}") for key in ("p", "r"))
    if not isinstance(data.get("field", ""), str) or not isinstance(data["images"], dict):
        raise ValidationError("classify file needs 'field' as text and 'images' as an object")
    field = parse_field(data.get("field", str(p)))
    spec = GroupAlgebraSpec.from_json(data["target"])
    if p != spec.p or r < 1:
        raise ValidationError(f"classify file needs r >= 1 and p = {spec.p}, the target's p")
    alg, _ = build_group_algebra(spec, field)
    pres = PrPresentation(p, r)
    images = {}
    for g in pres.gen_names:
        if g not in data["images"]:
            raise ValidationError(f"missing image for generator {g}")
        vec = alg.el_zero()
        entries = data["images"][g]
        if not isinstance(entries, list) or len(entries) != alg.dim:
            raise ValidationError(f"image of {g} must list {alg.dim} coefficients")
        for i, s in enumerate(entries):
            vec[i] = parse_element(field, str(s)).index
        images[g] = vec
    phi = SuperalgebraMorphism(pres, alg, images)
    label = classify_quotient(phi)
    print(label.text(field))
    return 0


def cmd_psi(args):
    from .gfield import parse_field
    from .varieties import psi_map

    spec = parse_spec(args.group)
    field = parse_field(args.field)
    pt = _parse_point(spec, field, args.point)
    img = psi_map(spec, pt)
    print(",".join(c.encode() for c in img))
    return 0


def cmd_homscheme(args):
    from .gfield import make_field
    from .superalg.algebra import GroupAlgebraSpec, build_group_algebra
    from .superalg.homscheme import check_source, hom_scheme_ideal
    from .superalg.pr import PrPresentation

    spec = parse_spec(args.target)
    if not isinstance(spec, GroupAlgebraSpec):
        raise ValidationError("--target must be a finite group algebra spec")
    src = args.source.strip().lower()
    if src == "p1":
        pres = PrPresentation(spec.p, 1)
    else:
        data = _load_json(args.source)
        if not isinstance(data, dict) or "family" in data:
            raise ValidationError('--source must be "p1" or {"p": .., "r": ..}')
        p, r = (json_int(data.get(key), f"presentation field {key!r}") for key in ("p", "r"))
        pres = PrPresentation(p, r)
    check_source(pres, spec.p)
    field = make_field(spec.p, 1)
    alg, _ = build_group_algebra(spec, field)
    # the ideal is built as it is rendered; every line is in hand before the
    # first is written, so an error leaves stdout empty
    lines = hom_scheme_ideal(pres, alg).render()
    if lines:
        print(*lines, sep="\n")
    return 0


def cmd_lmodule(args):
    from .gfield import parse_element, parse_field
    from .smod import build_L, module_to_json

    field = parse_field(args.field)
    mu = parse_element(field, args.mu)
    a = parse_element(field, args.a)
    M = build_L(mu, a)
    data = module_to_json(M)
    text = json.dumps(data, indent=1, sort_keys=True)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise ValidationError(f"cannot write {args.output}: {e.strerror}") from None
    else:
        print(text)
    return 0


def build_parser():
    # --help shows the docstring's first two paragraphs, not the notes on start-up
    about = "\n\n".join((__doc__ or "").split("\n\n")[:2])
    ap = argparse.ArgumentParser(prog="supvar", description=about)
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
    if "OPENBLAS_NUM_THREADS" not in os.environ and "OMP_NUM_THREADS" not in os.environ:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
        return code
    except BoundExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        sys.stdout = open(os.devnull, "w")  # so that the exit flush cannot raise again
        print("error: standard output closed", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
