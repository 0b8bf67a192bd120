"""Finite-field points of V_r(G) for the multiparameter families.

A point of V_r(G) over F_q is a Hopf superalgebra map rho: P_r -> kG (x) F_q.
For the supported families these are parametrized by coordinate tuples:

    M_{r;s}, s = 1:   (mu, a_0, ..., a_{r-1})               no constraint
    M_{r;s}, s >= 2:  (mu, a_0, ..., a_{r-1}, b)            mu^2 = a_0^{p^r}
    M_{r;s,eta}:      (mu, a_0, ..., a_{r-1})               mu^2 = a_0^{p^r}
    G_{a(r)}:         (a_0, ..., a_{r-1})
    G_a^-:            (d,)

with rho(v) = mu v, rho(u_j) the multinomial expression
sum C(i; i_0..i_{r-1}) a_0^{i_0} ... a_{r-1}^{i_{r-1}} gamma_i over
weighted compositions i_0 + i_1 p + ... + i_{r-1} p^{r-1} = p^j, plus
b u_{r-1}^{p^{s-1}} on the top generator when s >= 2.

The support set of a module M collects the points whose P_1-pullback of M
has infinite projective dimension; psi_map is the coordinate form of the
comparison map to the cohomological spectrum, and monoid_scale is the
dilation action making everything conical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .errors import ValidationError
from .gfield import FieldDescriptor, FieldElement, frobenius, inverse_frobenius
from . import linalg
from .smod import P1ModuleView, SuperModule, extend_scalars, p1_view_from_images
from .superalg.algebra import GroupAlgebraSpec, PresentedSuperalgebra, build_group_algebra
from .superalg.homscheme import hom_scheme_ideal, solve_even_points
from .superalg.morphisms import PrPresentation
from .homalg import pd_infinite

# Points are decided in chunks whose stacked 2n x 2n blocks hold at most
# this many cells (n = dim M), which bounds the memory of the stacks.
_CHUNK_CELLS = 2**14


@dataclass(frozen=True)
class GroupPoint:
    """A coordinate tuple in the family's declared order."""

    coords: tuple  # FieldElements

    def key(self):
        return tuple(c.index for c in self.coords)

    def sort_key(self):
        """Lexicographic on the text encoding (the canonical output order)."""
        return tuple(c.encode() for c in self.coords)

    def encode(self) -> str:
        return ",".join(c.encode() for c in self.coords)

    def __lt__(self, other):
        return self.sort_key() < other.sort_key()


@dataclass
class PointSet:
    spec: GroupAlgebraSpec
    field: FieldDescriptor
    points: tuple  # sorted GroupPoints

    def __contains__(self, pt):
        return pt in set(self.points)

    def render(self):
        return "\n".join(pt.encode() for pt in self.points)


@dataclass
class SupportSet(PointSet):
    module: SuperModule | None = None


def _sorted_points(pts):
    uniq = {p.key(): p for p in pts}
    return tuple(sorted(uniq.values(), key=lambda p: p.sort_key()))


def _hom_height(spec: GroupAlgebraSpec) -> int:
    if spec.family in ("Mrs", "Mrf", "Gar"):
        return max(spec.r, 1)
    if spec.family == "GaMinus":
        return 1
    raise ValidationError(f"no P_r height for family {spec.family}")


def family_points(spec: GroupAlgebraSpec, field: FieldDescriptor):
    """Parametrized F_q points; raises for unsupported families."""
    els = field.elements()
    p, r = spec.p, spec.r
    pts = []
    if spec.family == "Mrs" and spec.eta == 0:
        import itertools

        for mu in els:
            for avec in itertools.product(els, repeat=r):
                if spec.s >= 2:
                    if mu * mu != avec[0] ** (p**r):
                        continue
                    for b in els:
                        pts.append(GroupPoint((mu,) + avec + (b,)))
                else:
                    pts.append(GroupPoint((mu,) + avec))
        return _sorted_points(pts)
    if spec.family == "Mrs" and spec.eta != 0:
        import itertools

        if r < 2:
            raise ValidationError(
                "parametrized points for the eta-families need r >= 2"
            )
        for mu in els:
            for avec in itertools.product(els, repeat=r):
                if mu * mu == avec[0] ** (p**r):
                    pts.append(GroupPoint((mu,) + avec))
        return _sorted_points(pts)
    if spec.family == "Gar":
        import itertools

        return _sorted_points(
            GroupPoint(avec) for avec in itertools.product(els, repeat=r)
        )
    if spec.family == "GaMinus":
        return _sorted_points(GroupPoint((d,)) for d in els)
    raise ValidationError(f"no parametrization for family {spec.family}")


def check_point(spec: GroupAlgebraSpec, pt: GroupPoint):
    """Coordinate count, and mu^2 = a_0^{p^r} where the family imposes it,
    for a point given from outside the program."""
    if not isinstance(spec, GroupAlgebraSpec):
        raise ValidationError("points need a finite group algebra spec")
    if spec.family == "GaMinus":
        arity = 1
    elif spec.family == "Gar":
        arity = spec.r
    elif spec.family in ("Mrs", "Mrf"):
        arity = 1 + spec.r + (spec.family == "Mrs" and spec.eta == 0 and spec.s >= 2)
    else:
        raise ValidationError(f"no points for family {spec.family}")
    if len(pt.coords) != arity:
        raise ValidationError(
            f"a point of {spec.label()} has {arity} coordinates, got {len(pt.coords)}"
        )
    if spec.family == "Mrs" and (spec.s >= 2 or spec.eta != 0):
        mu, a0 = pt.coords[0], pt.coords[1]
        if mu * mu != a0 ** (spec.p**spec.r):
            raise ValidationError("point violates mu^2 = a_0^(p^r)")


def _weighted_compositions(total: int, weights):
    """All tuples (i_0, ..., i_{k-1}) >= 0 with sum i_j * weights[j] = total."""
    if not weights:
        return [()] if total == 0 else []
    out = []
    w = weights[-1]
    for i in range(total // w + 1):
        for rest in _weighted_compositions(total - i * w, weights[:-1]):
            out.append(rest + (i,))
    return out


def _multinomial(parts) -> int:
    out = 1
    acc = 0
    for x in parts:
        acc += x
        out *= comb(acc, x)
    return out


def point_images(spec: GroupAlgebraSpec, alg: PresentedSuperalgebra, pt: GroupPoint):
    """Generator images in kG of the morphism labeled by the point."""
    field = alg.field
    p = spec.p
    F = alg.F

    def gidx(ell, has_v=False):
        n_gamma = alg.dim // 2 if "v" in alg.generators else alg.dim
        return ell + (n_gamma if has_v else 0)

    images = {}
    if spec.family == "GaMinus":
        (d,) = pt.coords
        v = alg.el_zero()
        v[alg.generators["v"]] = d.index
        images["u0"] = alg.el_zero()
        images["v"] = v
        return images

    r = spec.r
    if spec.family == "Gar":
        avec = pt.coords
        mu = None
    else:
        mu = pt.coords[0]
        avec = pt.coords[1 : 1 + r]
        b = pt.coords[1 + r] if (spec.family == "Mrs" and spec.eta == 0 and spec.s >= 2) else None

    weights = [p**k for k in range(r)]
    for j in range(r):
        vec = alg.el_zero()
        for parts in _weighted_compositions(p**j, weights):
            coeff = _multinomial(parts) % p
            if coeff == 0:
                continue
            c = field.element(coeff)
            for a_k, i_k in zip(avec, parts):
                if i_k:
                    c = c * a_k**i_k
            if c.is_zero():
                continue
            i = sum(parts)
            k = gidx(i)
            vec[k] = F.add[vec[k], c.index]
        if j == r - 1 and spec.family == "Mrs" and spec.eta == 0 and spec.s >= 2:
            k = gidx(p ** (r + spec.s - 2))
            vec[k] = F.add[vec[k], b.index]
        images[f"u{j}"] = vec

    if spec.family != "Gar":
        v = alg.el_zero()
        v[alg.generators["v"]] = mu.index
        images["v"] = v
    else:
        images["v"] = alg.el_zero()
    return images


def validate_point_images(spec, alg, images):
    """The P_r relations must hold on the images."""
    p = spec.p
    r = _hom_height(spec)
    for i in range(r - 1):
        if np.any(alg.el_pow(images[f"u{i}"], p)):
            raise ValidationError(f"image of u{i} is not p-nilpotent")
    top = images.get(f"u{r-1}", alg.el_zero())
    rel = alg.el_add(alg.el_pow(top, p), alg.el_mul(images["v"], images["v"]))
    if np.any(rel):
        raise ValidationError("images violate u^p + v^2 = 0")


@lru_cache(maxsize=None)
def _algebra_for(spec: GroupAlgebraSpec, field: FieldDescriptor):
    alg, _ = build_group_algebra(spec, field)
    return alg


def enumerate_points(spec: GroupAlgebraSpec, field: FieldDescriptor, method: str = "param") -> PointSet:
    """All F_q points, by parametrization or by the brute-force solver.

    The solver enumerates even solutions of the Hom-scheme ideal and then
    matches them against the parametrization; a mismatch raises, so the two
    methods cross-check each other.
    """
    if method == "param":
        return PointSet(spec, field, family_points(spec, field))
    if method != "solve":
        raise ValidationError("method must be 'param' or 'solve'")
    alg = _algebra_for(spec, field)
    pres = PrPresentation(spec.p, _hom_height(spec))
    ideal = hom_scheme_ideal(pres, alg)
    sols = solve_even_points(ideal)
    # match solutions with parametrized points through their images
    lookup = {}
    for pt in family_points(spec, field):
        images = point_images(spec, alg, pt)
        key = tuple(tuple(int(x) for x in images[g]) for g in pres.gen_names)
        lookup[key] = pt
    pts = []
    for images in sols:
        key = tuple(tuple(int(x) for x in images[g]) for g in pres.gen_names)
        if key not in lookup:
            raise ValidationError("solver found a morphism outside the parametrization")
        pts.append(lookup[key])
    if len(pts) != len(set(pts)) or len(pts) != len(lookup):
        raise ValidationError("solver points do not biject with the parametrization")
    return PointSet(spec, field, _sorted_points(pts))


def point_to_p1(spec: GroupAlgebraSpec, pt: GroupPoint, field: FieldDescriptor):
    """Images of u and v of P_1 under the point's morphism composed with
    the inclusion u -> u_{r-1}, v -> v.  Returns (algebra, u_img, v_img)."""
    alg = _algebra_for(spec, field)
    images = point_images(spec, alg, pt)
    validate_point_images(spec, alg, images)
    r = _hom_height(spec)
    u_img = images.get(f"u{r-1}", alg.el_zero())
    v_img = images["v"]
    return alg, u_img, v_img


def point_pullback(spec: GroupAlgebraSpec, pt: GroupPoint, M: SuperModule) -> P1ModuleView:
    """The P_1-structure of M pulled back at the point."""
    alg, u_img, v_img = point_to_p1(spec, pt, M.algebra.field)
    if alg is not M.algebra:
        raise ValidationError("module algebra does not match the point's group")
    return p1_view_from_images(M, u_img, v_img)


def support_set(
    spec: GroupAlgebraSpec,
    M: SuperModule,
    field: FieldDescriptor,
    method: str = "param",
) -> SupportSet:
    """Points where the pulled-back module has infinite projective dimension.

    The module may be given over the prime field; it is scalar extended to
    the requested field.  The zero point always belongs to the support of a
    nonzero module.

    Each point's images are built and checked on their own (point_to_p1);
    the points are then decided a chunk at a time.  A chunk's pullbacks form
    one stacked P_1-view, built, validated and decided together (see
    homalg.pd_infinite), and its 2n x 2n blocks hold at most _CHUNK_CELLS
    cells, so the stacks take a few MB whatever the number of points.  The
    verdict of a point does not depend on its chunk.
    """
    MF = extend_scalars(M, field)
    if _algebra_for(spec, field) is not MF.algebra:
        raise ValidationError("module algebra does not match the point's group")
    pts = enumerate_points(spec, field, method=method).points
    per = max(1, _CHUNK_CELLS // (4 * MF.dim**2 or 1))
    out = []
    for lo in range(0, len(pts), per):
        chunk = pts[lo : lo + per]
        images = [point_to_p1(spec, pt, field)[1:] for pt in chunk]
        u_imgs = np.stack([u for u, _ in images])
        v_imgs = np.stack([v for _, v in images])
        infinite = pd_infinite(p1_view_from_images(MF, u_imgs, v_imgs))
        out.extend(pt for pt, inf in zip(chunk, infinite) if inf)
    return SupportSet(spec, field, _sorted_points(out), module=M)


def psi_map(spec: GroupAlgebraSpec, pt: GroupPoint):
    """Coordinates of the point's image in the cohomological spectrum."""
    p = spec.p
    if spec.family == "GaMinus":
        return pt.coords
    if spec.family == "Gar":
        avec = pt.coords
        return tuple(avec[spec.r - 1 - i] ** (p ** (i + 1)) for i in range(spec.r))
    if spec.family != "Mrs":
        raise ValidationError(f"psi is not implemented for family {spec.family}")
    r = spec.r
    mu = pt.coords[0]
    avec = pt.coords[1 : 1 + r]
    if spec.eta == 0:
        out = [mu]
        out += [avec[r - 1 - i] ** (p ** (i + 1)) for i in range(r)]
        if spec.s >= 2:
            out.append(pt.coords[1 + r] ** p)
        return tuple(out)
    # eta family: (mu, a_{r-2}^{p^2}, ..., a_0^{p^r}, (-eta^{-1})^p a_{r-1}^p)
    field = mu.field
    out = [mu]
    out += [avec[r - 1 - i] ** (p ** (i + 1)) for i in range(1, r)]
    eta = field.element(spec.eta)
    out.append(((-(eta.inverse())) ** p) * avec[r - 1] ** p)
    return tuple(out)


def psi_target_points(spec: GroupAlgebraSpec, field: FieldDescriptor):
    """F_q points of the cohomological spectrum, in psi's coordinate order."""
    import itertools

    els = field.elements()
    p = spec.p
    out = []
    if spec.family == "GaMinus":
        return _sorted_points(GroupPoint((d,)) for d in els)
    if spec.family == "Gar":
        return _sorted_points(GroupPoint(c) for c in itertools.product(els, repeat=spec.r))
    if spec.family != "Mrs":
        raise ValidationError(f"no spectrum description for family {spec.family}")
    r = spec.r
    if spec.eta == 0 and spec.s == 1:
        for d in els:
            for cvec in itertools.product(els, repeat=r):
                out.append(GroupPoint((d,) + cvec))
        return _sorted_points(out)
    if spec.eta != 0 and r < 2:
        raise ValidationError("the eta-family spectrum needs r >= 2")
    # (d, c_1, ..., c_m, e) with the top c equal to d^2
    for d in els:
        for cvec in itertools.product(els, repeat=r if spec.eta == 0 else r - 1):
            if cvec[-1] != d * d:
                continue
            for e in els:
                out.append(GroupPoint((d,) + cvec + (e,)))
    return _sorted_points(out)


def monoid_scale(spec: GroupAlgebraSpec, pt: GroupPoint, mu_t: FieldElement, a_t: FieldElement) -> GroupPoint:
    """The dilation action: compose the point with the endomorphism
    v -> mu_t v, u_i -> a_t^{p^i} u_i of P_r, then re-extract coordinates.

    Requires a_t^{p^r} = mu_t^2; the result is verified by recomputing the
    scaled images from the returned coordinates.
    """
    field = mu_t.field
    p = spec.p
    r = _hom_height(spec)
    if a_t ** (p**r) != mu_t * mu_t:
        raise ValidationError("inadmissible scaling: a^(p^r) != mu^2")
    alg = _algebra_for(spec, field)
    images = point_images(spec, alg, pt)
    F = alg.F
    scaled = {}
    for j in range(r):
        name = f"u{j}"
        if name in images:
            scaled[name] = linalg.scale_index(F, (a_t ** (p**j)).index, images[name])
    scaled["v"] = linalg.scale_index(F, mu_t.index, images["v"])

    # re-extract coordinates from the scaled images
    if spec.family == "GaMinus":
        d = field.from_index(int(scaled["v"][alg.generators["v"]]))
        new_pt = GroupPoint((d,))
    else:
        coords = []
        top = scaled[f"u{r-1}"]
        if spec.family != "Gar":
            mu = field.from_index(int(scaled["v"][alg.generators["v"]]))
            coords.append(mu)
        avec = []
        for j in range(r):
            c = field.from_index(int(top[p**j]))
            for _ in range(j):
                c = inverse_frobenius(c)
            avec.append(c)
        avec.reverse()  # coefficient of gamma_{p^j} is a_{r-1-j}^{p^j}
        coords.extend(avec)
        if spec.family == "Mrs" and spec.eta == 0 and spec.s >= 2:
            coords.append(field.from_index(int(top[p ** (r + spec.s - 2)])))
        new_pt = GroupPoint(tuple(coords))

    check = point_images(spec, alg, new_pt)
    for g, vec in scaled.items():
        if not np.array_equal(check[g], vec):
            raise ValidationError("scaled morphism left the family parametrization")
    return new_pt


def admissible_scalings(field: FieldDescriptor, r: int):
    """All (mu, a) in F_q^2 with a^{p^r} = mu^2 (the dilation monoid points)."""
    out = []
    p = field.p
    for mu in field.elements():
        for a in field.elements():
            if a ** (p**r) == mu * mu:
                out.append((mu, a))
    return out


def m11_subgroup_embeddings(p: int):
    """The canonical multiparameter subgroups of M_{1;1} with their point
    embeddings and generator matchings, for naturality checks.

    Returns (name, subgroup spec, embed point map, generator map).
    """
    gar1 = GroupAlgebraSpec("Gar", p, r=1)
    gam = GroupAlgebraSpec("GaMinus", p)

    def embed_gar(pt, field):
        return GroupPoint((field.element(0), pt.coords[0]))

    def embed_gam(pt, field):
        return GroupPoint((pt.coords[0], field.element(0)))

    return [
        ("Ga(1)", gar1, embed_gar, {"u0": "u0"}),
        ("Ga^-", gam, embed_gam, {"v": "v"}),
    ]
