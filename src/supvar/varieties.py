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

import itertools
from dataclasses import dataclass
from functools import reduce
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from .errors import BoundExceeded, ValidationError
from .gfield import frobenius, inverse_frobenius
from . import linalg
from .superalg.algebra import GroupAlgebraSpec, build_group_algebra

if TYPE_CHECKING:
    from .gfield import FieldDescriptor, FieldElement
    from .smod import P1ModuleView, SuperModule
    from .superalg.algebra import PresentedSuperalgebra

# Points are decided in chunks whose stacks hold at most this many cells:
# the 2n x 2n blocks of their P_1-views (n = dim M), or, while their images
# are built and checked in kG, the d x d terms of a stacked el_mul (d = dim
# kG).  This bounds the memory of the stacks.
_CHUNK_CELLS = 2**14

# Point enumerations run over q^arity candidate tuples; more than this many
# raise BoundExceeded before any is built.
POINTS_CAP = 3**12


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


def _arity(spec: GroupAlgebraSpec) -> int:
    """Number of coordinates of a point of the family."""
    if not isinstance(spec, GroupAlgebraSpec):
        raise ValidationError("points need a finite group algebra spec")
    if spec.family == "GaMinus":
        return 1
    if spec.family == "Gar":
        return spec.r
    if spec.family in ("Mrs", "Mrf"):
        return 1 + spec.r + (spec.family == "Mrs" and spec.eta == 0 and spec.s >= 2)
    raise ValidationError(f"no points for family {spec.family}")


def _check_characteristic(spec: GroupAlgebraSpec, field: FieldDescriptor):
    if field.p != spec.p:
        raise ValidationError(f"field characteristic {field.p} != spec p {spec.p}")


def _check_points_cap(spec: GroupAlgebraSpec, field: FieldDescriptor):
    """The spec's p is the field's characteristic, and q^arity is within
    POINTS_CAP."""
    arity = _arity(spec)
    _check_characteristic(spec, field)
    if field.q**arity > POINTS_CAP:
        raise BoundExceeded(f"{field.q}^{arity} candidate points exceed the cap {POINTS_CAP}")


def family_points(spec: GroupAlgebraSpec, field: FieldDescriptor):
    """Parametrized F_q points; raises for unsupported families and, before
    enumerating, for more than POINTS_CAP candidate tuples."""
    _check_points_cap(spec, field)
    els = field.elements()
    p, r = spec.p, spec.r
    pts = []
    if spec.family == "Mrs" and spec.eta == 0:
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
        return _sorted_points(
            GroupPoint(avec) for avec in itertools.product(els, repeat=r)
        )
    if spec.family == "GaMinus":
        return _sorted_points(GroupPoint((d,)) for d in els)
    raise ValidationError(f"no parametrization for family {spec.family}")


def check_point(spec: GroupAlgebraSpec, pt: GroupPoint):
    """Coordinate count, the field's characteristic, and mu^2 = a_0^{p^r}
    where the family imposes it, for a point given from outside the
    program."""
    arity = _arity(spec)
    if len(pt.coords) != arity:
        raise ValidationError(
            f"a point of {spec.label()} has {arity} coordinates, got {len(pt.coords)}"
        )
    _check_characteristic(spec, pt.coords[0].field)
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


def _images(spec: GroupAlgebraSpec, alg: PresentedSuperalgebra, pts):
    """Generator images in kG of the morphisms labeled by the points, as
    (len(pts), algebra dim) index arrays, one row per point: table lookups
    on the coordinate indices of all points at once."""
    F = alg.F
    p, r = spec.p, spec.r
    C = np.array([pt.key() for pt in pts], dtype=linalg.DT)
    zero = np.zeros((len(pts), alg.dim), dtype=linalg.DT)
    v = zero.copy()
    if spec.family == "GaMinus":
        v[:, alg.generators["v"]] = C[:, 0]
        return {"u0": zero, "v": v}

    lead = int(spec.family != "Gar")  # mu leads the coordinates
    avec = C[:, lead : lead + r]
    weights = [p**k for k in range(r)]
    images = {}
    for j in range(r):
        vec = zero.copy()
        for parts in _weighted_compositions(p**j, weights):
            coeff = _multinomial(parts) % p
            if coeff == 0:
                continue
            c = np.full(len(pts), coeff, dtype=linalg.DT)  # a prime-field index
            for k, i_k in enumerate(parts):
                for _ in range(i_k):
                    c = F.mul[c, avec[:, k]]
            vec[:, sum(parts)] = F.add[vec[:, sum(parts)], c]  # gamma_i has index i
        images[f"u{j}"] = vec
    if spec.family == "Mrs" and spec.eta == 0 and spec.s >= 2:
        top, k = images[f"u{r-1}"], p ** (r + spec.s - 2)
        top[:, k] = F.add[top[:, k], C[:, 1 + r]]
    if lead:
        v[:, alg.generators["v"]] = C[:, 0]
    images["v"] = v
    return images


def point_images(spec: GroupAlgebraSpec, alg: PresentedSuperalgebra, pt: GroupPoint):
    """Generator images in kG of the morphism labeled by the point."""
    return {g: x[0] for g, x in _images(spec, alg, [pt]).items()}


def validate_point_images(spec, alg, images):
    """The P_r relations must hold on the images.

    Images may be stacked, (..., algebra dim) per generator; the products
    then run over the whole stack through the algebra's dense structure
    tensor."""
    p = spec.p
    r = _hom_height(spec)

    def power(x):
        return reduce(alg.el_mul, [x] * p)

    for i in range(r - 1):
        if np.any(power(images[f"u{i}"])):
            raise ValidationError(f"image of u{i} is not p-nilpotent")
    v = images["v"]
    top = images.get(f"u{r-1}", np.zeros_like(v))
    if np.any(alg.F.add[power(top), alg.el_mul(v, v)]):
        raise ValidationError("images violate u^p + v^2 = 0")


def enumerate_points(spec: GroupAlgebraSpec, field: FieldDescriptor, method: str = "param") -> PointSet:
    """All F_q points, by parametrization or by the brute-force solver.

    The solver enumerates even solutions of the Hom-scheme ideal and then
    matches them against the parametrization; a mismatch raises, so the two
    methods cross-check each other.
    """
    if method not in ("param", "solve"):
        raise ValidationError("method must be 'param' or 'solve'")
    param_pts = family_points(spec, field)
    if method == "param":
        return PointSet(spec, field, param_pts)
    from .superalg.homscheme import check_solver_cap, hom_scheme_ideal, solve_even_points
    from .superalg.pr import PrPresentation

    alg = build_group_algebra(spec, field)[0]
    pres = PrPresentation(spec.p, _hom_height(spec))
    check_solver_cap(pres, alg)
    ideal = hom_scheme_ideal(pres, alg)
    sols = solve_even_points(ideal)
    # match solutions with parametrized points through their images
    lookup = {}
    for pt in param_pts:
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


def _p1_pair(spec: GroupAlgebraSpec, images):
    """The images of u = u_{r-1} and v, stacked or single."""
    r = _hom_height(spec)
    return images.get(f"u{r-1}", np.zeros_like(images["v"])), images["v"]


def _p1_images(spec: GroupAlgebraSpec, alg: PresentedSuperalgebra, images):
    """The checked images of u = u_{r-1} and v, stacked or single."""
    validate_point_images(spec, alg, images)
    return _p1_pair(spec, images)


def _orbit_keys(F, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """One row per pair (u, v) of stacked images, equal for two pairs
    exactly when a dilation u -> a u, v -> b v with a^p = b^2, b != 0,
    takes one to the other.

    Each pair is scaled to a canonical form.  If v != 0, b brings the first
    nonzero entry of v to 1, and a = frob^-1(b^2).  If v = 0, a runs over
    the nonzero squares, and brings the first nonzero entry of u to 1 or to
    the least non-square.
    """
    rows = np.arange(len(u))
    cu = u[rows, (u != 0).argmax(axis=1)]  # first nonzero entry, or 0
    cv = v[rows, (v != 0).argmax(axis=1)]
    idx = np.arange(F.q)
    square = np.zeros(F.q, dtype=bool)
    square[F.mul[idx, idx]] = True
    frob_inv = np.empty(F.q, dtype=linalg.DT)
    frob_inv[F.frob] = idx
    b = np.where(cv != 0, F.inv[cv], 1)
    a_v = frob_inv[F.mul[b, b]]
    a_u = F.mul[np.where(square[cu], 1, square.argmin()), F.inv[cu]]
    a = np.where(cv != 0, a_v, np.where(cu != 0, a_u, 1))
    return np.hstack([F.mul[a[:, None], u], F.mul[b[:, None], v]])


def point_to_p1(spec: GroupAlgebraSpec, pt: GroupPoint, field: FieldDescriptor):
    """Images of u and v of P_1 under the point's morphism composed with
    the inclusion u -> u_{r-1}, v -> v.  Returns (algebra, u_img, v_img)."""
    alg = build_group_algebra(spec, field)[0]
    return (alg, *_p1_images(spec, alg, point_images(spec, alg, pt)))


def point_pullback(spec: GroupAlgebraSpec, pt: GroupPoint, M: SuperModule) -> P1ModuleView:
    """The P_1-structure of M pulled back at the point, with every check."""
    from .smod import p1_view_from_images

    alg, u_img, v_img = point_to_p1(spec, pt, M.algebra.field)
    if alg is not M.algebra:
        raise ValidationError("module algebra does not match the point's group")
    return p1_view_from_images(M, u_img, v_img, check=True)


def support_set(
    spec: GroupAlgebraSpec,
    M: SuperModule,
    field: FieldDescriptor,
    method: str = "param",
    check: bool = False,
) -> SupportSet:
    """Points where the pulled-back module has infinite projective dimension.

    The module may be given over the prime field; it is scalar extended to
    the requested field.  The zero point always belongs to the support of a
    nonzero module.

    A point's verdict depends only on its images (u, v) in kG, and only on
    their orbit under the dilations u -> a u, v -> b v with a^p = b^2,
    b != 0.  These are automorphisms of P_1 = k[u, v]/(u^p + v^2), since
    they take u^p + v^2 to b^2 (u^p + v^2), and twisting a module by an
    automorphism keeps its projective dimension.  So the points are
    decided one orbit at a time:

    - Every point's images are built a chunk at a time as index arrays,
      and every check in kG runs on all of them: the P_r relations
      (validate_point_images), and u even with counit 0, v odd
      (smod.check_p1_images).  Each point gets its orbit key (_orbit_keys).
    - The first point of each orbit is decided from its own images, a
      chunk of such points at a time: one stacked P_1-view, built,
      validated and decided together (see homalg.pd_infinite).  Every
      other point of the orbit takes its verdict.

    The view checks of the other points follow exactly from those of their
    orbit's first point: its view (U, V) passes, and the other point's view
    is (aU, bV), which is again even and odd, commutes, and has
    (bV)^2 = b^2 V^2 = -b^2 U^p = -(aU)^p.  A chunk's stacks hold at most
    _CHUNK_CELLS cells: 4 n^2 per point in the views (n = dim M), d^2 per
    point in the first pass (d = dim kG, the terms of a stacked el_mul).
    So the stacks take a few MB whatever the number of points, and a
    point's verdict does not depend on its chunk.  The support keeps the
    order of the points, which enumerate_points lists sorted and without
    repeats.

    Two stacked checks run only with `check`: U^dim = 0 on the view and
    d.d = 0 on its hom complex.  Both follow from data checked where it
    enters.  M is a checked kG-module, the images satisfy the P_r
    relations, and u, with counit 0, lies in the radical of kG, which acts
    nilpotently on M (smod.check_p1_images checks the counit per point,
    smod.p1_view_from_images the radical once per module).  Together these
    give the view's relations, and the periodic complex of a valid view has
    d.d = 0 by construction (homalg.p1_hom_complex).
    """
    from .homalg import pd_infinite
    from .smod import check_p1_images, extend_scalars, p1_view_from_images

    MF = extend_scalars(M, field)
    alg = MF.algebra
    if build_group_algebra(spec, field)[0] is not alg:
        raise ValidationError("module algebra does not match the point's group")
    pts = enumerate_points(spec, field, method=method).points
    per = max(1, _CHUNK_CELLS // alg.dim**2)
    orbit = np.empty(len(pts), dtype=np.int64)
    numbers = {}  # orbit key -> orbit number, in the order of first points
    firsts = []  # the first point of each orbit
    for lo in range(0, len(pts), per):
        chunk = pts[lo : lo + per]
        u_imgs, v_imgs = _p1_images(spec, alg, _images(spec, alg, chunk))
        check_p1_images(alg, u_imgs, v_imgs)
        for i, key in enumerate(_orbit_keys(alg.F, u_imgs, v_imgs)):
            orbit[lo + i] = numbers.setdefault(key.tobytes(), len(numbers))
            if orbit[lo + i] == len(firsts):
                firsts.append(chunk[i])
    infinite = np.empty(len(firsts), dtype=bool)
    per = max(1, _CHUNK_CELLS // (4 * MF.dim**2 or 1))
    for lo in range(0, len(firsts), per):
        u_imgs, v_imgs = _p1_pair(spec, _images(spec, alg, firsts[lo : lo + per]))
        view = p1_view_from_images(MF, u_imgs, v_imgs, check=check)
        infinite[lo : lo + per] = pd_infinite(view, check=check)
    return SupportSet(spec, field, tuple(itertools.compress(pts, infinite[orbit])), module=M)


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
    """F_q points of the cohomological spectrum, in psi's coordinate order.

    psi is a bijection onto them, so the same POINTS_CAP bound applies."""
    _check_points_cap(spec, field)
    els = field.elements()
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
    alg = build_group_algebra(spec, field)[0]
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
