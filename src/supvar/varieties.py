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

A point is a row of field indices in that order, and a set of points one
(points, arity) index array: every computation on points is a lookup in
the field's GFTables, on all rows at once.  Element texts appear only when
a point set is rendered (render_points).

The support set of a module M collects the points whose P_1-pullback of M
has infinite projective dimension; psi_map is the coordinate form of the
comparison map to the cohomological spectrum, and monoid_scale is the
dilation action making everything conical.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import TYPE_CHECKING

import numpy as np

from .errors import BoundExceeded, ValidationError
from . import linalg
from .superalg.algebra import GroupAlgebraSpec, build_group_algebra

if TYPE_CHECKING:
    from .gfield import FieldDescriptor
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


def _texts(field: FieldDescriptor) -> list:
    """The text of every element of the field, in index order."""
    return [field.from_index(i).encode() for i in range(field.q)]


def render_points(field: FieldDescriptor, pts: np.ndarray) -> str:
    """One line per row: the coordinates' texts, comma-joined."""
    texts = np.array(_texts(field), dtype=object)
    return "\n".join(map(",".join, zip(*texts[pts].T)))


def _canonical(field: FieldDescriptor, pts: np.ndarray) -> np.ndarray:
    """The rows in the canonical output order: lexicographic on the texts of
    their coordinates, through each element's rank among the field's texts.
    The rows are distinct: every enumeration starts from a grid of distinct
    tuples."""
    key = np.argsort(np.argsort(_texts(field))).astype(linalg.DT)[pts]
    return pts[np.lexsort(key.T[::-1])]


def _frob_power(F: linalg.GFTables, k: int) -> np.ndarray:
    """The table of x -> x^(p^k); k may be negative, since x^(p^n) = x."""
    out = np.arange(F.q, dtype=linalg.DT)
    for _ in range(k % F.n):
        out = F.frob[out]
    return out


@dataclass
class PointSet:
    spec: GroupAlgebraSpec
    field: FieldDescriptor
    points: np.ndarray  # (points, arity) field indices, in canonical order


def _has_b(spec: GroupAlgebraSpec) -> bool:
    """Whether the points carry the coordinate b of u_{r-1}^{p^{s-1}}."""
    return spec.family == "Mrs" and spec.eta == 0 and spec.s >= 2


def _on_cone(spec: GroupAlgebraSpec) -> bool:
    """Whether the family's points satisfy mu^2 = a_0^{p^r}."""
    return spec.family == "Mrs" and (spec.s >= 2 or spec.eta != 0)


def _arity(spec: GroupAlgebraSpec) -> int:
    """Number of coordinates of a point of the family."""
    if not isinstance(spec, GroupAlgebraSpec):
        raise ValidationError("points need a finite group algebra spec")
    if spec.family == "GaMinus":
        return 1
    if spec.family == "Gar":
        if spec.r == 0:
            raise ValidationError("no point coordinates for G_a(0): Gar needs r >= 1")
        return spec.r
    if spec.family in ("Mrs", "Mrf"):
        return 1 + spec.r + _has_b(spec)
    raise ValidationError(f"no points for family {spec.family}")


def _check_characteristic(spec: GroupAlgebraSpec, field: FieldDescriptor):
    if field.p != spec.p:
        raise ValidationError(f"field characteristic {field.p} != spec p {spec.p}")


def _cone_mask(spec: GroupAlgebraSpec, F: linalg.GFTables, pts: np.ndarray) -> np.ndarray:
    """mu^2 = a_0^{p^r} on each row (mu, a_0, ...)."""
    mu, a0 = pts[..., 0], pts[..., 1]
    return F.mul[mu, mu] == _frob_power(F, spec.r)[a0]


def _check_parametrized(spec: GroupAlgebraSpec, field: FieldDescriptor):
    """The spec's p is the field's characteristic, its q^arity candidate
    tuples are within POINTS_CAP, and the family has a parametrization."""
    arity = _arity(spec)
    _check_characteristic(spec, field)
    if field.q ** min(arity, POINTS_CAP.bit_length()) > POINTS_CAP:  # a huge arity, no huge power
        raise BoundExceeded(f"{field.q}^{arity} candidate points exceed the cap {POINTS_CAP}")
    if spec.family not in ("Mrs", "Gar", "GaMinus"):
        raise ValidationError(f"no parametrization for family {spec.family}")
    if spec.eta != 0 and spec.r < 2:
        raise ValidationError("parametrized points for the eta-families need r >= 2")


def family_points(spec: GroupAlgebraSpec, field: FieldDescriptor) -> np.ndarray:
    """Parametrized F_q points, as a (points, arity) index array in canonical
    order; raises for unsupported families and, before enumerating, for
    more than POINTS_CAP candidate tuples."""
    _check_parametrized(spec, field)
    pts = linalg.grid(field.q, _arity(spec))
    if _on_cone(spec):
        pts = pts[_cone_mask(spec, linalg.tables(field), pts)]
    return _canonical(field, pts)


def check_point(spec: GroupAlgebraSpec, field: FieldDescriptor, pt):
    """Coordinate count, the field's characteristic, and mu^2 = a_0^{p^r}
    where the family imposes it, for a point given from outside the
    program."""
    arity = _arity(spec)
    if len(pt) != arity:
        raise ValidationError(f"a point of {spec.label()} has {arity} coordinates, got {len(pt)}")
    _check_characteristic(spec, field)
    if _on_cone(spec) and not _cone_mask(spec, linalg.tables(field), np.asarray(pt)):
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
    C = np.asarray(pts, dtype=linalg.DT)
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
    if _has_b(spec):
        top, k = images[f"u{r-1}"], p ** (r + spec.s - 2)
        top[:, k] = F.add[top[:, k], C[:, 1 + r]]
    if lead:
        v[:, alg.generators["v"]] = C[:, 0]
    images["v"] = v
    return images


def point_images(spec: GroupAlgebraSpec, alg: PresentedSuperalgebra, pt):
    """Generator images in kG of the morphism labeled by the point."""
    return {g: x[0] for g, x in _images(spec, alg, [pt]).items()}


def validate_point_images(spec, alg, images):
    """The P_r relations other than commutators must hold on the images:
    u_i^p for i < r - 1, and u_{r-1}^p + v^2.

    Images may be stacked, (..., algebra dim) per generator; the products
    then run over the whole stack through the algebra's dense structure
    tensor (el_word, el_terms)."""
    p, r = spec.p, spec.height()
    images = {f"u{r - 1}": np.zeros_like(images["v"]), **images}  # G_a(0) has no u
    for i in range(r - 1):
        if np.any(alg.el_word(1, ((f"u{i}", p),), images)):
            raise ValidationError(f"image of u{i} is not p-nilpotent")
    if np.any(alg.el_terms(((1, ((f"u{r - 1}", p),)), (1, (("v", 2),))), images)):
        raise ValidationError("images violate u^p + v^2 = 0")


def enumerate_points(spec: GroupAlgebraSpec, field: FieldDescriptor, method: str = "param") -> PointSet:
    """All F_q points, by parametrization or by the Hom-scheme solver.

    The solver finds the even Hopf maps P_r -> kG from kG's structure
    tensors (homscheme.solve_even_points), and they are matched against the
    parametrization through their images; a mismatch raises, so the two
    methods cross-check each other.  Both bounds, on the candidate points
    and on the solver's count (check_solver_cap), are checked before any
    point is listed.
    """
    if method not in ("param", "solve"):
        raise ValidationError("method must be 'param' or 'solve'")
    if method == "param":
        return PointSet(spec, field, family_points(spec, field))
    from .superalg.homscheme import hom_scheme_ideal, solve_even_points
    from .superalg.pr import PrPresentation

    _check_parametrized(spec, field)
    alg = build_group_algebra(spec, field)[0]
    pres = PrPresentation(spec.p, spec.height())
    sols = solve_even_points(hom_scheme_ideal(pres, alg))
    pts = family_points(spec, field)
    # match solutions with parametrized points through their images
    images = _images(spec, alg, pts)
    lookup = {row.tobytes(): i for i, row in enumerate(np.hstack([images[g] for g in pres.gen_names]))}
    found = [lookup.get(np.concatenate([sol[g] for g in pres.gen_names]).tobytes()) for sol in sols]
    if None in found:
        raise ValidationError("solver found a morphism outside the parametrization")
    if sorted(found) != list(range(len(pts))):
        raise ValidationError("solver points do not biject with the parametrization")
    return PointSet(spec, field, pts)


def _p1_pair(spec: GroupAlgebraSpec, images):
    """The images of u = u_{r-1} and v, stacked or single."""
    return images.get(f"u{spec.height() - 1}", np.zeros_like(images["v"])), images["v"]


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
    b = np.where(cv != 0, F.inv[cv], 1)
    a_v = _frob_power(F, -1)[F.mul[b, b]]
    a_u = F.mul[np.where(square[cu], 1, square.argmin()), F.inv[cu]]
    a = np.where(cv != 0, a_v, np.where(cu != 0, a_u, 1))
    return np.hstack([F.mul[a[:, None], u], F.mul[b[:, None], v]])


def point_to_p1(spec: GroupAlgebraSpec, pt, field: FieldDescriptor):
    """Images of u and v of P_1 under the point's morphism composed with
    the inclusion u -> u_{r-1}, v -> v.  Returns (algebra, u_img, v_img)."""
    alg = build_group_algebra(spec, field)[0]
    return (alg, *_p1_images(spec, alg, point_images(spec, alg, pt)))


def point_pullback(spec: GroupAlgebraSpec, pt, M: SuperModule) -> P1ModuleView:
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
    check: bool = False,
) -> PointSet:
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
    pts = enumerate_points(spec, field).points
    per = max(1, _CHUNK_CELLS // alg.dim**2)
    orbit = np.empty(len(pts), dtype=np.int64)
    numbers = {}  # orbit key -> orbit number, in the order of first points
    firsts = []  # the row of each orbit's first point
    for lo in range(0, len(pts), per):
        u_imgs, v_imgs = _p1_images(spec, alg, _images(spec, alg, pts[lo : lo + per]))
        check_p1_images(alg, u_imgs, v_imgs)
        for i, key in enumerate(_orbit_keys(alg.F, u_imgs, v_imgs), start=lo):
            orbit[i] = numbers.setdefault(key.tobytes(), len(numbers))
            if orbit[i] == len(firsts):
                firsts.append(i)
    firsts = pts[firsts]
    infinite = np.empty(len(firsts), dtype=bool)
    per = max(1, _CHUNK_CELLS // (4 * MF.dim**2 or 1))
    for lo in range(0, len(firsts), per):
        u_imgs, v_imgs = _p1_pair(spec, _images(spec, alg, firsts[lo : lo + per]))
        view = p1_view_from_images(MF, u_imgs, v_imgs, check=check)
        infinite[lo : lo + per] = pd_infinite(view, check=check)
    return PointSet(spec, field, pts[infinite[orbit]])


def psi_map(spec: GroupAlgebraSpec, field: FieldDescriptor, pts: np.ndarray) -> np.ndarray:
    """Coordinates of the points' images in the cohomological spectrum: one
    row per row of pts (a single point or a stack)."""
    if spec.family == "GaMinus":
        return pts
    if spec.family not in ("Gar", "Mrs"):
        raise ValidationError(f"psi is not implemented for family {spec.family}")
    F = linalg.tables(field)
    r = spec.r
    lead = int(spec.family == "Mrs")  # mu leads, and is kept
    a = pts[..., lead : lead + r]
    cols = [pts[..., 0]] if lead else []
    # a_{r-1-i}^{p^(i+1)}; the eta family ends in (-eta^{-1})^p a_{r-1}^p instead of a_{r-1}^p
    cols += [_frob_power(F, i + 1)[a[..., r - 1 - i]] for i in range(int(spec.eta != 0), r)]
    if spec.eta != 0:
        cols.append(F.mul[F.frob[F.neg[F.inv[F.scalar(spec.eta)]]], F.frob[a[..., r - 1]]])
    if _has_b(spec):
        cols.append(F.frob[pts[..., 1 + r]])
    return np.stack(cols, axis=-1)


def monoid_scale(spec: GroupAlgebraSpec, field: FieldDescriptor, pts: np.ndarray, mu_t, a_t) -> np.ndarray:
    """The dilation action on a stack of points: compose each with the
    endomorphism v -> mu_t v, u_i -> a_t^{p^i} u_i of P_r, then re-extract
    coordinates.  mu_t and a_t are field indices.

    Requires a_t^{p^r} = mu_t^2; the result is verified by recomputing the
    scaled images from the returned coordinates.
    """
    F = linalg.tables(field)
    p = spec.p
    r = spec.height()
    if _frob_power(F, r)[a_t] != F.mul[mu_t, mu_t]:
        raise ValidationError("inadmissible scaling: a^(p^r) != mu^2")
    alg = build_group_algebra(spec, field)[0]
    images = _images(spec, alg, pts)
    scaled = {f"u{j}": F.mul[_frob_power(F, j)[a_t], images[f"u{j}"]] for j in range(r)}
    scaled["v"] = F.mul[mu_t, images["v"]]

    # re-extract coordinates from the scaled images: the coefficient of
    # gamma_{p^j} in the top image is a_{r-1-j}^{p^j}
    top = scaled[f"u{r-1}"]
    cols = [] if spec.family == "Gar" else [scaled["v"][:, alg.generators["v"]]]
    if spec.family != "GaMinus":
        cols += [_frob_power(F, -j)[top[:, p**j]] for j in reversed(range(r))]
    if _has_b(spec):
        cols.append(top[:, p ** (r + spec.s - 2)])
    out = np.stack(cols, axis=1)

    check = _images(spec, alg, out)
    if any(not np.array_equal(check[g], x) for g, x in scaled.items()):
        raise ValidationError("scaled morphism left the family parametrization")
    return out

