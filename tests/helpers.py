"""Helpers the tests build their cases with.  No command of the package
needs them, so they live here, next to the tests that use them:

- from_int_matrix, an index matrix from integers;
- regular_module, pullback, free_over_cyclic and p1_trivial: modules and a
  freeness test;
- canonical_quotient_morphism and label_spec: the canonical map P_r -> kG,
  and a classification label read back as a spec;
- psi_target_points, admissible_scalings and m11_subgroup_embeddings: the
  F_q points of the cohomological spectrum, the dilation monoid, and the
  canonical subgroups of M_{1;1}.
"""

import numpy as np

from supvar import linalg
from supvar.errors import ValidationError
from supvar.gfield import FieldDescriptor
from supvar.smod import P1ModuleView, SuperModule, p1_view, validate_module
from supvar.superalg.algebra import GroupAlgebraSpec, PresentedSuperalgebra, canonical_images
from supvar.superalg.morphisms import QuotientLabel, SuperalgebraMorphism
from supvar.varieties import _arity, _canonical, _check_parametrized, _frob_power, _on_cone


def from_int_matrix(F: linalg.GFTables, rows) -> np.ndarray:
    """Integers (interpreted in the prime subfield) to an index matrix."""
    a = np.array(rows, dtype=np.int64) % F.p
    return a.astype(linalg.DT)


# -- modules -------------------------------------------------------------


def regular_module(A: PresentedSuperalgebra) -> SuperModule:
    """A acting on itself by left multiplication (cached per algebra): the
    action of b_i is tensor[i].T, since b_i b_j = sum_k tensor[i, j, k] b_k."""
    cached = getattr(A, "_regular_module", None)
    if cached is None:
        action = {g: np.ascontiguousarray(A.tensor[i].T) for g, i in A.generators.items()}
        cached = SuperModule(A, A.dim, A.parity.astype(np.int8).copy(), action)
        A._regular_module = cached
    return cached


def pullback(M: SuperModule, source: PresentedSuperalgebra, images: dict) -> SuperModule:
    """Pull a module back into `source` along g -> images[g], elements of
    M's algebra.  The result is validated: a failure means the map is not an
    algebra map, and on a faithful M, such as regular_module, a pass means
    it is one."""
    action = {g: M.element_action(images[g]) for g in source.generators}
    out = SuperModule(source, M.dim, M.parity.copy(), action)
    validate_module(out)
    return out


def free_over_cyclic(M: SuperModule, X: np.ndarray, m: int) -> bool:
    """Whether M is free over k[x]/(x^m) acting through X.

    Requires X^m = 0; freeness is equivalent to dim M = m * rank(X^{m-1}),
    i.e. every Jordan block of X has the full size m.
    """
    F = M.F
    if np.any(linalg.matpow(F, X, m)):
        raise ValidationError(f"operator does not satisfy X^{m} = 0")
    return M.dim == m * linalg.rank(F, linalg.matpow(F, X, m - 1))


def p1_trivial(field: FieldDescriptor, odd: bool = False) -> P1ModuleView:
    par = np.array([1 if odd else 0], dtype=np.int8)
    return p1_view(field, par, linalg.zeros(1, 1), linalg.zeros(1, 1))


# -- morphisms -----------------------------------------------------------


def canonical_quotient_morphism(alg: PresentedSuperalgebra) -> SuperalgebraMorphism:
    """The canonical P_r -> kG map for a quotient-family group algebra."""
    pres, images = canonical_images(alg)
    return SuperalgebraMorphism(pres, alg, images)


def label_spec(label: QuotientLabel, p: int) -> GroupAlgebraSpec:
    """The spec of a classification label with prime-field parameters
    (raises when they are not)."""
    if label.kind == "Gar":
        return GroupAlgebraSpec("Gar", p, r=label.r)
    if label.kind == "GaMinus":
        return GroupAlgebraSpec("GaMinus", p)
    if any(c >= p for c in label.f) or label.eta >= p:
        raise ValidationError("label parameters lie outside the prime field")
    f = tuple(int(c) for c in label.f)
    if all(c == 0 for c in f[:-1]) and f[-1] == 1:
        return GroupAlgebraSpec("Mrs", p, r=label.r, s=len(f), eta=int(label.eta))
    return GroupAlgebraSpec("Mrf", p, r=label.r, eta=int(label.eta), f=f)


# -- points --------------------------------------------------------------


def psi_target_points(spec: GroupAlgebraSpec, field: FieldDescriptor) -> np.ndarray:
    """F_q points of the cohomological spectrum, in psi's coordinate order
    and in canonical order.

    psi is a bijection onto them from the parametrized points, so the same
    checks and POINTS_CAP bound apply."""
    _check_parametrized(spec, field)
    pts = linalg.grid(field.q, _arity(spec))
    if _on_cone(spec):
        # (d, c_1, ..., c_m, e) with the top c equal to d^2
        F = linalg.tables(field)
        pts = pts[pts[:, -2] == F.mul[pts[:, 0], pts[:, 0]]]
    return _canonical(field, pts)


def admissible_scalings(field: FieldDescriptor, r: int) -> np.ndarray:
    """All (mu, a) in F_q^2 with a^{p^r} = mu^2 (the dilation monoid
    points), as index rows, mu major."""
    F = linalg.tables(field)
    pairs = linalg.grid(field.q, 2)
    return pairs[_frob_power(F, r)[pairs[:, 1]] == F.mul[pairs[:, 0], pairs[:, 0]]]


def m11_subgroup_embeddings(p: int):
    """The canonical multiparameter subgroups of M_{1;1} with their point
    embeddings and generator matchings, for naturality checks.

    Returns (name, subspec, embed, generator map); embed takes a stack of
    the subgroup's points to the stack of their images in V_1(M_{1;1}).
    """
    gar1 = GroupAlgebraSpec("Gar", p, r=1)
    gam = GroupAlgebraSpec("GaMinus", p)
    return [
        ("Ga(1)", gar1, lambda pts: np.insert(pts, 0, 0, axis=1), {"u0": "u0"}),
        ("Ga^-", gam, lambda pts: np.insert(pts, 1, 0, axis=1), {"v": "v"}),
    ]
