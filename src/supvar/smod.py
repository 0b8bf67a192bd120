"""Finite-dimensional supermodules over presented superalgebras.

A module stores one action matrix per named algebra generator; matrices act
on column coordinate vectors and their entries are field element indices.
Even generators act by parity-preserving matrices, odd generators by
parity-reversing ones, and the actions must respect the algebra's product
tensor (validate_module).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import ValidationError, json_int
from .gfield import FieldDescriptor, parse_element, parse_field
from . import linalg
from .superalg.algebra import (
    GroupAlgebraSpec,
    PresentedSuperalgebra,
    build_group_algebra,
    canonical_images,
)


@dataclass
class SuperModule:
    algebra: PresentedSuperalgebra
    dim: int
    parity: np.ndarray  # (dim,) of 0/1
    action: dict  # generator name -> (dim, dim) index matrix
    _cache: dict = dfield(default_factory=dict, repr=False)

    @property
    def field(self) -> FieldDescriptor:
        return self.algebra.field

    @property
    def F(self):
        return linalg.tables(self.algebra.field)

    def basis_action(self, i: int) -> np.ndarray:
        """Action matrix of the i-th algebra basis element."""
        return self.basis_actions()[i].reshape(self.dim, self.dim)

    def basis_actions(self) -> np.ndarray:
        """Every basis action matrix, flattened: shape (algebra dim, dim * dim).
        That of b_i is the action of its stored monomial coeff g_1^e_1
        g_2^e_2 ..., the generators' matrix powers multiplied left to right."""
        cached = self._cache.get("basis_flat")
        if cached is None:
            F, rows = self.F, []
            for coeff, mon in self.algebra.monomials:
                out = linalg.identity(self.dim)
                for g, e in mon:
                    out = linalg.matmul(F, out, linalg.matpow(F, self.action[g], e))
                rows.append(linalg.scale(F, coeff, out).ravel())
            cached = self._cache["basis_flat"] = np.stack(rows)
        return cached

    def element_action(self, vec: np.ndarray) -> np.ndarray:
        """Action matrix of an algebra element (index vector), or the stack of
        action matrices (..., dim, dim) of a stack of elements (..., algebra dim).

        Linear in the element's coordinates, so one product against the
        flattened basis actions serves the whole stack.
        """
        lead = vec.shape[:-1]
        flat = linalg.matmul(self.F, vec.reshape(-1, vec.shape[-1]), self.basis_actions())
        return flat.reshape(lead + (self.dim, self.dim))


def validate_module(M: SuperModule) -> None:
    """Check the shapes and parities of the actions, then the actions against
    kG's product T, one generator at a time as two 2-D products:
    X_g rho(b_j) = sum_k T[g, j, k] rho(b_k) for each generator g and basis
    element b_j, rho(b_j) the action of b_j's monomial (basis_actions).  As
    verify_algebra checks that each b_i is its monomial and that T is
    associative, the induction in its docstring makes rho multiplicative:
    this accepts exactly the kG-modules.  Raises ValidationError naming
    every failure."""
    issues = []
    A = M.algebra
    if M.parity.shape != (M.dim,) or not np.all((M.parity == 0) | (M.parity == 1)):
        raise ValidationError("parity vector malformed (entries must be 0/1)")
    for g, gi in A.generators.items():
        mat = M.action.get(g)
        if mat is None:
            issues.append(f"missing action matrix for generator {g}")
            continue
        if mat.shape != (M.dim, M.dim):
            issues.append(f"action of {g} has shape {mat.shape}, expected {(M.dim, M.dim)}")
            continue
        gp = A.gen_parity(g)
        rows, cols = np.nonzero(mat)
        bad = (M.parity[rows] != (M.parity[cols] + gp) % 2).sum()
        if bad:
            issues.append(f"parity mismatch in the action of {g} ({bad} entries)")
    if not issues:
        F, d, n = M.F, A.dim, M.dim
        R = M.basis_actions()
        side = R.reshape(d, n, n).transpose(1, 0, 2).reshape(n, d * n)  # rho(b_0) | rho(b_1) | ...
        for g, gi in A.generators.items():
            lhs = linalg.matmul(F, M.action[g], side).reshape(n, d, n).transpose(1, 0, 2)
            rhs = linalg.matmul(F, A.tensor[gi], R).reshape(d, n, n)
            bad = np.flatnonzero((lhs != rhs).any(axis=(1, 2)))
            if bad.size:
                issues.append(f"the action of {g} is not multiplicative at b_{bad[0]}")
    if issues:
        raise ValidationError("; ".join(issues))


def trivial_module(A: PresentedSuperalgebra, odd: bool = False) -> SuperModule:
    par = np.array([1 if odd else 0], dtype=np.int8)
    action = {g: linalg.zeros(1, 1) for g in A.generators}
    return SuperModule(A, 1, par, action)


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


def tensor_module(M: SuperModule, N: SuperModule) -> SuperModule:
    """Tensor product via the coproduct: g acts by sum g1 (x) g2 with the
    Koszul sign (-1)^{|g2||m|} on the left factor."""
    A = M.algebra
    if N.algebra is not A:
        raise ValidationError("tensor factors must be modules over the same algebra")
    F, C = M.F, A.hopf.coproduct
    dim = M.dim * N.dim
    parity = (np.repeat(M.parity, N.dim) + np.tile(N.parity, M.dim)) % 2
    oddcols = np.nonzero(M.parity == 1)[0]
    action = {}
    for g, gi in A.generators.items():
        acc = linalg.zeros(dim, dim)
        for j, k in np.argwhere(C[gi]).tolist():
            X = M.basis_action(j)
            Y = N.basis_action(k)
            if A.parity[k]:
                X = X.copy()
                X[:, oddcols] = F.neg[X[:, oddcols]]
            acc = linalg.madd(F, acc, linalg.scale(F, C[gi, j, k], linalg.kron(F, X, Y)))
        action[g] = acc
    out = SuperModule(A, dim, parity.astype(np.int8), action)
    validate_module(out)
    return out


def dual_module(M: SuperModule) -> SuperModule:
    """Contragredient module: (a.f)(m) = (-1)^{|a||f|} f(S(a).m)."""
    A = M.algebra
    F = M.F
    action = {}
    for g, gi in A.generators.items():
        s_img = A.hopf.antipode[:, gi].copy()
        T = M.element_action(s_img)
        D = T.T.copy()
        if A.gen_parity(g):
            neg = F.neg[D]
            oddcols = np.nonzero(M.parity == 1)[0]
            D[:, oddcols] = neg[:, oddcols]
        action[g] = D
    out = SuperModule(A, M.dim, M.parity.copy(), action)
    validate_module(out)
    return out


def parity_shift(M: SuperModule, which: str = "Pi") -> SuperModule:
    """Pi keeps the action matrices; boldPi negates the odd generators."""
    if which not in ("Pi", "boldPi"):
        raise ValidationError("which must be 'Pi' or 'boldPi'")
    A = M.algebra
    F = M.F
    action = {}
    for g in A.generators:
        mat = M.action[g]
        if which == "boldPi" and A.gen_parity(g):
            mat = F.neg[mat]
        action[g] = mat.copy()
    out = SuperModule(A, M.dim, (1 - M.parity).astype(np.int8), action)
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


def build_L(mu, a) -> SuperModule:
    """The 2p-dimensional kM_{1;1}-supermodule L_{(mu,a)}.

    Basis x_0..x_{p-1} even and y_0..y_{p-1} odd, with
    s.x_0 = -mu^2 x_1, s.x_i = x_{i+1}, s.y_i = y_{i+1},
    t.x_0 = a^p y_{p-1}, t.x_i = 0 (i >= 1), t.y_i = x_{i+1}.
    """
    field = mu.field
    if a.field != field:
        raise ValidationError("mu and a must lie in the same field")
    p = field.p
    mu, a = mu.index, a.index
    if mu == 0 and a == 0:
        raise ValidationError("(mu, a) = (0, 0) does not define an L-module")
    alg, _ = build_group_algebra(GroupAlgebraSpec("Mrs", p, r=1, s=1), field)
    F = alg.F
    dim = 2 * p
    parity = np.array([0] * p + [1] * p, dtype=np.int8)
    S = linalg.zeros(dim, dim)
    S[1, 0] = F.neg[F.mul[mu, mu]]
    for i in range(1, p - 1):
        S[i + 1, i] = 1
    for i in range(p - 1):
        S[p + i + 1, p + i] = 1
    T = linalg.zeros(dim, dim)
    T[2 * p - 1, 0] = F.frob[a]
    for i in range(p - 1):
        T[i + 1, p + i] = 1
    out = SuperModule(alg, dim, parity, {"u0": S, "v": T})
    validate_module(out)
    return out


def random_module(seed: int, algebra: PresentedSuperalgebra, dim_bound: int) -> SuperModule:
    """Deterministic random module: a graded quotient of the rank-1 free
    module by the submodule generated by a few random homogeneous elements.

    A quotient of a free module is always a module, so no rejection on
    validity is needed, only on the dimension bound.
    """
    if dim_bound < 1:
        raise ValidationError("dim_bound must be at least 1")
    rng = random.Random(seed)
    A = algebra
    F = A.F
    L = A.tensor.transpose(0, 2, 1)  # L[i] is the regular action of b_i
    q = A.field.q
    for _attempt in range(500):
        ngen = rng.randint(1, 3)
        gens = []
        for _ in range(ngen):
            par = rng.randint(0, 1)
            coords = [i for i in range(A.dim) if A.parity[i] == par]
            v = A.el_zero()
            for i in coords:
                v[i] = rng.randrange(q)
            if np.any(v):
                gens.append(v)
        if not gens:
            continue
        # column g * dim + b is b * gens[g]
        W = linalg.bmatmul(F, L, np.stack(gens, axis=1)).transpose(1, 2, 0).reshape(A.dim, -1)
        Wb = linalg.column_space(F, W)
        qdim = A.dim - Wb.shape[1]
        if not 1 <= qdim <= dim_bound:
            continue
        comp = linalg.complement_coords(F, Wb)
        E = linalg.zeros(A.dim, len(comp))
        for c, i in enumerate(comp):
            E[i, c] = 1
        B = np.concatenate([Wb, E], axis=1)
        Binv = linalg.solve(F, B, linalg.identity(A.dim))
        proj = Binv[Wb.shape[1] :, :]
        action = {
            g: linalg.matmul(F, proj, linalg.matmul(F, L[i], E)) for g, i in A.generators.items()
        }
        parity = A.parity[comp].astype(np.int8)
        out = SuperModule(A, qdim, parity, action)
        validate_module(out)
        return out
    raise ValidationError("random module generation failed within the attempt budget")


def extend_scalars(M: SuperModule, field: FieldDescriptor) -> SuperModule:
    """Reinterpret a prime-field module over an extension field.

    Structure constants and matrix entries of prime-subfield elements have
    the same index in any extension, so nothing is rebuilt: the module keeps
    its matrices, and its algebra is the spec's one F_p build carried over
    to the field (see build_group_algebra).
    """
    if M.algebra.field == field:
        return M
    if M.algebra.field.n != 1 or M.algebra.field.p != field.p:
        raise ValidationError("scalar extension only from the prime field")
    alg, _ = build_group_algebra(M.algebra.spec, field)
    return SuperModule(alg, M.dim, M.parity.copy(), {g: m.copy() for g, m in M.action.items()})


def restrict_module(M: SuperModule, sub: PresentedSuperalgebra, gen_map: dict) -> SuperModule:
    """Restriction along a subalgebra inclusion given by generator matching."""
    action = {sg: M.action[ag].copy() for sg, ag in gen_map.items()}
    out = SuperModule(sub, M.dim, M.parity.copy(), action)
    validate_module(out)
    return out


# -- P_1-structures ------------------------------------------------------


@dataclass
class P1ModuleView:
    """A finite-dimensional torsion module over P_1 = k[u,v]/(u^p + v^2):
    a commuting pair (U even, V odd) with V^2 = -U^p and U nilpotent.

    U and V may carry the same leading stack axes, (..., dim, dim): the view
    is then a stack of P_1-structures on one graded space, such as the
    pullbacks of a module at many points.  `validate`, `p1_dual` and the
    pd decision cover all slices at once; `p1_tensor` and Ext take single
    views.
    """

    field: FieldDescriptor
    dim: int
    parity: np.ndarray
    U: np.ndarray
    V: np.ndarray

    @property
    def F(self):
        return linalg.tables(self.field)

    def validate(self, nilpotent: bool = True) -> None:
        """Parity, UV = VU, V^2 = -U^p and, with `nilpotent`, U^dim = 0, on
        every slice; raises ValidationError naming every failure.  Only
        p1_view_from_images leaves the last one out."""
        issues = []
        F = self.F
        p = self.field.p
        for name, mat, gp in (("U", self.U, 0), ("V", self.V, 1)):
            rows, cols = linalg.stack_nonzero(mat)
            if np.any(self.parity[rows] != (self.parity[cols] + gp) % 2):
                issues.append(f"parity mismatch in {name}")
        if np.any(
            linalg.msub(F, linalg.bmatmul(F, self.U, self.V), linalg.bmatmul(F, self.V, self.U))
        ):
            issues.append("U and V do not commute")
        rel = linalg.madd(F, linalg.matpow(F, self.U, p), linalg.bmatmul(F, self.V, self.V))
        if np.any(rel):
            issues.append("V^2 != -U^p")
        if nilpotent and np.any(linalg.matpow(F, self.U, max(self.dim, 1))):
            issues.append("U is not nilpotent (module is not torsion)")
        if issues:
            raise ValidationError("; ".join(issues))


def p1_view(field: FieldDescriptor, parity, U, V) -> P1ModuleView:
    out = P1ModuleView(field, len(parity), np.asarray(parity, dtype=np.int8), U, V)
    out.validate()
    return out


def p1_view_from_module(M: SuperModule) -> P1ModuleView:
    """The canonical P_1-view: the pullback along u -> u_{r-1}, v -> v and
    the canonical map P_r -> kG (superalg.algebra.canonical_images), with
    every check of p1_view_from_images."""
    spec = M.algebra.spec
    if spec.family == "Gar" and spec.r == 0:
        raise ValidationError("trivial group has no canonical P_1 restriction")
    pres, images = canonical_images(M.algebra)
    return p1_view_from_images(M, images[f"u{pres.r - 1}"], images["v"], check=True)


def check_p1_images(A: PresentedSuperalgebra, u_img: np.ndarray, v_img: np.ndarray) -> None:
    """The checks in kG of images of u and v, single or stacked
    (..., algebra dim): u has counit 0 and is even, v is odd."""
    if np.any(linalg.bmatmul(A.F, u_img[..., None, :], A.augmentation[:, None])):
        raise ValidationError("point image of u has nonzero counit")
    if np.any(u_img[..., A.parity == 1]) or np.any(v_img[..., A.parity == 0]):
        raise ValidationError("point images of u and v must be even and odd")


def p1_view_from_images(
    M: SuperModule, u_img: np.ndarray, v_img: np.ndarray, check: bool = False
) -> P1ModuleView:
    """Pull a module back to P_1 along u -> u_img, v -> v_img.

    Stacks of images (..., algebra dim) give the stack of pullbacks, one
    slice per pair of images.  Each image is checked in kG: u has counit 0
    and is even, v is odd.  The stack is checked for parity, UV = VU and
    V^2 = -U^p; U^dim = 0 only with `check`, since it follows from the
    rest.  M is a checked kG-module and the images satisfy the P_r
    relations (varieties.validate_point_images).  With counit 0, u lies in
    the radical of the local algebra kG, spanned by nonempty words in the
    generators, and the radical acts nilpotently on M: every word of
    length dim M vanishes on it (checked below, once per module).  So U is
    nilpotent.
    """
    A = M.algebra
    check_p1_images(A, u_img, v_img)
    out = P1ModuleView(
        A.field, M.dim, M.parity.copy(), M.element_action(u_img), M.element_action(v_img)
    )
    out.validate(nilpotent=check)
    if "rad_nilpotent" not in M._cache:
        # rad^{k+1} M = sum_g g.rad^k M, which must reach 0 by k = dim M
        acts = np.array([M.action[g] for g in A.generators], dtype=linalg.DT)
        acts = acts.reshape(len(A.generators), M.dim, M.dim)
        if linalg.descent(M.F, acts, linalg.identity(M.dim), M.dim) is None:
            raise ValidationError("the radical of the algebra does not act nilpotently")
        M._cache["rad_nilpotent"] = True
    return out


def p1_trivial(field: FieldDescriptor, odd: bool = False) -> P1ModuleView:
    par = np.array([1 if odd else 0], dtype=np.int8)
    return p1_view(field, par, linalg.zeros(1, 1), linalg.zeros(1, 1))


def p1_dual(W: P1ModuleView) -> P1ModuleView:
    """Contragredient P_1-structure (S(u) = -u, S(v) = -v), slice by slice.

    Closed on valid views, so the result is not re-validated.
    """
    F = W.F
    U = F.neg[np.swapaxes(W.U, -1, -2)]
    V = F.neg[np.swapaxes(W.V, -1, -2)]
    oddcols = np.nonzero(W.parity == 1)[0]
    V[..., oddcols] = F.neg[V[..., oddcols]]
    return P1ModuleView(W.field, W.dim, W.parity.copy(), U, V)


def p1_tensor(M: P1ModuleView, N: P1ModuleView) -> P1ModuleView:
    """Tensor product: u and v are primitive, so U = U(x)1 + 1(x)U and
    V = V(x)1 + pi(x)V.  Closed on valid views, so not re-validated."""
    F = M.F
    I_M = linalg.identity(M.dim)
    I_N = linalg.identity(N.dim)
    U = linalg.madd(F, linalg.kron(F, M.U, I_N), linalg.kron(F, I_M, N.U))
    pi_M = np.diag(np.where(M.parity == 1, F.neg[1], 1)).astype(linalg.DT)
    V = linalg.madd(F, linalg.kron(F, M.V, I_N), linalg.kron(F, pi_M, N.V))
    parity = (np.repeat(M.parity, N.dim) + np.tile(N.parity, M.dim)) % 2
    return P1ModuleView(M.field, M.dim * N.dim, parity.astype(np.int8), U, V)


# -- JSON encoding of modules -------------------------------------------


def _gen_alias_maps(spec):
    """(emit, parse) generator-name maps for the JSON surface."""
    emit = {}
    if spec is not None and spec.family in ("Mrs", "Mrf") and spec.r == 1:
        emit = {"u0": "s", "v": "t"}
    if spec is not None and spec.family == "GaMinus":
        emit = {"v": "t"}
    parse = {v: k for k, v in emit.items()}
    parse.setdefault("s", "u0")
    parse.setdefault("t", "v")
    parse.setdefault("u", "u0")
    return emit, parse


def module_to_json(M: SuperModule) -> dict:
    """File form: basis permuted even-block-first, entries text encoded."""
    order = np.argsort(M.parity, kind="stable")
    inv = np.empty_like(order)
    inv[order] = np.arange(M.dim)
    F = M.F
    emit, _ = _gen_alias_maps(M.algebra.spec)

    def mat_json(mat):
        mat = mat[np.ix_(order, order)]
        return [[F.to_element(int(mat[i, j])).encode() for j in range(M.dim)] for i in range(M.dim)]

    return {
        "group": M.algebra.spec.to_json() if M.algebra.spec else None,
        "field": M.algebra.field.encode(),
        "dim": int(M.dim),
        "parity": [int(x) for x in M.parity[order]],
        "action": {emit.get(g, g): mat_json(mat) for g, mat in M.action.items()},
    }


def module_from_json(d: dict):
    """Parse a module file; returns a SuperModule, or a P1ModuleView when
    the group is the pseudo-family P1.  Validation runs automatically."""
    if not isinstance(d, dict) or not isinstance(d.get("field", ""), str):
        raise ValidationError("module file must be a JSON object with 'field' as text")
    for key in ("group", "field", "dim", "parity", "action"):
        if key not in d:
            raise ValidationError(f"module file missing key {key!r}")
    field = parse_field(d["field"])
    dim = json_int(d["dim"], "module file field 'dim'")
    if not isinstance(d["parity"], list):
        raise ValidationError("module file field 'parity' must list integers")
    parity = [json_int(x, "each entry of module file field 'parity'") for x in d["parity"]]
    if len(parity) != dim or not all(x in (0, 1) for x in parity):
        raise ValidationError("parity vector malformed (entries must be 0/1)")
    parity = np.array(parity, dtype=np.int8)
    if not isinstance(d["action"], dict):
        raise ValidationError("module file field 'action' must map generators to matrices")

    def parse_mat(rows):
        square = isinstance(rows, list) and len(rows) == dim
        if not square or any(not isinstance(r, list) or len(r) != dim for r in rows):
            raise ValidationError("action matrix has wrong shape")
        out = linalg.zeros(dim, dim)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                out[i, j] = parse_element(field, str(entry)).index
        return out

    group = d["group"]
    if isinstance(group, dict) and group.get("family") == "P1":
        acts = {}
        for name, rows in d["action"].items():
            canon = {"s": "u", "t": "v", "u0": "u"}.get(name, name)
            if canon in acts:
                raise ValidationError(f"generator {canon!r} is named twice in the module file")
            acts[canon] = parse_mat(rows)
        if set(acts) != {"u", "v"}:
            raise ValidationError("P1 module needs exactly the actions of u and v")
        return p1_view(field, parity, acts["u"], acts["v"])

    spec = GroupAlgebraSpec.from_json(group)
    alg, _ = build_group_algebra(spec, field)
    _, parse_alias = _gen_alias_maps(spec)
    action = {}
    for name, rows in d["action"].items():
        canon = parse_alias.get(name, name)
        if canon not in alg.generators:
            raise ValidationError(f"unknown generator {name!r} for {spec.label()}")
        if canon in action:
            raise ValidationError(f"generator {canon!r} is named twice in the module file")
        action[canon] = parse_mat(rows)
    missing = set(alg.generators) - set(action)
    if missing:
        raise ValidationError(f"missing action matrices for {sorted(missing)}")
    out = SuperModule(alg, dim, parity, action)
    validate_module(out)
    return out
