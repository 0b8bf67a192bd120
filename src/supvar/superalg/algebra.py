"""Finite-dimensional presented Hopf superalgebras and their constructors.

An algebra is given by a basis, a parity vector, a dense structure tensor
(b_i b_j = sum_k T[i, j, k] b_k), named generators, and an expression of
every basis element as a scalar times a monomial in the generators (so
modules only ever need one action matrix per generator).  The tensor holds
prime-field element indices in the sense of supvar.linalg, which name the
same elements in every extension field.

Constructors cover the group algebras of the multiparameter supergroups
(quotients of P_r), the purely even truncated polynomial Hopf algebra, and
tensor products with the Koszul sign rule.  Every constructor takes the spec
alone and builds over F_p: the structure constants lie in the prime field,
whose elements keep their index in every extension.  build_group_algebra
builds and verifies each spec once and serves every field from that build,
with the one tensor shared by all of them.
The P_r relations and gamma monomials come from pr.PrPresentation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from itertools import combinations
from math import comb, prod

import numpy as np

from ..errors import BoundExceeded, ValidationError, json_int
from ..gfield import SUPPORTED_PRIMES, FieldDescriptor, make_field
from .. import linalg
from .pr import (
    PrIndex,
    PrPresentation,
    gamma_coeff,
    graded_commutator,
    p_power,
    pr_coproduct,
)

DIM_CAP = 200


class AlgebraError(ValidationError):
    pass


def _power(p: int, e: int) -> int:
    """p**e, or DIM_CAP + 1 once e > log_2(DIM_CAP) >= log_p(DIM_CAP)."""
    return p**e if e <= DIM_CAP.bit_length() else DIM_CAP + 1


@dataclass
class HopfStructure:
    """Coproduct, counit and antipode tables in the algebra's basis."""

    coproduct: tuple  # per basis index i: tuple of (j, k, coeff_index)
    counit: np.ndarray  # (dim,) indices
    antipode: np.ndarray  # (dim, dim) indices


@dataclass(frozen=True)
class GroupAlgebraSpec:
    """Which group algebra to build; eta and f live in the prime field."""

    family: str  # Mrs | Mrf | Gar | GaMinus | TruncEven | Tensor
    p: int
    r: int = 0
    s: int = 0
    eta: int = 0
    f: tuple = ()  # coefficients (c_1, ..., c_t) of sum c_i T^{p^i}
    t: int = 0  # TruncEven truncation exponent: dimension p^t
    factors: tuple = ()

    def to_json(self):
        d = {"family": self.family, "p": self.p}
        if self.family in ("Mrs", "Mrf", "Gar"):
            d["r"] = self.r
        if self.family == "Mrs":
            d["s"] = self.s
            d["eta"] = str(self.eta)
        if self.family == "Mrf":
            d["f"] = [str(c) for c in self.f]
            d["eta"] = str(self.eta)
        if self.family == "TruncEven":
            d["t"] = self.t
        if self.family == "Tensor":
            d["factors"] = [f.to_json() for f in self.factors]
        return d

    def check(self):
        """The parameter rules every builder relies on; returns the spec."""
        if self.family == "Mrs" and self.s < 1:
            raise AlgebraError("Mrs needs s >= 1")
        if self.family == "Mrf" and not any(c % self.p for c in self.f):
            raise AlgebraError("f must be a nonzero p-polynomial (use GaMinus for f = 0)")
        if self.family in ("Mrs", "Mrf") and self.r < 1:
            raise AlgebraError("quotient families need r >= 1")
        if self.family == "Gar" and self.r < 0:
            raise AlgebraError("Gar needs r >= 0")
        if self.family == "TruncEven" and self.t < 1:
            raise AlgebraError("TruncEven needs t >= 1")
        if self.family == "Tensor":
            if not self.factors:
                raise AlgebraError("empty tensor product")
            for f in self.factors:
                f.check()
        return self

    def fcoeffs(self) -> tuple:
        """(c_1, ..., c_t) of f = sum c_i T^{p^i} for the quotient families,
        with c_t nonzero."""
        if self.family == "Mrs":
            return (0,) * (self.s - 1) + (1,)
        f = tuple(c % self.p for c in self.f)
        while f[-1] == 0:
            f = f[:-1]
        return f

    def dim(self) -> int:
        """Dimension of the group algebra, read from the spec alone.  Past
        DIM_CAP it is only a value above the cap: no huge power is taken."""
        p = self.p
        if self.family == "Mrs":
            return 2 * _power(p, self.r + self.s - 1)
        if self.family == "Mrf":
            return 2 * _power(p, self.r + len(self.fcoeffs()) - 1)
        if self.family == "Gar":
            return _power(p, self.r)
        if self.family == "GaMinus":
            return 2
        if self.family == "TruncEven":
            return _power(p, self.t)
        if self.family == "Tensor":
            return prod(f.dim() for f in self.factors)
        raise ValidationError(f"unknown family {self.family!r}")

    @staticmethod
    def from_json(d):
        """Parse a spec, applying the builders' parameter rules (`check`)."""
        if not isinstance(d, dict) or "family" not in d:
            raise ValidationError("group spec must be an object with a 'family' key")
        fam = d["family"]
        if fam == "P1":
            raise ValidationError("P1 is not a finite group algebra spec")

        def num(key, default=None):
            if default is None and key not in d:
                raise ValidationError(f"group spec missing {key!r}")
            return json_int(d.get(key, default), f"group spec field {key!r}")

        p = num("p")
        if p not in SUPPORTED_PRIMES:
            raise ValidationError(f"group spec field 'p' must be one of {SUPPORTED_PRIMES}")
        if fam == "Mrs":
            spec = GroupAlgebraSpec("Mrs", p, r=num("r"), s=num("s"), eta=num("eta", 0) % p)
        elif fam == "Mrf":
            f = d.get("f")
            if not isinstance(f, list):
                raise ValidationError("group spec field 'f' must list integers")
            f = tuple(json_int(c, "each entry of group spec field 'f'") % p for c in f)
            spec = GroupAlgebraSpec("Mrf", p, r=num("r"), eta=num("eta", 0) % p, f=f)
        elif fam == "Gar":
            spec = GroupAlgebraSpec("Gar", p, r=num("r"))
        elif fam == "GaMinus":
            spec = GroupAlgebraSpec("GaMinus", p)
        elif fam == "TruncEven":
            spec = GroupAlgebraSpec("TruncEven", p, t=num("t"))
        elif fam == "Tensor":
            if not isinstance(d.get("factors"), list):
                raise ValidationError("tensor spec needs a 'factors' list")
            factors = tuple(GroupAlgebraSpec.from_json(x) for x in d["factors"])
            if any(f.p != p for f in factors):
                raise ValidationError("tensor factors disagree on p")
            spec = GroupAlgebraSpec("Tensor", p, factors=factors)
        else:
            raise ValidationError(f"unknown family {fam!r}")
        return spec.check()

    def label(self) -> str:
        if self.family == "Mrs":
            if self.eta:
                return f"M_{{{self.r};{self.s},{self.eta}}}"
            return f"M_{{{self.r};{self.s}}}"
        if self.family == "Mrf":
            return f"M_{{{self.r};f={list(self.f)},{self.eta}}}"
        if self.family == "Gar":
            return f"G_a({self.r})"
        if self.family == "GaMinus":
            return "G_a^-"
        if self.family == "TruncEven":
            return f"k[g]/(g^{self.p**self.t})"
        return "(x)".join(f.label() for f in self.factors)


@dataclass
class PresentedSuperalgebra:
    """Basis, parities, structure constants, generators, relations."""

    field: FieldDescriptor
    dim: int
    parity: np.ndarray  # (dim,) of 0/1
    basis_names: tuple
    unit_index: int
    tensor: np.ndarray  # (dim, dim, dim): b_i b_j = sum_k tensor[i, j, k] b_k
    generators: dict  # name -> basis index
    gen_parity: dict  # name -> 0/1
    monomials: tuple  # per basis index: (coeff_index, ((gen, exp), ...))
    relations: tuple  # (label, terms) with terms ((coeff_index, ((gen, exp), ...)), ...)
    augmentation: np.ndarray  # (dim,) indices
    hopf: HopfStructure | None = None
    spec: GroupAlgebraSpec | None = None

    # -- element helpers (elements are (dim,) index vectors) ------------

    @property
    def F(self):
        return linalg.tables(self.field)

    def el_zero(self):
        return np.zeros(self.dim, dtype=linalg.DT)

    def el_unit(self):
        return self.el_basis(self.unit_index)

    def el_basis(self, i: int):
        e = self.el_zero()
        e[i] = 1
        return e

    def el_gen(self, name: str):
        return self.el_basis(self.generators[name])

    def el_scale(self, c, x):
        return self.F.mul[self.F.scalar(c), x]

    def el_add(self, x, y):
        return self.F.add[x, y]

    def el_mul(self, x, y):
        """x y for elements or stacks of them (..., dim), broadcast as numpy
        does: the terms x_i y_j over the union supports i of x and j of y,
        summed against tensor[i, j] by one product."""
        F, d = self.F, self.dim
        shape = np.broadcast_shapes(x.shape, y.shape)
        i = np.flatnonzero(x.reshape(-1, d).any(axis=0))
        j = np.flatnonzero(y.reshape(-1, d).any(axis=0))
        terms = F.mul[x[..., i, None], y[..., None, j]].reshape(prod(shape[:-1]), i.size * j.size)
        out = linalg.matmul(F, terms, self.tensor[np.ix_(i, j)].reshape(-1, d))
        return out.reshape(shape)

    def el_pow(self, x, e: int):
        return reduce(self.el_mul, [x] * e, self.el_unit())

    @cached_property
    def products(self):
        """The tensor's nonzero entries for sparse loops:
        (i, j) -> [(k, tensor[i, j, k]), ...] in increasing k."""
        out = {}
        for i, j, k in np.argwhere(self.tensor).tolist():
            out.setdefault((i, j), []).append((k, int(self.tensor[i, j, k])))
        return out

    def element_parity(self, x):
        pars = set(int(self.parity[i]) for i in np.nonzero(x)[0])
        if len(pars) > 1:
            return None
        return pars.pop() if pars else 0

    def radical_coords(self):
        """Coordinates spanning the augmentation ideal (all non-unit basis)."""
        return [i for i in range(self.dim) if i != self.unit_index]


# -- quotient families of P_r ------------------------------------------


def _quotient_reducer(p, r, fcoeffs, eta):
    """Normal form map for gamma indices in P_r/(f(u_{r-1}) + eta u_0).

    fcoeffs = (c_1, ..., c_t) with c_t nonzero; basis indices run below
    p^{r+t-1}.  Returns (basis_bound, normal_form) where normal_form(n) maps
    a gamma index to a dict {index below bound: coefficient mod p}.
    """
    t = len(fcoeffs)
    top = p ** (r + t - 1)
    a_top = fcoeffs[-1] % p
    inv_top = pow(a_top, p - 2, p)
    target = {}
    for i, c in enumerate(fcoeffs[:-1], start=1):
        if c % p:
            target[p ** (r - 1 + i)] = (-c * inv_top) % p
    if eta % p:
        target[1] = (target.get(1, 0) + (-eta * inv_top)) % p
        target = {k: v for k, v in target.items() if v}

    memo = {}

    def normal_form(n: int):
        if n < top:
            return {n: 1}
        if n in memo:
            return memo[n]
        m = n - top
        c0 = gamma_coeff(m, top, p, r)
        inv_c0 = pow(c0, p - 2, p)
        out = {}
        for l, cl in target.items():
            c1 = gamma_coeff(m, l, p, r)
            if c1 == 0:
                continue
            for k, ck in normal_form(m + l).items():
                v = (out.get(k, 0) + inv_c0 * cl % p * c1 % p * ck) % p
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        memo[n] = out
        return out

    return top, normal_form


def _truncated_tensor(m, coeff=lambda i, j: 1):
    """T[i, j, i + j] = coeff(i, j) for i + j < m: the tensor of a truncated
    polynomial (or divided power) algebra in the basis g^0, ..., g^{m-1}."""
    T = np.zeros((m,) * 3, dtype=linalg.DT)
    for i in range(m):
        for j in range(m - i):
            T[i, j, i + j] = coeff(i, j)
    return T


def _base_algebra(
    spec, names, parity, tensor, generators, gen_parity, monomials, relations, cop, signs
):
    """A base family's algebra over F_p: basis 0 is the unit and carries
    the counit, and the antipode is the diagonal of the given signs."""
    dim = len(names)
    augmentation = np.zeros(dim, dtype=linalg.DT)
    augmentation[0] = 1
    antipode = np.diag([sgn % spec.p for sgn in signs]).astype(linalg.DT)
    return PresentedSuperalgebra(
        field=make_field(spec.p, 1),
        dim=dim,
        parity=np.asarray(parity, dtype=np.int8),
        basis_names=tuple(names),
        unit_index=0,
        tensor=tensor,
        generators=generators,
        gen_parity=gen_parity,
        monomials=tuple(monomials),
        relations=tuple(relations),
        augmentation=augmentation,
        hopf=HopfStructure(tuple(cop), augmentation.copy(), antipode),
        spec=spec,
    )


def _build_pr_quotient(spec: GroupAlgebraSpec):
    """Group algebra of M_{r;f,eta}: P_r modulo f(u_{r-1}) + eta*u_0."""
    p, r = spec.p, spec.r
    fcoeffs = spec.fcoeffs()
    n_gamma, normal_form = _quotient_reducer(p, r, fcoeffs, spec.eta)
    dim = 2 * n_gamma
    pres = PrPresentation(p, r)

    parity = np.array([0] * n_gamma + [1] * n_gamma, dtype=np.int8)
    names = tuple(
        [f"g{l}" for l in range(n_gamma)] + [f"v*g{l}" for l in range(n_gamma)]
    )

    def bidx(ell, has_v):
        return ell + (n_gamma if has_v else 0)

    # gamma_a gamma_b = c gamma_{a+b}, so v gamma_a times gamma_b or v gamma_b
    # is c v gamma_{a+b}, and v gamma_a v gamma_b is -c c' gamma_{a+b+p^r},
    # where c' = gamma_coeff(a + b, p^r): one gamma_coeff per pair (a, b)
    pr = p**r
    vv = [-gamma_coeff(ell, pr, p, r) for ell in range(2 * n_gamma - 1)]
    T = np.zeros((dim,) * 3, dtype=linalg.DT)
    for a in range(n_gamma):
        for b in range(n_gamma):
            c = gamma_coeff(a, b, p, r)
            if not c:
                continue
            for k, ck in normal_form(a + b).items():
                T[a, b, k] = T[a + n_gamma, b, k + n_gamma] = T[a, b + n_gamma, k + n_gamma] = (
                    c * ck % p
                )
            for k, ck in normal_form(a + b + pr).items():
                T[a + n_gamma, b + n_gamma, k] = c * vv[a + b] * ck % p

    generators = {f"u{i}": bidx(p**i, False) for i in range(r)}
    generators["v"] = bidx(0, True)
    gen_parity = {f"u{i}": 0 for i in range(r)}
    gen_parity["v"] = 1

    monomials = tuple(pres.gamma_monomial(i % n_gamma, i >= n_gamma) for i in range(dim))
    f_terms = [(int(c), ((f"u{r-1}", p**i),)) for i, c in enumerate(fcoeffs, start=1) if c % p]
    if spec.eta % p:
        f_terms.append((spec.eta % p, (("u0", 1),)))
    relations = pres.relations() + (("f(u)+eta*u0", tuple(f_terms)),)

    cop = []
    for i in range(dim):
        xi = PrIndex(i % n_gamma, i >= n_gamma)
        terms = {}
        for le, ri, c in pr_coproduct(p, r, xi):
            assert le.ell < n_gamma and ri.ell < n_gamma
            key = (bidx(le.ell, le.has_v), bidx(ri.ell, ri.has_v))
            terms[key] = (terms.get(key, 0) + c) % p
        cop.append(tuple((j, k, int(v)) for (j, k), v in sorted(terms.items()) if v))
    signs = [(-1) ** (i % n_gamma + (i >= n_gamma)) for i in range(dim)]
    return _base_algebra(
        spec, names, parity, T, generators, gen_parity, monomials, relations, cop, signs
    )


def _build_gar(spec: GroupAlgebraSpec):
    """kG_{a(r)} = P_r/(v): truncated divided powers gamma_0..gamma_{p^r-1}."""
    p, r = spec.p, spec.r
    dim = p**r
    parity = np.zeros(dim, dtype=np.int8)
    names = tuple(f"g{l}" for l in range(dim))
    T = _truncated_tensor(dim, lambda i, j: gamma_coeff(i, j, p, max(r, 1)))
    generators = {f"u{i}": p**i for i in range(r)}
    gen_parity = {f"u{i}": 0 for i in range(r)}
    pres = PrPresentation(p, max(r, 1))
    monomials = tuple(pres.gamma_monomial(l, False) for l in range(dim))
    gnames = [f"u{i}" for i in range(r)]
    relations = [graded_commutator(a, 0, b, 0, p) for a, b in combinations(gnames, 2)]
    relations += [p_power(g, p) for g in gnames]
    cop = []
    for i in range(dim):
        terms = []
        for le, ri, c in pr_coproduct(p, max(r, 1), PrIndex(i, False)):
            if le.ell < dim and ri.ell < dim:
                terms.append((le.ell, ri.ell, c))
        cop.append(tuple(terms))
    signs = [(-1) ** i for i in range(dim)]
    return _base_algebra(
        spec, names, parity, T, generators, gen_parity, monomials, relations, cop, signs
    )


def _build_gaminus(spec: GroupAlgebraSpec):
    """kG_a^- = k[v]/(v^2) with v odd and primitive."""
    return _base_algebra(
        spec,
        names=("1", "v"),
        parity=(0, 1),
        tensor=_truncated_tensor(2),
        generators={"v": 1},
        gen_parity={"v": 1},
        monomials=((1, ()), (1, (("v", 1),))),
        relations=(("v^2", ((1, (("v", 2),)),)),),
        cop=(((0, 0, 1),), ((1, 0, 1), (0, 1, 1))),
        signs=(1, -1),
    )


def _build_trunc_even(spec: GroupAlgebraSpec):
    """k[g]/(g^{p^t}) with g even and primitive (binomial coproduct)."""
    p, t = spec.p, spec.t
    m = p**t
    cop = []
    for j in range(m):
        terms = []
        for i in range(j + 1):
            c = comb(j, i) % p
            if c:
                terms.append((i, j - i, c))
        cop.append(tuple(terms))
    return _base_algebra(
        spec,
        names=[f"g^{j}" for j in range(m)],
        parity=[0] * m,
        tensor=_truncated_tensor(m),
        generators={"g": 1},
        gen_parity={"g": 0},
        monomials=[(1, ()) if j == 0 else (1, (("g", j),)) for j in range(m)],
        relations=[(f"g^{m}", ((1, (("g", m),)),))],
        cop=cop,
        signs=[(-1) ** j for j in range(m)],
    )


def rename_generators(alg: PresentedSuperalgebra, mapping: dict) -> PresentedSuperalgebra:
    """New algebra object with generators (and all references) renamed."""

    def m(name):
        return mapping.get(name, name)

    gens = {m(k): v for k, v in alg.generators.items()}
    genp = {m(k): v for k, v in alg.gen_parity.items()}
    mons = tuple((c, tuple((m(g), e) for g, e in mon)) for c, mon in alg.monomials)
    rels = tuple(
        (lbl, tuple((c, tuple((m(g), e) for g, e in mon)) for c, mon in terms))
        for lbl, terms in alg.relations
    )
    return replace(alg, generators=gens, gen_parity=genp, monomials=mons, relations=rels)


def tensor_algebra(A: PresentedSuperalgebra, B: PresentedSuperalgebra):
    """Tensor product with the Koszul rule (a(x)b)(c(x)d) = (-1)^{|b||c|} ac(x)bd."""
    if A.field != B.field:
        raise AlgebraError("tensor factors must share the field")
    if set(A.generators) & set(B.generators):
        raise AlgebraError("generator names collide; rename before tensoring")
    F = A.F
    dim = A.dim * B.dim

    def idx(i, j):
        return i * B.dim + j

    def outer(a, b):  # a_i b_j at idx(i, j)
        return F.mul[a[:, None], b[None, :]].ravel()

    parity = (A.parity[:, None] ^ B.parity[None, :]).ravel()
    names = tuple(f"{a}|{b}" for a in A.basis_names for b in B.basis_names)
    monomials = tuple(
        (int(F.mul[F.scalar(ca), F.scalar(cb)]), ma + mb)
        for ca, ma in A.monomials
        for cb, mb in B.monomials
    )

    # T[(i1, j1), (i2, j2), (ka, kb)] = (-1)^{|b_j1||a_i2|} TA[i1, i2, ka] TB[j1, j2, kb]:
    # one outer product of prime-field entries, reduced mod p
    sign = np.where(np.outer(B.parity, A.parity), -1, 1).astype(linalg.DT)
    TB = B.tensor[:, None, :, None, :] * sign[:, :, None, None, None]
    T = A.tensor[:, None, :, None, :, None] * TB[None]
    T = np.remainder(T, A.field.p, out=T).reshape(dim, dim, dim)

    generators = {g: idx(i, B.unit_index) for g, i in A.generators.items()}
    generators.update((g, idx(A.unit_index, j)) for g, j in B.generators.items())
    gen_parity = {**A.gen_parity, **B.gen_parity}

    relations = list(A.relations) + list(B.relations)
    relations += [
        graded_commutator(ga, pa, gb, pb, A.field.p)
        for ga, pa in A.gen_parity.items()
        for gb, pb in B.gen_parity.items()
    ]

    augmentation = outer(A.augmentation, B.augmentation)

    hopf = None
    if A.hopf is not None and B.hopf is not None:
        cop = []
        for i in range(A.dim):
            for j in range(B.dim):
                terms = {}
                for (a1, a2, ca) in A.hopf.coproduct[i]:
                    for (b1, b2, cb) in B.hopf.coproduct[j]:
                        c = int(F.mul[F.scalar(ca), F.scalar(cb)])
                        if A.parity[a2] and B.parity[b1]:
                            c = int(F.neg[c])
                        key = (idx(a1, b1), idx(a2, b2))
                        terms[key] = int(F.add[terms.get(key, 0), c])
                cop.append(tuple((a, b, v) for (a, b), v in sorted(terms.items()) if v))
        counit = outer(A.hopf.counit, B.hopf.counit)
        # S_{A(x)B} = S_A (x) S_B; both antipodes are even maps, so the
        # Koszul rule adds no signs here (the convolution axiom pins this).
        antipode = linalg.kron(F, A.hopf.antipode, B.hopf.antipode)
        hopf = HopfStructure(tuple(cop), counit, antipode)

    spec = None
    if A.spec is not None and B.spec is not None:
        fa = A.spec.factors if A.spec.family == "Tensor" else (A.spec,)
        fb = B.spec.factors if B.spec.family == "Tensor" else (B.spec,)
        spec = GroupAlgebraSpec("Tensor", A.field.p, factors=fa + fb)

    alg = PresentedSuperalgebra(
        field=A.field,
        dim=dim,
        parity=parity,
        basis_names=names,
        unit_index=idx(A.unit_index, B.unit_index),
        tensor=T,
        generators=generators,
        gen_parity=gen_parity,
        monomials=monomials,
        relations=tuple(relations),
        augmentation=augmentation,
        hopf=hopf,
        spec=spec,
    )
    return alg


@lru_cache(maxsize=None)
def _build_cached(spec: GroupAlgebraSpec, field: FieldDescriptor):
    prime = make_field(spec.p, 1)
    if field != prime:
        return replace(_build_cached(spec, prime), field=field)
    spec.check()
    if spec.dim() > DIM_CAP:
        # named by its label: a huge dimension has too many digits to print
        raise BoundExceeded(f"the algebra of {spec.label()} exceeds dimension cap {DIM_CAP}")
    if spec.family in ("Mrs", "Mrf"):
        alg = _build_pr_quotient(spec)
    elif spec.family == "Gar":
        alg = _build_gar(spec)
    elif spec.family == "GaMinus":
        alg = _build_gaminus(spec)
    elif spec.family == "TruncEven":
        alg = _build_trunc_even(spec)
    else:
        parts = []
        for pos, fs in enumerate(spec.factors):
            a = _build_cached(fs, field)
            parts.append(rename_generators(a, {g: f"t{pos}_{g}" for g in a.generators}))
        alg = parts[0]
        for b in parts[1:]:
            alg = tensor_algebra(alg, b)
        alg.spec = spec
    verify_algebra(alg)
    alg.tensor.flags.writeable = False  # shared by the algebra over every field
    return alg


def build_group_algebra(spec: GroupAlgebraSpec, field: FieldDescriptor | None = None):
    """Build the group algebra of a spec over the field (default F_p).

    Returns (algebra, hopf); the hopf component is also stored on the
    algebra.  The spec's dimension is checked against DIM_CAP before any
    work.  Each spec is built and verified once, over F_p; over an extension
    field the algebra is that build with its field replaced, sharing every
    table, the structure tensor included.  Results are cached per (spec,
    field), so a repeated build returns the identical object.
    """
    if field is None:
        field = make_field(spec.p, 1)
    if field.p != spec.p:
        raise ValidationError(f"field characteristic {field.p} != spec p {spec.p}")
    alg = _build_cached(spec, field)
    return alg, alg.hopf


def _light_checks(alg: PresentedSuperalgebra):
    """Cheap structural checks run on every build: unit, parity, and with
    Hopf data the counit and super-cocommutativity of each Delta(b_i)."""
    T, u, par = alg.tensor, alg.unit_index, alg.parity
    one = np.eye(alg.dim, dtype=linalg.DT)
    bad = np.flatnonzero((T[u] != one).any(axis=1) | (T[:, u] != one).any(axis=1))
    if bad.size:
        raise AlgebraError(f"unit axiom fails at basis {bad[0]}")
    ijk = np.argwhere(T)
    bad = ijk[par[ijk[:, 2]] != (par[ijk[:, 0]] + par[ijk[:, 1]]) % 2]
    if bad.size:
        i, j, k = bad[0]
        raise AlgebraError(f"parity not multiplicative at ({i},{j})->{k}")
    if alg.hopf is not None:
        F = alg.F
        for i in range(alg.dim):
            # (counit (x) id) o coproduct = id
            acc = alg.el_zero()
            for j, k, c in alg.hopf.coproduct[i]:
                s = F.mul[F.scalar(c), alg.hopf.counit[j]]
                acc[k] = F.add[acc[k], s]
            if not np.array_equal(acc, alg.el_basis(i)):
                raise AlgebraError(f"counit axiom fails at basis {i}")
            _check_cocommutative(alg, i)


def _check_cocommutative(alg: PresentedSuperalgebra, i: int):
    """Delta(b_i) is super-cocommutative, as kG is dual to the
    supercommutative k[G]: its b_k (x) b_j coefficient is (-1)^{|b_j||b_k|}
    times its b_j (x) b_k one.  The Hom-scheme ideal builds on this."""
    F, par = alg.F, alg.parity.tolist()
    cop = {}
    for j, k, c in alg.hopf.coproduct[i]:
        cop[(j, k)] = int(F.add[cop.get((j, k), 0), F.scalar(c)])
    for (j, k), c in cop.items():
        if cop.get((k, j), 0) != (int(F.neg[c]) if par[j] and par[k] else c):
            raise AlgebraError(f"coproduct of basis {i} is not super-cocommutative at ({j},{k})")


def verify_algebra(alg: PresentedSuperalgebra, seed: int = 0, exhaustive_limit: int = 32):
    """Associativity, unit, parity, and multiplicativity of the augmentation.

    Up to exhaustive_limit, associativity is checked on every basis triple
    through the dense structure tensor T (b_i b_j = sum_k T[i, j, k] b_k):
    for each i, (b_i b_j) b_k and b_i (b_j b_k) over all (j, k) are two
    array products, so scratch memory stays O(d^3).  Above the limit, 500
    triples drawn with the seed are checked as (b_i b_j) b_k = T[i, j] b_k
    against b_i (b_j b_k) = b_i T[j, k] by stacked el_mul, 25 triples at a
    time, so no product spans much of T.  The augmentation is checked
    on all pairs as one array comparison, its values taken one slice T[i]
    at a time.  A failure names the first bad triple (pair) in
    lexicographic order.
    """
    d, F, aug, T = alg.dim, alg.F, alg.augmentation, alg.tensor
    if d <= exhaustive_limit:
        flat = T.reshape(d, d * d)
        for i in range(d):
            lhs = linalg.bmatmul(F, T[i], flat).reshape(d, d, d)
            rhs = linalg.bmatmul(F, flat.reshape(d * d, d), T[i]).reshape(d, d, d)
            if not np.array_equal(lhs, rhs):
                j, k = np.argwhere(lhs != rhs)[0][:2]
                raise AlgebraError(f"associativity fails at ({i},{j},{k})")
    else:
        rng = random.Random(seed)
        ijk = np.array([[rng.randrange(d) for _ in range(3)] for _ in range(500)])
        one = np.eye(d, dtype=linalg.DT)
        for i, j, k in (ijk[lo : lo + 25].T for lo in range(0, 500, 25)):
            bad = alg.el_mul(T[i, j], one[k]) != alg.el_mul(one[i], T[j, k])
            if bad.any():
                t = bad.any(axis=1).argmax()
                raise AlgebraError(f"associativity fails at ({i[t]},{j[t]},{k[t]})")
    counits = np.stack([linalg.matvec(F, T[i], aug) for i in range(d)])  # of b_i b_j
    want = F.mul[aug[:, None], aug[None, :]]
    if not np.array_equal(counits, want):
        i, j = np.argwhere(counits != want)[0]
        raise AlgebraError(f"augmentation not multiplicative at ({i},{j})")
    _light_checks(alg)


def _tensor_square_product(alg, t1, t2):
    """Product of two sparse tensors {(j,k): c} in alg (x) alg, Koszul signs."""
    F = alg.F
    out = {}
    for (j1, k1), c1 in t1.items():
        for (j2, k2), c2 in t2.items():
            c = int(F.mul[c1, c2])
            if alg.parity[k1] and alg.parity[j2]:
                c = int(F.neg[c])
            for m1, cm1 in alg.products.get((j1, j2), ()):
                for m2, cm2 in alg.products.get((k1, k2), ()):
                    v = int(F.mul[c, int(F.mul[cm1, cm2])])
                    out[m1, m2] = int(F.add[out.get((m1, m2), 0), v])
    return {k: v for k, v in out.items() if v}


def verify_hopf(alg: PresentedSuperalgebra, seed: int = 0, pair_limit: int = 40):
    """Full Hopf axioms: coassociativity, counit, antipode convolution
    inverse, and multiplicativity of the coproduct with Koszul signs
    (exhaustive on basis pairs up to pair_limit, sampled above)."""
    if alg.hopf is None:
        raise AlgebraError("no Hopf structure")
    F = alg.F
    H = alg.hopf
    d = alg.dim
    E, S = np.eye(d, dtype=linalg.DT), H.antipode.T  # S[j] is the antipode of b_j
    for i in range(d):
        # coassociativity
        lhs = {}
        rhs = {}
        for j, k, c in H.coproduct[i]:
            for j1, j2, c2 in H.coproduct[j]:
                key = (j1, j2, k)
                lhs[key] = int(F.add[lhs.get(key, 0), F.mul[F.scalar(c), F.scalar(c2)]])
            for k1, k2, c2 in H.coproduct[k]:
                key = (j, k1, k2)
                rhs[key] = int(F.add[rhs.get(key, 0), F.mul[F.scalar(c), F.scalar(c2)]])
        lhs = {k: v for k, v in lhs.items() if v}
        rhs = {k: v for k, v in rhs.items() if v}
        if lhs != rhs:
            raise AlgebraError(f"coassociativity fails at basis {i}")
        # antipode convolution inverse, both sides: sum_c c S(b_j) b_k, sum_c c b_j S(b_k)
        j, k, c = np.array(H.coproduct[i], dtype=linalg.DT).reshape(-1, 3).T
        want = F.mul[H.counit[i], E[alg.unit_index]]
        for terms in (alg.el_mul(S[j], E[k]), alg.el_mul(E[j], S[k])):
            if not np.array_equal(linalg.matmul(F, c[None], terms)[0], want):
                raise AlgebraError(f"antipode axiom fails at basis {i}")
    # coproduct is an algebra map into the super tensor square
    if d <= pair_limit:
        pairs = [(i, j) for i in range(d) for j in range(d)]
    else:
        rng = random.Random(seed)
        pairs = [(rng.randrange(d), rng.randrange(d)) for _ in range(400)]
    for i, j in pairs:
        t1 = {(a, b): F.scalar(c) for a, b, c in H.coproduct[i]}
        t2 = {(a, b): F.scalar(c) for a, b, c in H.coproduct[j]}
        got = _tensor_square_product(alg, t1, t2)
        want = {}
        for k, c in alg.products.get((i, j), ()):
            for a, b, c2 in H.coproduct[k]:
                key = (a, b)
                want[key] = int(F.add[want.get(key, 0), F.mul[F.scalar(c), F.scalar(c2)]])
        want = {k: v for k, v in want.items() if v}
        if got != want:
            raise AlgebraError(f"coproduct not multiplicative at ({i},{j})")
