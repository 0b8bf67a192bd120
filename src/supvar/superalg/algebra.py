"""Finite-dimensional presented Hopf superalgebras and their constructors.

An algebra is given by a basis, a parity vector, sparse structure constants,
named generators, and an expression of every basis element as a scalar times
a monomial in the generators (so modules only ever need one action matrix
per generator).  Structure constants are stored as field element indices in
the sense of supvar.linalg.

Constructors cover the group algebras of the multiparameter supergroups
(quotients of P_r), the purely even truncated polynomial Hopf algebra, and
tensor products with the Koszul sign rule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..errors import BoundExceeded, ValidationError
from ..gfield import FieldDescriptor, make_field
from .. import linalg
from .pr import PrIndex, digit_factorial_product, gamma_coeff, gamma_product, pr_coproduct

DIM_CAP = 200


class AlgebraError(ValidationError):
    pass


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
        if self.family == "Tensor" and not self.factors:
            raise AlgebraError("empty tensor product")
        return self

    @staticmethod
    def from_json(d):
        """Parse a spec, applying the builders' parameter rules (`check`)."""
        if not isinstance(d, dict) or "family" not in d:
            raise ValidationError("group spec must be an object with a 'family' key")
        fam = d["family"]
        if fam == "P1":
            raise ValidationError("P1 is not a finite group algebra spec")

        def num(key, default=None):
            try:
                val = d[key] if default is None else d.get(key, default)
                return int(val)
            except KeyError:
                raise ValidationError(f"group spec missing {key!r}") from None
            except (TypeError, ValueError):
                raise ValidationError(f"group spec field {key!r} must be an integer") from None

        p = num("p")
        if fam == "Mrs":
            spec = GroupAlgebraSpec("Mrs", p, r=num("r"), s=num("s"), eta=num("eta", "0") % p)
        elif fam == "Mrf":
            try:
                f = tuple(int(c) % p for c in d["f"])
            except (KeyError, TypeError, ValueError):
                raise ValidationError("group spec field 'f' must list integers") from None
            spec = GroupAlgebraSpec("Mrf", p, r=num("r"), eta=num("eta", "0") % p, f=f)
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
    mult: dict  # (i, j) -> tuple of (k, coeff_index)
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
        e = self.el_zero()
        e[self.unit_index] = 1
        return e

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
        F = self.F
        out = self.el_zero()
        for i in np.nonzero(x)[0]:
            xi = x[i]
            for j in np.nonzero(y)[0]:
                c = F.mul[xi, y[j]]
                for k, ck in self.mult.get((int(i), int(j)), ()):
                    out[k] = F.add[out[k], F.mul[c, ck]]
        return out

    def el_pow(self, x, e: int):
        out = self.el_unit()
        for _ in range(e):
            out = self.el_mul(out, x)
        return out

    def eval_monomial(self, terms):
        """Evaluate ((gen, exp), ...) as an algebra element."""
        out = self.el_unit()
        for g, e in terms:
            out = self.el_mul(out, self.el_pow(self.el_gen(g), e))
        return out

    def element_parity(self, x):
        pars = set(int(self.parity[i]) for i in np.nonzero(x)[0])
        if len(pars) > 1:
            return None
        return pars.pop() if pars else 0

    def counit_of(self, x):
        F = self.F
        out = 0
        for i in np.nonzero(x)[0]:
            out = F.add[out, F.mul[x[i], self.augmentation[i]]]
        return int(out)

    def radical_coords(self):
        """Coordinates spanning the augmentation ideal (all non-unit basis)."""
        return [i for i in range(self.dim) if i != self.unit_index]


# -- quotient families of P_r ------------------------------------------


def _quotient_reducer(p, r, fcoeffs, eta):
    """Normal form map for gamma indices in P_r/(f(u_{r-1}) + eta u_0).

    fcoeffs = (c_1, ..., c_t) with c_t nonzero; basis indices run below
    p^{r+t-1}.  Returns (basis_bound, reduce) where reduce(n) maps a gamma
    index to a dict {index below bound: coefficient mod p}.
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

    def reduce(n: int):
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
            for k, ck in reduce(m + l).items():
                v = (out.get(k, 0) + inv_c0 * cl % p * c1 % p * ck) % p
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        memo[n] = out
        return out

    return top, reduce


def _gamma_monomial(p, r, ell, has_v):
    """(coeff mod p, generator monomial) expressing a basis element of P_r."""
    coeff = pow(digit_factorial_product(ell, p), p - 2, p)
    mon = []
    if has_v:
        mon.append(("v", 1))
    rest = ell
    for i in range(r - 1):
        d = rest % p
        if d:
            mon.append((f"u{i}", d))
        rest //= p
    if rest:
        mon.append((f"u{r-1}", rest))
    return coeff, tuple(mon)


def _build_pr_quotient(spec: GroupAlgebraSpec, field: FieldDescriptor):
    """Group algebra of M_{r;f,eta}: P_r modulo f(u_{r-1}) + eta*u_0."""
    p, r = spec.p, spec.r
    if spec.family == "Mrs":
        fcoeffs = tuple([0] * (spec.s - 1) + [1])
    else:
        fcoeffs = tuple(c % p for c in spec.f)
        while fcoeffs[-1] == 0:
            fcoeffs = fcoeffs[:-1]

    n_gamma, reduce = _quotient_reducer(p, r, fcoeffs, spec.eta)
    dim = 2 * n_gamma
    if dim > DIM_CAP:
        raise BoundExceeded(f"algebra dimension {dim} exceeds cap {DIM_CAP}")
    F = linalg.tables(field)

    parity = np.array([0] * n_gamma + [1] * n_gamma, dtype=np.int8)
    names = tuple(
        [f"g{l}" for l in range(n_gamma)] + [f"v*g{l}" for l in range(n_gamma)]
    )

    def bidx(ell, has_v):
        return ell + (n_gamma if has_v else 0)

    mult = {}
    for i in range(dim):
        xi = PrIndex(i % n_gamma, i >= n_gamma)
        for j in range(dim):
            yj = PrIndex(j % n_gamma, j >= n_gamma)
            prod = gamma_product(p, r, xi, yj)
            entries = {}
            for idx, c in prod.terms.items():
                for k, ck in reduce(idx.ell).items():
                    tgt = bidx(k, idx.has_v)
                    entries[tgt] = (entries.get(tgt, 0) + c * ck) % p
            ent = tuple((k, int(v)) for k, v in sorted(entries.items()) if v)
            if ent:
                mult[(i, j)] = ent

    generators = {f"u{i}": bidx(p**i, False) for i in range(r)}
    generators["v"] = bidx(0, True)
    gen_parity = {f"u{i}": 0 for i in range(r)}
    gen_parity["v"] = 1

    monomials = []
    for i in range(dim):
        monomials.append(_gamma_monomial(p, r, i % n_gamma, i >= n_gamma))

    relations = []
    gnames = [f"u{i}" for i in range(r)] + ["v"]
    for a in range(len(gnames)):
        for b in range(a + 1, len(gnames)):
            relations.append(
                (
                    f"[{gnames[a]},{gnames[b]}]",
                    ((1, ((gnames[a], 1), (gnames[b], 1))), (p - 1, ((gnames[b], 1), (gnames[a], 1)))),
                )
            )
    for i in range(r - 1):
        relations.append((f"u{i}^p", ((1, ((f"u{i}", p),)),)))
    relations.append(
        (f"u{r-1}^p+v^2", ((1, ((f"u{r-1}", p),)), (1, (("v", 2),))))
    )
    f_terms = [(int(c), ((f"u{r-1}", p**i),)) for i, c in enumerate(fcoeffs, start=1) if c % p]
    if spec.eta % p:
        f_terms.append((spec.eta % p, (("u0", 1),)))
    relations.append(("f(u)+eta*u0", tuple(f_terms)))

    augmentation = np.zeros(dim, dtype=linalg.DT)
    augmentation[0] = 1

    cop = []
    for i in range(dim):
        xi = PrIndex(i % n_gamma, i >= n_gamma)
        terms = {}
        for le, ri, c in pr_coproduct(p, r, xi):
            assert le.ell < n_gamma and ri.ell < n_gamma
            key = (bidx(le.ell, le.has_v), bidx(ri.ell, ri.has_v))
            terms[key] = (terms.get(key, 0) + c) % p
        cop.append(tuple((j, k, int(v)) for (j, k), v in sorted(terms.items()) if v))
    antipode = np.zeros((dim, dim), dtype=linalg.DT)
    for i in range(dim):
        ell = i % n_gamma
        sgn = (-1) ** (ell + (1 if i >= n_gamma else 0))
        antipode[i, i] = F.scalar(sgn)
    counit = augmentation.copy()

    alg = PresentedSuperalgebra(
        field=field,
        dim=dim,
        parity=parity,
        basis_names=names,
        unit_index=0,
        mult=mult,
        generators=generators,
        gen_parity=gen_parity,
        monomials=tuple(monomials),
        relations=tuple(relations),
        augmentation=augmentation,
        hopf=HopfStructure(tuple(cop), counit, antipode),
        spec=spec,
    )
    return alg


def _build_gar(spec: GroupAlgebraSpec, field: FieldDescriptor):
    """kG_{a(r)} = P_r/(v): truncated divided powers gamma_0..gamma_{p^r-1}."""
    p, r = spec.p, spec.r
    dim = p**r
    if dim > DIM_CAP:
        raise BoundExceeded(f"algebra dimension {dim} exceeds cap {DIM_CAP}")
    F = linalg.tables(field)
    parity = np.zeros(dim, dtype=np.int8)
    names = tuple(f"g{l}" for l in range(dim))
    mult = {}
    for i in range(dim):
        for j in range(dim):
            if i + j >= dim:
                continue
            c = gamma_coeff(i, j, p, max(r, 1))
            if c:
                mult[(i, j)] = ((i + j, c),)
    generators = {f"u{i}": p**i for i in range(r)}
    gen_parity = {f"u{i}": 0 for i in range(r)}
    monomials = tuple(_gamma_monomial(p, max(r, 1), l, False) for l in range(dim))
    relations = []
    gnames = [f"u{i}" for i in range(r)]
    for a in range(len(gnames)):
        for b in range(a + 1, len(gnames)):
            relations.append(
                (
                    f"[{gnames[a]},{gnames[b]}]",
                    ((1, ((gnames[a], 1), (gnames[b], 1))), (p - 1, ((gnames[b], 1), (gnames[a], 1)))),
                )
            )
    for i in range(r):
        relations.append((f"u{i}^p", ((1, ((f"u{i}", p),)),)))
    augmentation = np.zeros(dim, dtype=linalg.DT)
    augmentation[0] = 1
    cop = []
    for i in range(dim):
        terms = []
        for le, ri, c in pr_coproduct(p, max(r, 1), PrIndex(i, False)):
            if le.ell < dim and ri.ell < dim:
                terms.append((le.ell, ri.ell, c))
        cop.append(tuple(terms))
    antipode = np.zeros((dim, dim), dtype=linalg.DT)
    for i in range(dim):
        antipode[i, i] = F.scalar((-1) ** i)
    alg = PresentedSuperalgebra(
        field=field,
        dim=dim,
        parity=parity,
        basis_names=names,
        unit_index=0,
        mult=mult,
        generators=generators,
        gen_parity=gen_parity,
        monomials=monomials,
        relations=tuple(relations),
        augmentation=augmentation,
        hopf=HopfStructure(tuple(cop), augmentation.copy(), antipode),
        spec=spec,
    )
    return alg


def _build_gaminus(spec: GroupAlgebraSpec, field: FieldDescriptor):
    """kG_a^- = k[v]/(v^2) with v odd and primitive."""
    F = linalg.tables(field)
    parity = np.array([0, 1], dtype=np.int8)
    mult = {(0, 0): ((0, 1),), (0, 1): ((1, 1),), (1, 0): ((1, 1),)}
    augmentation = np.array([1, 0], dtype=linalg.DT)
    cop = (
        ((0, 0, 1),),
        ((1, 0, 1), (0, 1, 1)),
    )
    antipode = np.zeros((2, 2), dtype=linalg.DT)
    antipode[0, 0] = 1
    antipode[1, 1] = F.scalar(-1)
    return PresentedSuperalgebra(
        field=field,
        dim=2,
        parity=parity,
        basis_names=("1", "v"),
        unit_index=0,
        mult=mult,
        generators={"v": 1},
        gen_parity={"v": 1},
        monomials=((1, ()), (1, (("v", 1),))),
        relations=(("v^2", ((1, (("v", 2),)),)),),
        augmentation=augmentation,
        hopf=HopfStructure(cop, augmentation.copy(), antipode),
        spec=spec,
    )


def _build_trunc_even(spec: GroupAlgebraSpec, field: FieldDescriptor):
    """k[g]/(g^{p^t}) with g even and primitive (binomial coproduct)."""
    p, t = spec.p, spec.t
    m = p**t
    if m > DIM_CAP:
        raise BoundExceeded(f"algebra dimension {m} exceeds cap {DIM_CAP}")
    F = linalg.tables(field)
    from math import comb

    parity = np.zeros(m, dtype=np.int8)
    mult = {}
    for i in range(m):
        for j in range(m - i):
            mult[(i, j)] = ((i + j, 1),)
    augmentation = np.zeros(m, dtype=linalg.DT)
    augmentation[0] = 1
    cop = []
    for j in range(m):
        terms = []
        for i in range(j + 1):
            c = comb(j, i) % p
            if c:
                terms.append((i, j - i, c))
        cop.append(tuple(terms))
    antipode = np.zeros((m, m), dtype=linalg.DT)
    for j in range(m):
        antipode[j, j] = F.scalar((-1) ** j)
    return PresentedSuperalgebra(
        field=field,
        dim=m,
        parity=parity,
        basis_names=tuple(f"g^{j}" for j in range(m)),
        unit_index=0,
        mult=mult,
        generators={"g": 1},
        gen_parity={"g": 0},
        monomials=tuple((1, ()) if j == 0 else (1, (("g", j),)) for j in range(m)),
        relations=((f"g^{m}", ((1, (("g", m),)),)),),
        augmentation=augmentation,
        hopf=HopfStructure(tuple(cop), augmentation.copy(), antipode),
        spec=spec,
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
    if dim > DIM_CAP:
        raise BoundExceeded(f"algebra dimension {dim} exceeds cap {DIM_CAP}")

    def idx(i, j):
        return i * B.dim + j

    parity = np.zeros(dim, dtype=np.int8)
    names = []
    monomials = []
    for i in range(A.dim):
        for j in range(B.dim):
            parity[idx(i, j)] = (A.parity[i] + B.parity[j]) % 2
            names.append(f"{A.basis_names[i]}|{B.basis_names[j]}")
            ca, ma = A.monomials[i]
            cb, mb = B.monomials[j]
            monomials.append((int(F.mul[F.scalar(ca), F.scalar(cb)]), ma + mb))

    mult = {}
    for (i1, j1) in [(i, j) for i in range(A.dim) for j in range(B.dim)]:
        for (i2, j2) in [(i, j) for i in range(A.dim) for j in range(B.dim)]:
            sign = -1 if (B.parity[j1] and A.parity[i2]) else 1
            ent = {}
            for ka, ca in A.mult.get((i1, i2), ()):
                for kb, cb in B.mult.get((j1, j2), ()):
                    c = int(F.mul[F.scalar(ca), F.scalar(cb)])
                    if sign < 0:
                        c = int(F.neg[c])
                    k = idx(ka, kb)
                    ent[k] = int(F.add[ent.get(k, 0), c])
            ent = tuple((k, v) for k, v in sorted(ent.items()) if v)
            if ent:
                mult[(idx(i1, j1), idx(i2, j2))] = ent

    generators = {}
    gen_parity = {}
    for g, i in A.generators.items():
        generators[g] = idx(i, B.unit_index)
        gen_parity[g] = A.gen_parity[g]
    for g, j in B.generators.items():
        generators[g] = idx(A.unit_index, j)
        gen_parity[g] = B.gen_parity[g]

    relations = list(A.relations) + list(B.relations)
    p = A.field.p
    for ga, pa in A.gen_parity.items():
        for gb, pb in B.gen_parity.items():
            sign = -1 if (pa and pb) else 1
            relations.append(
                (
                    f"[{ga},{gb}]",
                    ((1, ((ga, 1), (gb, 1))), ((-sign) % p, ((gb, 1), (ga, 1)))),
                )
            )

    augmentation = np.zeros(dim, dtype=linalg.DT)
    for i in range(A.dim):
        for j in range(B.dim):
            augmentation[idx(i, j)] = F.mul[A.augmentation[i], B.augmentation[j]]

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
        counit = np.zeros(dim, dtype=linalg.DT)
        for i in range(A.dim):
            for j in range(B.dim):
                counit[idx(i, j)] = F.mul[A.hopf.counit[i], B.hopf.counit[j]]
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
        basis_names=tuple(names),
        unit_index=idx(A.unit_index, B.unit_index),
        mult=mult,
        generators=generators,
        gen_parity=gen_parity,
        monomials=tuple(monomials),
        relations=tuple(relations),
        augmentation=augmentation,
        hopf=hopf,
        spec=spec,
    )
    return alg


@lru_cache(maxsize=None)
def _build_cached(spec: GroupAlgebraSpec, field: FieldDescriptor):
    spec.check()
    if spec.family in ("Mrs", "Mrf"):
        alg = _build_pr_quotient(spec, field)
    elif spec.family == "Gar":
        alg = _build_gar(spec, field)
    elif spec.family == "GaMinus":
        alg = _build_gaminus(spec, field)
    elif spec.family == "TruncEven":
        alg = _build_trunc_even(spec, field)
    elif spec.family == "Tensor":
        parts = []
        for pos, fs in enumerate(spec.factors):
            a = _build_cached(fs, field)
            parts.append(rename_generators(a, {g: f"t{pos}_{g}" for g in a.generators}))
        alg = parts[0]
        for b in parts[1:]:
            alg = tensor_algebra(alg, b)
        alg.spec = spec
    else:
        raise ValidationError(f"unknown family {spec.family!r}")
    _light_checks(alg)
    verify_algebra(alg)
    return alg


def build_group_algebra(spec: GroupAlgebraSpec, field: FieldDescriptor | None = None):
    """Build the group algebra of a spec over the field (default F_p).

    Returns (algebra, hopf); the hopf component is also stored on the
    algebra.  Results are cached, so repeated builds are cheap and shared.
    """
    if field is None:
        field = make_field(spec.p, 1)
    if field.p != spec.p:
        raise ValidationError(f"field characteristic {field.p} != spec p {spec.p}")
    alg = _build_cached(spec, field)
    return alg, alg.hopf


def _light_checks(alg: PresentedSuperalgebra):
    """Cheap structural checks run on every build."""
    u = alg.unit_index
    for i in range(alg.dim):
        if alg.mult.get((u, i), ()) != ((i, 1),) or alg.mult.get((i, u), ()) != ((i, 1),):
            raise AlgebraError(f"unit axiom fails at basis {i}")
    for (i, j), ent in alg.mult.items():
        want = (alg.parity[i] + alg.parity[j]) % 2
        for k, _ in ent:
            if alg.parity[k] != want:
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


def verify_algebra(alg: PresentedSuperalgebra, seed: int = 0, exhaustive_limit: int = 32):
    """Associativity (exhaustive up to the limit, sampled above), unit,
    parity, and multiplicativity of the augmentation."""
    d = alg.dim
    if d <= exhaustive_limit:
        triples = [(i, j, k) for i in range(d) for j in range(d) for k in range(d)]
    else:
        rng = random.Random(seed)
        triples = [
            (rng.randrange(d), rng.randrange(d), rng.randrange(d)) for _ in range(500)
        ]
    for i, j, k in triples:
        lhs = alg.el_mul(alg.el_mul(alg.el_basis(i), alg.el_basis(j)), alg.el_basis(k))
        rhs = alg.el_mul(alg.el_basis(i), alg.el_mul(alg.el_basis(j), alg.el_basis(k)))
        if not np.array_equal(lhs, rhs):
            raise AlgebraError(f"associativity fails at ({i},{j},{k})")
    F = alg.F
    for i in range(d):
        for j in range(d):
            prod = alg.el_mul(alg.el_basis(i), alg.el_basis(j))
            lhs = alg.counit_of(prod)
            rhs = int(F.mul[alg.augmentation[i], alg.augmentation[j]])
            if lhs != rhs:
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
            for m1, cm1 in alg.mult.get((j1, j2), ()):
                for m2, cm2 in alg.mult.get((k1, k2), ()):
                    v = int(F.mul[c, int(F.mul[cm1, cm2])])
                    key = (m1, m2)
                    out[key] = int(F.add[out.get(key, 0), v])
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
        # antipode convolution inverse, both sides
        for flip in (False, True):
            acc = alg.el_zero()
            for j, k, c in H.coproduct[i]:
                if flip:
                    img = H.antipode[:, k]
                    part = alg.el_mul(alg.el_basis(j), img)
                else:
                    img = H.antipode[:, j]
                    part = alg.el_mul(img, alg.el_basis(k))
                acc = F.add[acc, F.mul[F.scalar(c), part]]
            want = alg.el_zero()
            want[alg.unit_index] = H.counit[i]
            if not np.array_equal(acc, want):
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
        for k, c in alg.mult.get((i, j), ()):
            for a, b, c2 in H.coproduct[k]:
                key = (a, b)
                want[key] = int(F.add[want.get(key, 0), F.mul[F.scalar(c), F.scalar(c2)]])
        want = {k: v for k, v in want.items() if v}
        if got != want:
            raise AlgebraError(f"coproduct not multiplicative at ({i},{j})")
