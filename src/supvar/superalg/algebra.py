"""Finite-dimensional presented Hopf superalgebras and their constructors.

An algebra is given by a parity vector, two dense structure tensors, named
generators, and an expression of every basis element as a scalar times a
monomial in the generators (so modules only ever need one action matrix per
generator).  The product is tensor[i, j, k] (b_i b_j = sum_k T[i, j, k] b_k,
dtype linalg.DT) and the coproduct hopf.coproduct[i, j, k] (Delta b_i = sum
C[i, j, k] b_j (x) b_k, dtype int8), in the same layout.  Both hold
prime-field values, which are also their field indices in every extension
field (see supvar.linalg).  Basis 0 is the unit, and the augmentation is the
counit.  No defining relations are kept: a module is checked against the
product (smod.validate_module).

Constructors cover the group algebras of the multiparameter supergroups,
the purely even truncated polynomial Hopf algebra, and tensor products with
the Koszul sign rule.  The supergroups' algebras G_a(r), G_a^- and
M_{r;f,eta} are all Hopf quotients of P_r, and one builder makes them all
(_build_pr_quotient), with the gamma monomials of pr.PrPresentation.  Every
constructor takes the spec alone and builds over F_p: the structure
constants lie in the prime field, whose elements keep their index in every
extension.  build_group_algebra builds and verifies each spec once and
serves every field from that build, with the two tensors shared by all of
them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, lru_cache, reduce
from math import comb, prod

import numpy as np

from ..errors import BoundExceeded, ValidationError, json_int
from ..gfield import SUPPORTED_PRIMES, FieldDescriptor, make_field
from .. import linalg
from .pr import PrPresentation, gamma_coeff, pr_coproduct

DIM_CAP = 200


class AlgebraError(ValidationError):
    pass


def _power(p: int, e: int) -> int:
    """p**e, or DIM_CAP + 1 once e > log_2(DIM_CAP) >= log_p(DIM_CAP)."""
    return p**e if e <= DIM_CAP.bit_length() else DIM_CAP + 1


def walk_word(mon, letter, mul, memo):
    """The left-normed word ((g_1 g_1) ... g_2) ... of the letters of a
    nonempty mon = ((g_1, e_1), ...), a letter g standing for letter(g)
    and products taken by mul.  memo keeps the value of every prefix of the
    word, keyed by its letters, for later calls; the product starts from
    the longest prefix there, found walking back from the word, or else
    from the first letter.  mul may return None for a zero product: the
    word is then None, and no zero prefix is memoised."""
    word = tuple(g for g, e in mon for _ in range(e))
    t = len(word)
    while t > 1 and word[:t] not in memo:
        t -= 1
    out = memo[word[:t]] if t > 1 else letter(word[0])
    for t in range(t + 1, len(word) + 1):
        out = mul(out, letter(word[t - 1]))
        if out is None:
            break
        memo[word[:t]] = out
    return out


@dataclass
class HopfStructure:
    """Coproduct and antipode tables in the algebra's basis; the counit is
    the algebra's augmentation.

    coproduct[i, j, k] = C[i, j, k] with Delta b_i = sum C[i, j, k] b_j (x) b_k,
    int8 prime-field values, the layout of the product tensor.  Column j of
    the antipode is S(b_j).
    """

    coproduct: np.ndarray  # (dim, dim, dim) int8
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

    def height(self) -> int:
        """The r of the P_r that the family is a quotient of: G_a(0) and
        G_a^- are quotients of P_1."""
        if self.family in ("Mrs", "Mrf", "Gar"):
            return max(self.r, 1)
        if self.family == "GaMinus":
            return 1
        raise ValidationError(f"no P_r height for family {self.family}")

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
    """Parities, structure constants, generators and their monomials; basis
    0 is the unit."""

    field: FieldDescriptor
    dim: int
    parity: np.ndarray  # (dim,) of 0/1
    tensor: np.ndarray  # (dim, dim, dim): b_i b_j = sum_k tensor[i, j, k] b_k
    generators: dict  # name -> basis index
    monomials: tuple  # per basis index: (coeff_index, ((gen, exp), ...))
    augmentation: np.ndarray  # (dim,) indices, the counit
    hopf: HopfStructure
    spec: GroupAlgebraSpec

    # -- element helpers (elements are (dim,) index vectors) ------------

    @property
    def F(self):
        return linalg.tables(self.field)

    @property
    def gen_names(self):
        return tuple(self.generators)

    def gen_parity(self, name: str) -> int:
        return int(self.parity[self.generators[name]])

    def el_zero(self):
        return np.zeros(self.dim, dtype=linalg.DT)

    def el_unit(self):
        return self.el_basis(0)

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

    def el_word(self, coeff, mon, images=None, memo=None):
        """coeff g_1^e_1 g_2^e_2 ... for mon = ((g_1, e_1), ...), its letters
        multiplied by el_mul as walk_word walks them, with memo (default:
        none kept).  A letter g stands for images[g], an element or a stack
        of them (default: its basis element).  A letter whose image is zero
        makes the word zero, shaped like that image, with no product."""
        gen = self.el_gen if images is None else images.__getitem__
        if not mon:
            return self.el_scale(coeff, self.el_unit())
        for g, _ in mon:
            if not gen(g).any():
                return np.zeros_like(gen(g))
        return self.el_scale(coeff, walk_word(mon, gen, self.el_mul, {} if memo is None else memo))

    def el_terms(self, terms, images=None, memo=None):
        """The sum of el_word over terms = ((coeff, mon), ...), one memo for all."""
        memo = {} if memo is None else memo
        return reduce(self.el_add, (self.el_word(c, mon, images, memo) for c, mon in terms))

    @cached_property
    def products(self):
        """The tensor's nonzero entries as arrays (i, j, k, tensor[i, j, k])."""
        i, j, k = np.nonzero(self.tensor)
        return i, j, k, self.tensor[i, j, k].astype(np.int64)

    def element_parity(self, x):
        pars = set(int(self.parity[i]) for i in np.nonzero(x)[0])
        if len(pars) > 1:
            return None
        return pars.pop() if pars else 0

    def radical_coords(self):
        """Coordinates spanning the augmentation ideal (all non-unit basis)."""
        return list(range(1, self.dim))


# -- quotient families of P_r ------------------------------------------


def canonical_images(alg: PresentedSuperalgebra):
    """The canonical map P_r -> kG of a quotient family, r = spec.height():
    (the P_r presentation, generator images), each generator of P_r sent to
    kG's generator of the same name, or to zero."""
    pres = PrPresentation(alg.spec.p, alg.spec.height())
    images = {g: alg.el_gen(g) if g in alg.generators else alg.el_zero() for g in pres.gen_names}
    return pres, images


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


def _base_algebra(spec, parity, tensor, generators, monomials, cop, signs):
    """A base family's algebra over F_p: basis 0 is the unit and carries
    the counit, and the antipode is the diagonal of the given signs."""
    dim = len(parity)
    augmentation = np.zeros(dim, dtype=linalg.DT)
    augmentation[0] = 1
    antipode = np.diag([sgn % spec.p for sgn in signs]).astype(linalg.DT)
    return PresentedSuperalgebra(
        field=make_field(spec.p, 1),
        dim=dim,
        parity=np.asarray(parity, dtype=np.int8),
        tensor=tensor,
        generators=generators,
        monomials=tuple(monomials),
        augmentation=augmentation,
        hopf=HopfStructure(np.ascontiguousarray(cop, dtype=np.int8), antipode),
        spec=spec,
    )


def _build_pr_quotient(spec: GroupAlgebraSpec):
    """Group algebra of a quotient of P_r, r = spec.height(): M_{r;f,eta} =
    P_r/(f(u_{r-1}) + eta u_0), G_a(r) = P_r/(v) or G_a^- = P_1/(u_0).  Its
    basis is the gamma_l below n_gamma and, unless v dies (G_a(r)), the
    v gamma_l.  Outside M_{r;f,eta}, u_{r-1}^p = -v^2 = 0 kills each gamma_l
    with l >= p^spec.r; spec.r = 0 in G_a^-, so only gamma_0 = 1 lives."""
    p, r = spec.p, spec.height()
    if spec.family in ("Mrs", "Mrf"):
        n_gamma, normal_form = _quotient_reducer(p, r, spec.fcoeffs(), spec.eta)
    else:
        n_gamma = p**spec.r
        normal_form = lambda n: {n: 1} if n < n_gamma else {}
    odd = spec.family != "Gar"  # whether v survives
    dim = (1 + odd) * n_gamma
    parity = np.array([0] * n_gamma + [1] * (dim - n_gamma), dtype=np.int8)

    def bidx(x):  # the basis index of the P_r basis element x
        return (x >> 1) + n_gamma * (x & 1)

    # gamma_a gamma_b = c gamma_{a+b}, so v gamma_a times gamma_b or v gamma_b
    # is c v gamma_{a+b}, and v gamma_a v gamma_b is -c c' gamma_{a+b+p^r},
    # where c' = gamma_coeff(a + b, p^r): one gamma_coeff per pair (a, b).
    # Outside M_{r;f,eta}, a + b + p^r >= n_gamma, so that product is zero
    pr = p**r
    vv = [-gamma_coeff(ell, pr, p, r) for ell in range(2 * n_gamma - 1)]
    T = np.zeros((dim,) * 3, dtype=linalg.DT)
    for a in range(n_gamma):
        for b in range(n_gamma):
            c = gamma_coeff(a, b, p, r)
            if not c:
                continue
            for k, ck in normal_form(a + b).items():
                T[a, b, k] = c * ck % p
                if odd:
                    T[a + n_gamma, b, k + n_gamma] = T[a, b + n_gamma, k + n_gamma] = T[a, b, k]
            for k, ck in normal_form(a + b + pr).items():
                T[a + n_gamma, b + n_gamma, k] = c * vv[a + b] * ck % p

    generators = {f"u{i}": bidx(2 * p**i) for i in range(spec.r)}
    if odd:
        generators["v"] = bidx(1)

    xs = [2 * (i % n_gamma) + (i >= n_gamma) for i in range(dim)]  # inverse of bidx
    monomials = tuple(map(PrPresentation(p, r).gamma_monomial, xs))

    # every term of pr_coproduct has coefficient 1, and bidx is one-to-one
    i, le, ri = np.array(
        [(i, le, ri) for i, x in enumerate(xs) for le, ri, _ in pr_coproduct(p, r, x)]
    ).T
    assert max(bidx(le).max(), bidx(ri).max()) < dim
    cop = np.zeros((dim,) * 3, dtype=np.int8)
    cop[i, bidx(le), bidx(ri)] = 1
    signs = [(-1) ** (i % n_gamma + (i >= n_gamma)) for i in range(dim)]
    return _base_algebra(spec, parity, T, generators, monomials, cop, signs)


def _build_trunc_even(spec: GroupAlgebraSpec):
    """k[g]/(g^{p^t}) with g even and primitive (binomial coproduct)."""
    p, t = spec.p, spec.t
    m = p**t
    return _base_algebra(
        spec,
        parity=[0] * m,
        tensor=_truncated_tensor(m),
        generators={"g": 1},
        monomials=[(1, ()) if j == 0 else (1, (("g", j),)) for j in range(m)],
        # Delta g^l = sum_{i + j = l} binom(l, i) g^i (x) g^j
        cop=_truncated_tensor(m, lambda i, j: comb(i + j, i) % p).transpose(2, 0, 1),
        signs=[(-1) ** j for j in range(m)],
    )


def rename_generators(alg: PresentedSuperalgebra, mapping: dict) -> PresentedSuperalgebra:
    """New algebra object with generators renamed, in the monomials too."""
    gens = {mapping.get(g, g): i for g, i in alg.generators.items()}
    mons = tuple((c, tuple((mapping.get(g, g), e) for g, e in mon)) for c, mon in alg.monomials)
    return replace(alg, generators=gens, monomials=mons)


def _koszul_outer(X, Y, parX, parY, axis, p):
    """The structure tensor of a tensor product from the factors' tensors X
    and Y (either the product or the coproduct): Z[(i1, j1), (i2, j2),
    (i3, j3)] = s X[i1, i2, i3] Y[j1, j2, j3] mod p, with s = -1 when Y's
    index on tensor axis `axis` and X's on the next are both odd.  That is
    the Koszul sign of moving the one past the other: axes 0-1 for the
    product, axes 1-2 for the coproduct."""
    shape = [1] * 6  # axes i1, j1, i2, j2, i3, j3
    shape[2 * axis + 1], shape[2 * axis + 2] = len(parY), len(parX)
    sign = np.where(np.outer(parY, parX), -1, 1).astype(X.dtype).reshape(shape)
    Z = X[:, None, :, None, :, None] * (Y[None, :, None, :, None, :] * sign)
    return np.remainder(Z, p, out=Z).reshape((len(parX) * len(parY),) * 3)


def tensor_algebra(A: PresentedSuperalgebra, B: PresentedSuperalgebra):
    """Tensor product with the Koszul rule (a(x)b)(c(x)d) = (-1)^{|b||c|} ac(x)bd,
    and Delta(a(x)b) = sum (-1)^{|a2||b1|} (a1(x)b1) (x) (a2(x)b2)."""
    if A.field != B.field:
        raise AlgebraError("tensor factors must share the field")
    if set(A.generators) & set(B.generators):
        raise AlgebraError("generator names collide; rename before tensoring")
    F, p = A.F, A.field.p
    generators = {g: i * B.dim for g, i in A.generators.items()}
    generators.update(B.generators)  # a (x) 1 at index i B.dim, 1 (x) b at j
    fa = A.spec.factors if A.spec.family == "Tensor" else (A.spec,)
    fb = B.spec.factors if B.spec.family == "Tensor" else (B.spec,)
    return PresentedSuperalgebra(
        field=A.field,
        dim=A.dim * B.dim,
        parity=(A.parity[:, None] ^ B.parity[None, :]).ravel(),
        tensor=_koszul_outer(A.tensor, B.tensor, A.parity, B.parity, 0, p),
        generators=generators,
        monomials=tuple(
            (int(F.mul[F.scalar(ca), F.scalar(cb)]), ma + mb)
            for ca, ma in A.monomials
            for cb, mb in B.monomials
        ),
        augmentation=F.mul[A.augmentation[:, None], B.augmentation[None, :]].ravel(),
        hopf=HopfStructure(
            _koszul_outer(A.hopf.coproduct, B.hopf.coproduct, A.parity, B.parity, 1, p),
            # S_{A(x)B} = S_A (x) S_B; both antipodes are even maps, so the
            # Koszul rule adds no signs here (the convolution axiom pins this)
            linalg.kron(F, A.hopf.antipode, B.hopf.antipode),
        ),
        spec=GroupAlgebraSpec("Tensor", p, factors=fa + fb),
    )


@lru_cache(maxsize=None)
def _build_cached(spec: GroupAlgebraSpec, field: FieldDescriptor):
    prime = make_field(spec.p, 1)
    if field != prime:
        return replace(_build_cached(spec, prime), field=field)
    spec.check()
    if spec.dim() > DIM_CAP:
        # named by its label: a huge dimension has too many digits to print
        raise BoundExceeded(f"the algebra of {spec.label()} exceeds dimension cap {DIM_CAP}")
    if spec.family in ("Mrs", "Mrf", "Gar", "GaMinus"):
        alg = _build_pr_quotient(spec)
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
    # shared by the algebra over every field
    alg.tensor.flags.writeable = alg.hopf.coproduct.flags.writeable = False
    return alg


def build_group_algebra(spec: GroupAlgebraSpec, field: FieldDescriptor | None = None):
    """Build the group algebra of a spec over the field (default F_p).

    Returns (algebra, hopf); the hopf component is also stored on the
    algebra.  The spec's dimension is checked against DIM_CAP before any
    work.  Each spec is built and verified once, over F_p; over an extension
    field the algebra is that build with its field replaced, sharing every
    table, the two structure tensors included.  Results are cached per (spec,
    field), so a repeated build returns the identical object.
    """
    if field is None:
        field = make_field(spec.p, 1)
    if field.p != spec.p:
        raise ValidationError(f"field characteristic {field.p} != spec p {spec.p}")
    alg = _build_cached(spec, field)
    return alg, alg.hopf


def verify_algebra(alg: PresentedSuperalgebra):
    """Unit, generation, associativity, the augmentation and parity, and the
    counit axiom and super-cocommutativity of the coproduct.

    Every check is exhaustive at every dimension.  They rest on one premise,
    checked right after the unit axiom: each basis element b_i equals its
    stored monomial, read as a scalar times a left-normed word in the
    generators (el_word).  Associativity is then checked only as
    (xy)g = x(yg), for all basis x, y and each generator g.  That gives
    every triple, by induction on the length of a left-normed word w,
    starting from the unit axiom at w = 1:
    (xy)(wg) = ((xy)w)g = (x(yw))g = x((yw)g) = x(y(wg)).
    In the same way the augmentation is checked as e(xg) = e(x)e(g) for
    every basis x and g a generator or the unit.  A failure names the
    first bad basis index, triple (x, y, g) or pair in lexicographic order.
    """
    d, F, aug, T, par = alg.dim, alg.F, alg.augmentation, alg.tensor, alg.parity
    E = np.eye(d, dtype=linalg.DT)
    bad = np.flatnonzero((T[0] != E).any(axis=1) | (T[:, 0] != E).any(axis=1))
    if bad.size:
        raise AlgebraError(f"unit axiom fails at basis {bad[0]}")
    words = {}
    for i, (c, mon) in enumerate(alg.monomials):
        if not np.array_equal(alg.el_word(c, mon, memo=words), E[i]):
            raise AlgebraError(f"basis {i} is not its monomial")
    gens = sorted(alg.generators.values())
    i, j, k = _entries(T)
    bad = _associator_keys(T, (i, j, k), gens, alg.field.p)
    if bad.size:
        xy, pos = divmod(int(bad[0]) // d, len(gens))
        raise AlgebraError(f"associativity fails at ({xy // d},{xy % d},{gens[pos]})")
    gu = sorted({*gens, 0})
    counits = linalg.matmul(F, T[:, gu].reshape(-1, d), aug[:, None]).reshape(d, -1)  # of b_x b_g
    bad = np.argwhere(counits != F.mul[aug[:, None], aug[gu]])
    if bad.size:
        raise AlgebraError(f"augmentation not multiplicative at ({bad[0, 0]},{gu[bad[0, 1]]})")
    bad = np.flatnonzero(par[k] != (par[i] + par[j]) % 2)
    if bad.size:
        raise AlgebraError(f"parity not multiplicative at ({i[bad[0]]},{j[bad[0]]})->{k[bad[0]]}")
    C, a = alg.hopf.coproduct, np.flatnonzero(aug)
    # (counit (x) id) o coproduct = id, summed over the counit's support a
    counit = (linalg.bmatmul(F, aug[None, a], C[:, a]) != E[:, None]).any(axis=(1, 2))
    # kG is dual to the supercommutative k[G], so Delta(b_i) is
    # super-cocommutative; the Hom-scheme ideal builds on this
    i, j, k = _entries(C)
    c = C[i, j, k]
    twist = np.flatnonzero(C[i, k, j] != np.where(par[j] & par[k], F.neg[c], c))
    first = min([*np.flatnonzero(counit)[:1], *i[twist[:1]]], default=None)
    if first is None:
        return
    if counit[first]:  # at one b_i the counit axiom is checked first
        raise AlgebraError(f"counit axiom fails at basis {first}")
    t = twist[0]
    raise AlgebraError(f"coproduct of basis {i[t]} is not super-cocommutative at ({j[t]},{k[t]})")


def _entries(X):
    """The indices of X's nonzero entries, in C order."""
    return np.unravel_index(np.flatnonzero(X), X.shape)


def _matches(left, right, n):
    """Index pairs (i, j) with left[i] == right[j]; right is sorted, below n."""
    count = np.bincount(right, minlength=n)
    reps = count[left]
    i = np.repeat(np.arange(left.size), reps)
    return i, np.arange(i.size) - np.repeat(np.cumsum(reps), reps) + np.cumsum(count)[left[i]]


def _associator_keys(T, entries, gens, p):
    """The keys ((x d + y) G + pos) d + k, increasing, at which (b_x b_y) b_g
    and b_x (b_y b_g) differ in b_k, for all basis x, y and each g =
    gens[pos] of the G in gens, under the product T (d x d x d).  Built
    from T's nonzero entries T[x, y, m], (x, y, m) = entries (_entries(T)):
    (b_x b_y) b_g sums T[x, y, m] T[m, g, k] and b_x (b_y b_g) sums
    T[y, g, n] T[x, n, k] at (x, y, g, k), mod p, as the entries are
    prime-field values."""
    d, (x, y, m) = T.shape[0], entries
    c = T[x, y, m].astype(np.int64)
    by_y = np.argsort(y, kind="stable")
    keys, vals = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for pos, g in enumerate(gens):
        a, b = np.nonzero(T[:, g])  # b_a b_g = T[a, g, b] b_b, sorted by a
        cg = T[a, g, b].astype(np.int64)
        s, t = _matches(m, a, d)
        keys.append(((x[s] * d + y[s]) * len(gens) + pos) * d + b[t])
        vals.append(c[s] * cg[t])
        s, t = _matches(b, y[by_y], d)
        t = by_y[t]
        keys.append(((x[t] * d + a[s]) * len(gens) + pos) * d + m[t])
        vals.append(-cg[s] * c[t])
    keys, vals = np.concatenate(keys), np.concatenate(vals)
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    start = np.flatnonzero(np.diff(keys, prepend=-1))  # the first entry of each key
    return keys[start][np.add.reduceat(vals, start) % p != 0]


def verify_hopf(alg: PresentedSuperalgebra):
    """Coassociativity, multiplicativity of the coproduct with Koszul signs,
    and the antipode as convolution inverse of the identity, each
    exhaustive (verify_algebra checks the counit).

    Coassociativity of C is associativity of the dual algebra, whose
    product b^j b^k = sum_i C[i, j, k] b^i is C read with its first axis
    last; a failure names the first b_i it fails at.  Multiplicativity is
    checked as Delta(xg) = Delta(x) Delta(g) for every basis x and g a
    generator or the unit.  By verify_algebra's premise every basis element
    is a scalar times a word in the generators, and A and A (x) A are
    associative, so by induction on the length of w,
    Delta(x(wg)) = Delta((xw)g) = Delta(xw) Delta(g)
    = Delta(x) Delta(w) Delta(g) = Delta(x) Delta(wg): every pair follows.
    The tables hold prime-field values, so every product is taken in F_p,
    over any field.
    """
    F = linalg.tables(make_field(alg.field.p, 1))
    d, T, C, S = alg.dim, alg.tensor, alg.hopf.coproduct, alg.hopf.antipode
    dual = C.transpose(1, 2, 0)
    bad = _associator_keys(dual, _entries(dual), range(d), alg.field.p)
    if bad.size:
        raise AlgebraError(f"coassociativity fails at basis {(bad % d).min()}")
    signed = np.where(alg.parity.astype(bool), F.neg[C], C)  # C[x, a, b] (-1)^|b|
    fails = []  # the first bad x for each g
    for g in sorted({*alg.generators.values(), 0}):
        want = linalg.bmatmul(F, T[:, g], C.reshape(d, -1)).reshape(d, d, d)  # Delta(b_x b_g)
        got = np.zeros((d, d, d), dtype=linalg.DT)
        for j, k in np.argwhere(C[g]).tolist():
            # Delta(b_x) (b_j (x) b_k) = sum C[x, a, b] (-1)^{|b||j|} b_a b_j (x) b_b b_k
            X = signed if alg.parity[j] else C
            term = linalg.bmatmul(F, T[:, j].T, linalg.bmatmul(F, X, T[:, k]))
            got = F.add[got, F.mul[C[g, j, k], term]]
        bad = np.flatnonzero((want != got).any(axis=(1, 2)))
        if bad.size:
            fails.append((int(bad[0]), g))
    if fails:
        raise AlgebraError("coproduct not multiplicative at ({},{})".format(*min(fails)))
    # both sides of the antipode axiom, sum C[i, j, k] S(b_j) b_k and
    # sum C[i, j, k] b_j S(b_k), against counit(b_i) 1
    want = np.zeros((d, d), dtype=linalg.DT)
    want[:, 0] = alg.augmentation
    sides = [linalg.bmatmul(F, S, C), linalg.bmatmul(F, C, S.T)]
    sides = [linalg.matmul(F, X.reshape(d, -1), T.reshape(-1, d)) != want for X in sides]
    bad = np.flatnonzero((sides[0] | sides[1]).any(axis=1))
    if bad.size:
        raise AlgebraError(f"antipode axiom fails at basis {bad[0]}")
