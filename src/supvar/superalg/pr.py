"""Distinguished-basis arithmetic in P_r = k[u_0..u_{r-1},v]/(u_i^p, u_{r-1}^p + v^2).

The u_i are even, v is odd, and the ring is commutative in the ungraded
sense (so v^2 = -u_{r-1}^p is a nonzero even element).  Writing u_i for
i >= r for the p-th power towers u_{r-1}^{p^{i-r+1}}, the even part has
the divided-power basis

    gamma_l = prod_i u_i^{l_i} / l_i!     (l = sum l_i p^i in base p),

and {gamma_l, v*gamma_l} is a homogeneous basis.  Products, coproducts and
the antipode all have closed forms in this basis; coefficients live in the
prime field and are kept as plain ints mod p.

PrPresentation holds the presentation data (generators, defining
relations, the monomial of each gamma) that the group algebra builders,
morphisms and Hom-scheme ideals share; graded_commutator and p_power build
every commutator and p-power relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations


@dataclass(frozen=True)
class PrIndex:
    """Names the basis element gamma_ell (has_v False) or v*gamma_ell."""

    ell: int
    has_v: bool = False

    def parity(self) -> int:
        return 1 if self.has_v else 0


@dataclass
class PrElement:
    """A finitely supported combination of distinguished basis elements."""

    p: int
    r: int
    terms: dict = field(default_factory=dict)  # PrIndex -> int mod p

    def __post_init__(self):
        self.terms = {k: v % self.p for k, v in self.terms.items() if v % self.p}

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, PrElement)
            and self.p == other.p
            and self.r == other.r
            and self.terms == other.terms
        )


def digits(n: int, p: int):
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out


def _factorials(p: int):
    f = [1] * p
    for i in range(1, p):
        f[i] = f[i - 1] * i % p
    return f


def digit_factorial_product(n: int, p: int) -> int:
    """c_n = prod over base-p digits d of n of d!, a unit mod p."""
    fact = _factorials(p)
    out = 1
    for d in digits(n, p):
        out = out * fact[d] % p
    return out


def _binom_small(a: int, b: int, p: int) -> int:
    # binomial C(a+b, a) with a + b < p
    fact = _factorials(p)
    return fact[a + b] * pow(fact[a] * fact[b] % p, p - 2, p) % p


def gamma_coeff(a: int, b: int, p: int, r: int) -> int:
    """Coefficient c with gamma_a * gamma_b = c * gamma_{a+b} in P_r (c may be 0).

    Zero exactly when some base-p digit sum carries in a position < r-1;
    in the u_{r-1} tower the coefficient is always a unit.
    """
    coeff = 1
    aa, bb = a, b
    for _ in range(r - 1):
        da, db = aa % p, bb % p
        if da + db >= p:
            return 0
        coeff = coeff * _binom_small(da, db, p) % p
        aa //= p
        bb //= p
    # remaining high parts multiply inside the u_{r-1} power tower
    c_ab = digit_factorial_product(aa + bb, p)
    c_a = digit_factorial_product(aa, p)
    c_b = digit_factorial_product(bb, p)
    coeff = coeff * c_ab % p * pow(c_a * c_b % p, p - 2, p) % p
    return coeff


def gamma_product(p: int, r: int, x: PrIndex, y: PrIndex) -> PrElement:
    """Product of two distinguished basis elements of P_r.

    At most one basis element appears in the result; both factors odd
    contributes v^2 = -gamma_{p^r}.
    """
    coeff = gamma_coeff(x.ell, y.ell, p, r)
    out = PrElement(p, r)
    if coeff == 0:
        return out
    ell = x.ell + y.ell
    has_v = x.has_v != y.has_v
    if x.has_v and y.has_v:
        coeff = coeff * gamma_coeff(ell, p**r, p, r) % p
        coeff = (-coeff) % p
        ell += p**r
    if coeff:
        out.terms[PrIndex(ell, has_v)] = coeff
    return out


def _carry_free_splits(b: int, p: int):
    """All (s, t) with s + t = b and no base-p carries, i.e. digitwise splits."""
    ds = digits(b, p)
    splits = [(0, 0)]
    for pos, d in enumerate(ds):
        w = p**pos
        splits = [(s + i * w, t + (d - i) * w) for (s, t) in splits for i in range(d + 1)]
    return splits


def pr_coproduct(p: int, r: int, x: PrIndex):
    """Coproduct of a basis element, yielded as (left, right, coeff) terms.

    For gamma_ell with ell = a + b p^r the terms are gamma_{i+s p^r} (x)
    gamma_{j+t p^r} over i + j = a and carry-free s + t = b, each with
    coefficient 1; v is primitive and distributes with trivial signs since
    the gammas are even.  Delta(u_{r-1}) alone has p^{r-1} + 1 terms, so
    they are yielded one at a time rather than listed.
    """
    pr = p**r
    a, b = x.ell % pr, x.ell // pr
    splits = _carry_free_splits(b, p)
    for i in range(a + 1):
        for s, t in splits:
            le, ri = i + s * pr, (a - i) + t * pr
            if x.has_v:
                yield PrIndex(le, True), PrIndex(ri, False), 1
                yield PrIndex(le, False), PrIndex(ri, True), 1
            else:
                yield PrIndex(le, False), PrIndex(ri, False), 1


def pr_antipode_counit(p: int, r: int, x: PrIndex):
    """Antipode image (a PrElement) and counit value of a basis element.

    S(gamma_ell) = (-1)^ell gamma_ell for every ell (the tower generators
    gamma_{p^i} all have odd index), and S(v gamma_ell) picks up one more
    sign from S(v) = -v; the counit is 1 on gamma_0 only.
    """
    sign = (-1) ** (x.ell + (1 if x.has_v else 0))
    el = PrElement(p, r, {x: sign % p})
    counit = 1 if (x.ell == 0 and not x.has_v) else 0
    return el, counit


# -- presentation data ---------------------------------------------------


def graded_commutator(a: str, pa: int, b: str, pb: int, p: int):
    """The relation [a,b] = ab - (-1)^{|a||b|} ba, as (label, terms)."""
    sign = -1 if (pa and pb) else 1
    return (f"[{a},{b}]", ((1, ((a, 1), (b, 1))), ((-sign) % p, ((b, 1), (a, 1)))))


def p_power(g: str, p: int):
    """The relation g^p = 0, as (label, terms)."""
    return (f"{g}^p", ((1, ((g, p),)),))


@dataclass(frozen=True)
class PrPresentation:
    """The presentation of P_r on u_0..u_{r-1} (even) and v (odd)."""

    p: int
    r: int

    @property
    def gen_names(self):
        return tuple(f"u{i}" for i in range(self.r)) + ("v",)

    def gen_parity(self, name: str) -> int:
        return 1 if name == "v" else 0

    def relations(self):
        """Defining relations as (label, ((coeff mod p, monomial), ...))."""
        p, r = self.p, self.r
        rels = [
            graded_commutator(a, self.gen_parity(a), b, self.gen_parity(b), p)
            for a, b in combinations(self.gen_names, 2)
        ]
        rels += [p_power(f"u{i}", p) for i in range(r - 1)]
        rels.append((f"u{r-1}^p+v^2", ((1, ((f"u{r-1}", p),)), (1, (("v", 2),)))))
        return tuple(rels)

    def gamma_monomial(self, ell: int, has_v: bool):
        """(coeff mod p, ((gen, exp), ...)) expressing a basis element."""
        p, r = self.p, self.r
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

    def gen_coproduct(self, name: str):
        """Coproduct of a generator, yielded as (left, right, coeff) terms, where
        each side is a gamma index interpreted through gamma_monomial."""
        if name == "v":
            x = PrIndex(0, True)
        else:
            i = int(name[1:])
            x = PrIndex(self.p**i, False)
        return pr_coproduct(self.p, self.r, x)
