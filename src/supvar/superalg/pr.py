"""Distinguished-basis arithmetic in P_r = k[u_0..u_{r-1},v]/(u_i^p, u_{r-1}^p + v^2).

The u_i are even, v is odd, and the ring is commutative in the ungraded
sense (so v^2 = -u_{r-1}^p is a nonzero even element).  Writing u_i for
i >= r for the p-th power towers u_{r-1}^{p^{i-r+1}}, the even part has
the divided-power basis

    gamma_l = prod_i u_i^{l_i} / l_i!     (l = sum l_i p^i in base p),

and {gamma_l, v*gamma_l} is a homogeneous basis.  A basis element is the
int x = 2 l + |x|: gamma_l when x is even, v*gamma_l when x is odd.  So its
parity is x & 1, and numeric order on x is order by (l, parity).  Products
and coproducts have closed forms in this basis; coefficients live in the
prime field and are kept as plain ints mod p.

PrPresentation holds the presentation data (generators, defining
relations, the monomial of each gamma) that the group algebra builders,
morphisms and Hom-scheme ideals share; graded_commutator and p_power build
every commutator and p-power relation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations


def digits(n: int, p: int):
    out = []
    while n:
        out.append(n % p)
        n //= p
    return out


@lru_cache(maxsize=None)
def _factorials(p: int):
    f = [1] * p
    for i in range(1, p):
        f[i] = f[i - 1] * i % p
    return tuple(f)


def digit_factorial_product(n: int, p: int) -> int:
    """c_n = prod over base-p digits d of n of d!, a unit mod p."""
    fact = _factorials(p)
    out = 1
    while n:
        n, d = divmod(n, p)
        out = out * fact[d] % p
    return out


def gamma_coeff(a: int, b: int, p: int, r: int) -> int:
    """Coefficient c with gamma_a * gamma_b = c * gamma_{a+b} in P_r (c may be 0).

    Zero exactly when some base-p digit sum carries in a position < r-1
    (there u_i^p = 0); otherwise gamma_a gamma_b = c_{a+b} / (c_a c_b)
    gamma_{a+b} with c = digit_factorial_product, a unit.
    """
    low = p ** (r - 1)
    aa, bb = a % low, b % low
    while aa and bb:
        if aa % p + bb % p >= p:
            return 0
        aa //= p
        bb //= p
    c = digit_factorial_product
    return c(a + b, p) * pow(c(a, p) * c(b, p), p - 2, p) % p


def _carry_free_splits(b: int, p: int):
    """All (s, t) with s + t = b and no base-p carries, i.e. digitwise splits."""
    ds = digits(b, p)
    splits = [(0, 0)]
    for pos, d in enumerate(ds):
        w = p**pos
        splits = [(s + i * w, t + (d - i) * w) for (s, t) in splits for i in range(d + 1)]
    return splits


def pr_coproduct(p: int, r: int, x: int):
    """Coproduct of the basis element x, yielded as (left, right, coeff) terms.

    For gamma_ell with ell = a + b p^r the terms are gamma_{i+s p^r} (x)
    gamma_{j+t p^r} over i + j = a and carry-free s + t = b, each with
    coefficient 1; v is primitive and distributes with trivial signs since
    the gammas are even.  Delta(u_{r-1}) alone has p^{r-1} + 1 terms, so
    they are yielded one at a time rather than listed.
    """
    pr = p**r
    a, b = (x >> 1) % pr, (x >> 1) // pr
    splits = _carry_free_splits(b, p)
    for i in range(a + 1):
        for s, t in splits:
            le, ri = 2 * (i + s * pr), 2 * (a - i + t * pr)
            if x & 1:
                yield le + 1, ri, 1
                yield le, ri + 1, 1
            else:
                yield le, ri, 1


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
        return self.relations_among(self.gen_names)

    def relations_among(self, live):
        """The defining relations, in relations' order, that keep a term
        with every letter in live: those not killed by sending the other
        generators to zero."""
        p, r = self.p, self.r
        names = [g for g in self.gen_names if g in live]
        rels = [
            graded_commutator(a, self.gen_parity(a), b, self.gen_parity(b), p)
            for a, b in combinations(names, 2)
        ]
        rels += [p_power(f"u{i}", p) for i in range(r - 1) if f"u{i}" in live]
        if f"u{r-1}" in live or "v" in live:
            rels.append((f"u{r-1}^p+v^2", ((1, ((f"u{r-1}", p),)), (1, (("v", 2),)))))
        return tuple(rels)

    def gamma_monomial(self, x: int):
        """(coeff mod p, ((gen, exp), ...)) expressing the basis element x."""
        p, r = self.p, self.r
        rest = x >> 1
        coeff = pow(digit_factorial_product(rest, p), p - 2, p)
        mon = [("v", 1)] if x & 1 else []
        for i in range(r - 1):
            d = rest % p
            if d:
                mon.append((f"u{i}", d))
            rest //= p
        if rest:
            mon.append((f"u{r-1}", rest))
        return coeff, tuple(mon)

    def gen_coproduct(self, name: str, live=None):
        """Coproduct of a generator, yielded as (left, right, coeff) terms, where
        each side is a basis element x, read through gamma_monomial.  With
        live, only the terms whose two sides have every letter in live, in
        the same order, without walking the others (default: every letter).

        Delta(u_j) is the sum of gamma_i (x) gamma_{p^j - i} over i <= p^j.
        For 0 < i < p^j, with e the position of the lowest nonzero digit of
        i, the letters of the two sides are u_e, ..., u_{j-1}: below e both
        have digit 0, at e they have d and p - d, and above it one of i_k and
        p - 1 - i_k is nonzero.  So both sides are live exactly when i is a
        multiple of p^m, m one above the highest dead u_k with k < j; the
        two end terms hold u_j itself."""
        live = set(self.gen_names) if live is None else live
        if name == "v":
            return ((1, 0, 1), (0, 1, 1)) if "v" in live else ()
        j = int(name[1:])
        m = next((k + 1 for k in reversed(range(j)) if f"u{k}" not in live), 0)
        ends = name in live
        steps = range(0 if ends else self.p**m, self.p**j + ends, self.p**m)
        return ((2 * i, 2 * (self.p**j - i), 1) for i in steps)
