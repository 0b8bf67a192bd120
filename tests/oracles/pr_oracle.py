"""Products, antipode and counit of P_r, one basis element at a time.

The library builds its algebras from pr.gamma_coeff, pr.pr_coproduct and
pr.PrPresentation.gamma_monomial alone; these closed forms for the rest of
P_r's Hopf structure are what the tests check them against.  A basis
element is the int x = 2 ell + |x| of supvar.superalg.pr: gamma_ell when x
is even, v*gamma_ell when x is odd.
"""

from dataclasses import dataclass, field

from supvar.superalg.pr import gamma_coeff


@dataclass
class PrElement:
    """A finitely supported combination of basis elements of P_r."""

    p: int
    r: int
    terms: dict = field(default_factory=dict)  # basis element x -> int mod p

    def __post_init__(self):
        self.terms = {k: v % self.p for k, v in self.terms.items() if v % self.p}

    def is_zero(self) -> bool:
        return not self.terms


def gamma_product(p: int, r: int, x: int, y: int) -> PrElement:
    """Product of two basis elements of P_r.

    At most one basis element appears in the result; both factors odd
    contributes v^2 = -gamma_{p^r}.
    """
    coeff = gamma_coeff(x >> 1, y >> 1, p, r)
    ell = (x >> 1) + (y >> 1)
    if x & y & 1:
        coeff = -coeff * gamma_coeff(ell, p**r, p, r)
        ell += p**r
    return PrElement(p, r, {2 * ell + ((x ^ y) & 1): coeff})


def pr_antipode_counit(p: int, r: int, x: int):
    """Antipode image (a PrElement) and counit value of a basis element.

    S(gamma_ell) = (-1)^ell gamma_ell for every ell (the tower generators
    gamma_{p^i} all have odd index), and S(v gamma_ell) picks up one more
    sign from S(v) = -v; the counit is 1 on gamma_0 only.
    """
    sign = (-1) ** ((x >> 1) + (x & 1))
    return PrElement(p, r, {x: sign}), int(x == 0)
