"""The divided-power basis arithmetic of P_r, checked against an
independent monomial-expansion oracle and against its own axioms."""

import pytest

from supvar.superalg.pr import (
    PrIndex,
    digit_factorial_product,
    digits,
    gamma_product,
    pr_antipode_counit,
    pr_coproduct,
)


# -- monomial oracle: expand gamma_l into u_0..u_{r-1} exponents ----------


def gamma_to_monomial(p, r, ell):
    """(coefficient mod p, exponent tuple) in k[u_0..u_{r-2}]/(u_i^p) (x) k[u_{r-1}]."""
    coeff = pow(digit_factorial_product(ell, p), p - 2, p)
    ds = digits(ell, p) + [0] * r
    exps = tuple(ds[:r - 1]) + (ell // p ** (r - 1),)
    return coeff, exps


def monomial_to_gamma(p, r, coeff, exps):
    n = sum(e * p**i for i, e in enumerate(exps[:-1])) + exps[-1] * p ** (r - 1)
    c = coeff * digit_factorial_product(n, p) % p
    return c, n


def oracle_product(p, r, a, b):
    ca, ea = gamma_to_monomial(p, r, a)
    cb, eb = gamma_to_monomial(p, r, b)
    exps = tuple(x + y for x, y in zip(ea, eb))
    if any(e >= p for e in exps[:-1]):
        return 0, None
    return monomial_to_gamma(p, r, ca * cb % p, exps)


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 1)])
def test_gamma_product_matches_monomial_oracle(p, r):
    bound = p ** (r + 2)
    for a in range(bound):
        for b in range(bound):
            got = gamma_product(p, r, PrIndex(a), PrIndex(b))
            c, n = oracle_product(p, r, a, b)
            if c == 0:
                assert got.is_zero(), (a, b)
            else:
                assert got.terms == {PrIndex(n): c}, (a, b)


def test_gamma_product_spec_examples():
    assert gamma_product(3, 1, PrIndex(1), PrIndex(1)).terms == {PrIndex(2): 2}
    for p, r in [(3, 1), (3, 2), (5, 1)]:
        vv = gamma_product(p, r, PrIndex(0, True), PrIndex(0, True))
        assert vv.terms == {PrIndex(p**r): p - 1}  # v^2 = -gamma_{p^r}
    assert gamma_product(3, 1, PrIndex(2), PrIndex(2)).terms == {PrIndex(4): 1}
    assert gamma_product(3, 2, PrIndex(1), PrIndex(2)).is_zero()  # u_0^3 = 0


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2)])
def test_ungraded_commutativity(p, r):
    idxs = [PrIndex(l, v) for l in range(p ** (r + 1)) for v in (False, True)]
    for x in idxs:
        for y in idxs:
            assert gamma_product(p, r, x, y) == gamma_product(p, r, y, x)


def test_coproduct_spec_examples():
    assert sorted((l.ell, r.ell) for l, r, _ in pr_coproduct(3, 1, PrIndex(1))) == [(0, 1), (1, 0)]
    v = pr_coproduct(3, 1, PrIndex(0, True))
    assert sorted((l.has_v, r.has_v) for l, r, _ in v) == [(False, True), (True, False)]
    # gamma_3 = u^p is primitive for p=3, r=1
    assert sorted((l.ell, r.ell) for l, r, _ in pr_coproduct(3, 1, PrIndex(3))) == [(0, 3), (3, 0)]
    assert sorted((l.ell, r.ell) for l, r, _ in pr_coproduct(3, 1, PrIndex(4))) == [
        (0, 4),
        (1, 3),
        (3, 1),
        (4, 0),
    ]


def test_coproduct_terms_are_yielded_not_listed():
    # Delta(u_11) of P_12 at p = 3 has 3^11 + 1 terms; listing them took ~60 MB
    import tracemalloc

    from supvar.superalg.pr import PrPresentation

    tracemalloc.start()
    try:
        count = sum(1 for _ in PrPresentation(3, 12).gen_coproduct("u11"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 3**11 + 1
    assert peak < 4 * 2**20, peak


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2)])
def test_coproduct_coassociative_and_counital(p, r):
    for ell in range(p ** (r + 2)):
        for hv in (False, True):
            x = PrIndex(ell, hv)
            lhs = {}
            rhs = {}
            for a, b, c in pr_coproduct(p, r, x):
                for a1, a2, c2 in pr_coproduct(p, r, a):
                    key = (a1, a2, b)
                    lhs[key] = (lhs.get(key, 0) + c * c2) % p
                for b1, b2, c2 in pr_coproduct(p, r, b):
                    key = (a, b1, b2)
                    rhs[key] = (rhs.get(key, 0) + c * c2) % p
            assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}
            # counit axiom on both sides
            for side in (0, 1):
                total = {}
                for a, b, c in pr_coproduct(p, r, x):
                    keep, other = (b, a) if side == 0 else (a, b)
                    if pr_antipode_counit(p, r, other)[1]:
                        total[keep] = (total.get(keep, 0) + c) % p
                assert {k: v for k, v in total.items() if v} == {x: 1}


def test_antipode_and_counit():
    el, cu = pr_antipode_counit(3, 1, PrIndex(0))
    assert el.terms == {PrIndex(0): 1} and cu == 1
    el, cu = pr_antipode_counit(3, 1, PrIndex(0, True))
    assert el.terms == {PrIndex(0, True): 2} and cu == 0
    el, cu = pr_antipode_counit(3, 1, PrIndex(3))
    assert el.terms == {PrIndex(3): 2} and cu == 0
    # multiplicativity: S(gamma_a) S(gamma_b) = S(gamma_a gamma_b)
    for a in range(9):
        for b in range(9):
            prod = gamma_product(3, 1, PrIndex(a), PrIndex(b))
            sa, _ = pr_antipode_counit(3, 1, PrIndex(a))
            sb, _ = pr_antipode_counit(3, 1, PrIndex(b))
            ca = sa.terms[PrIndex(a)] * sb.terms[PrIndex(b)] % 3
            want = {k: v * ca % 3 for k, v in prod.terms.items()}
            got = {}
            for k, v in prod.terms.items():
                sk, _ = pr_antipode_counit(3, 1, k)
                for kk, vv in sk.terms.items():
                    got[kk] = (got.get(kk, 0) + v * vv) % 3
            got = {k: v for k, v in got.items() if v}
            want2 = {}
            for k, v in want.items():
                if v:
                    want2[k] = v
            assert got == want2
