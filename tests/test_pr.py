"""The divided-power basis arithmetic of P_r, checked against an
independent monomial-expansion oracle and against its own axioms.  A basis
element is the int x = 2 ell + |x|: gamma_ell when x is even, v*gamma_ell
when x is odd."""

from collections import Counter
from itertools import zip_longest

import numpy as np
import pytest

from supvar.gfield import SUPPORTED_PRIMES
from supvar.superalg.homscheme import source_r_cap
from supvar.superalg.pr import digit_factorial_product, digits, pr_coproduct

from oracles.pr_oracle import gamma_product, pr_antipode_counit


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


def oracle_product(p, r, ma, mb):
    """gamma_a gamma_b from the monomials ma and mb of gamma_a and gamma_b."""
    (ca, ea), (cb, eb) = ma, mb
    exps = tuple(x + y for x, y in zip(ea, eb))
    if any(e >= p for e in exps[:-1]):
        return 0, None
    return monomial_to_gamma(p, r, ca * cb % p, exps)


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_gamma_product_matches_monomial_oracle(p, r):
    bound = p ** (r + 2)
    mons = [gamma_to_monomial(p, r, a) for a in range(bound)]
    for a in range(bound):
        for b in range(bound):
            got = gamma_product(p, r, 2 * a, 2 * b)
            c, n = oracle_product(p, r, mons[a], mons[b])
            if c == 0:
                assert got.is_zero(), (a, b)
            else:
                assert got.terms == {2 * n: c}, (a, b)


def test_gamma_product_spec_examples():
    assert gamma_product(3, 1, 2, 2).terms == {4: 2}
    for p, r in [(3, 1), (3, 2), (5, 1)]:
        vv = gamma_product(p, r, 1, 1)
        assert vv.terms == {2 * p**r: p - 1}  # v^2 = -gamma_{p^r}
    assert gamma_product(3, 1, 4, 4).terms == {8: 1}
    assert gamma_product(3, 2, 2, 4).is_zero()  # u_0^3 = 0


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2)])
def test_ungraded_commutativity(p, r):
    idxs = range(2 * p ** (r + 1))
    for x in idxs:
        for y in idxs:
            assert gamma_product(p, r, x, y) == gamma_product(p, r, y, x)


def _ells(terms):
    return sorted((le >> 1, ri >> 1) for le, ri, _ in terms)


def test_coproduct_spec_examples():
    assert _ells(pr_coproduct(3, 1, 2)) == [(0, 1), (1, 0)]
    v = pr_coproduct(3, 1, 1)
    assert sorted((le & 1, ri & 1) for le, ri, _ in v) == [(0, 1), (1, 0)]
    # gamma_3 = u^p is primitive for p=3, r=1
    assert _ells(pr_coproduct(3, 1, 6)) == [(0, 3), (3, 0)]
    assert _ells(pr_coproduct(3, 1, 8)) == [
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


def _gen_basis(pres, g):
    """The P_r basis element of the generator g: v is 1, u_j is gamma_{p^j}."""
    return 1 if g == "v" else 2 * pres.p ** int(g[1:])


@pytest.mark.parametrize(
    "p,r", [(p, r) for p in SUPPORTED_PRIMES for r in range(1, source_r_cap(p) + 1)]
)
def test_gen_coproduct_is_the_basis_coproduct(p, r):
    # with every letter live, the walk over a generator's coproduct yields
    # pr_coproduct of its basis element, term for term, for every (p, r)
    # that the Hom-scheme accepts
    from supvar.superalg.pr import PrPresentation

    pres = PrPresentation(p, r)
    for g in pres.gen_names:
        want = pr_coproduct(p, r, _gen_basis(pres, g))
        assert all(a == b for a, b in zip_longest(pres.gen_coproduct(g), want)), g


@pytest.mark.parametrize("p,r", [(3, 4), (5, 3), (7, 2)])
def test_live_parts_are_the_terms_with_live_letters(p, r):
    # for every set of live generators: the relations and generator
    # coproduct terms that keep a term, or both sides, on live letters only,
    # filtered from the full lists in their order
    from supvar.superalg.pr import PrPresentation

    pres = PrPresentation(p, r)

    def letters(x):
        return {g for g, _ in pres.gamma_monomial(x)[1]}

    for mask in range(2 ** (r + 1)):
        live = {g for b, g in enumerate(pres.gen_names) if mask >> b & 1}
        rels = tuple(
            (label, terms)
            for label, terms in pres.relations()
            if any(live.issuperset(g for g, _ in mon) for _, mon in terms)
        )
        assert pres.relations_among(live) == rels, live
        for g in pres.gen_names:
            terms = pr_coproduct(p, r, _gen_basis(pres, g))
            want = tuple(t for t in terms if live >= letters(t[0]) | letters(t[1]))
            assert tuple(pres.gen_coproduct(g, live)) == want, (live, g)


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 2), (7, 1)])
def test_coproduct_coassociative_and_counital(p, r):
    n = 2 * p ** (r + 2)
    cop = [list(pr_coproduct(p, r, x)) for x in range(n)]  # closed: a side is <= x
    # every coefficient is 1, so the terms as a multiset are the coproduct
    assert {c for terms in cop for _, _, c in terms} == {1}
    # a (x) b is the key a n + b, and a (x) b (x) c is (a n + b) n + c
    keys = [np.array([a * n + b for a, b, _ in terms], dtype=np.int64) for terms in cop]
    for x, terms in enumerate(cop):
        A = [a for a, _, _ in terms]
        B = [b for _, b, _ in terms]
        lhs = np.concatenate([keys[a] for a in A]) * n + np.repeat(B, [len(cop[a]) for a in A])
        rhs = np.repeat(A, [len(cop[b]) for b in B]) * n * n + np.concatenate([keys[b] for b in B])
        assert np.array_equal(np.sort(lhs), np.sort(rhs)), x
        # counit axiom on both sides
        for side in (0, 1):
            total = Counter(t[side] for t in terms if pr_antipode_counit(p, r, t[1 - side])[1])
            assert total == {x: 1}


def test_antipode_and_counit():
    el, cu = pr_antipode_counit(3, 1, 0)
    assert el.terms == {0: 1} and cu == 1
    el, cu = pr_antipode_counit(3, 1, 1)
    assert el.terms == {1: 2} and cu == 0
    el, cu = pr_antipode_counit(3, 1, 6)
    assert el.terms == {6: 2} and cu == 0
    # multiplicativity: S(gamma_a) S(gamma_b) = S(gamma_a gamma_b)
    for a in range(0, 18, 2):
        for b in range(0, 18, 2):
            prod = gamma_product(3, 1, a, b)
            sa, _ = pr_antipode_counit(3, 1, a)
            sb, _ = pr_antipode_counit(3, 1, b)
            ca = sa.terms[a] * sb.terms[b] % 3
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
