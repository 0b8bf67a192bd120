"""The Hom-scheme ideal and its layered even-point solver."""

import hashlib
import random

import numpy as np
import pytest

from oracles import homscheme_oracle
from oracles.homscheme_oracle import Monomial, as_monomials, oracle_evaluate
from supvar.errors import BoundExceeded, ValidationError
from supvar.gfield import SUPPORTED_PRIMES, make_field
from supvar.superalg.algebra import GroupAlgebraSpec, build_group_algebra, verify_algebra
from supvar.superalg import homscheme
from supvar.superalg.homscheme import (
    MAX_EXPONENT,
    SOURCE_TERM_CAP,
    PolynomialIdeal,
    PolyRing,
    SuperPoly,
    check_source,
    hom_scheme_ideal,
    solve_even_points,
    source_r_cap,
)
from supvar.superalg.morphisms import PrPresentation

F3 = make_field(3, 1)


def _var(ring, name):
    return ring.poly({1 << ring.shift[ring.name_index[name]]: 1})


def _add(P, Q):
    # the sum the ideal builds, accumulated in place
    acc = dict(P.terms)
    P.ring.accumulate(acc, Q.terms)
    return SuperPoly(P.ring, acc, P.parity)


def test_superpoly_arithmetic():
    ring = PolyRing(F3, [("x", 0), ("a", 1), ("b", 1)])
    x, a, b = (_var(ring, n) for n in "xab")
    assert (a * a).is_zero()  # odd square
    ab = a * b
    ba = b * a
    assert _add(ab, ba).is_zero()  # anticommute
    two_x = _add(x, x)
    assert oracle_evaluate(ring.F, as_monomials(ring, two_x), [2, 0, 0]) == F3.element(4).index
    assert (x * x).render() == "1*x^2"
    assert ab.render() == "1*a*b"


def test_trivial_target_forces_zero():
    triv, _ = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=0))
    ideal = hom_scheme_ideal(PrPresentation(3, 1), triv)
    sols = solve_even_points(ideal)
    assert len(sols) == 1
    assert all(not np.any(v) for v in sols[0].values())


def test_zero_images_skip_products(monkeypatch):
    # into the trivial algebra every image is zero, and so is every word
    # with a letter, before any product
    from supvar.superalg import homscheme

    calls = []
    real = homscheme._SVec.mul
    monkeypatch.setattr(homscheme._SVec, "mul", lambda a, b: calls.append(1) or real(a, b))
    triv, _ = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=0))
    source = PrPresentation(3, 6)
    ideal = hom_scheme_ideal(source, triv)
    assert ideal.render() == []
    assert len(calls) <= 3 * len(source.gen_names)


def test_ga1_even_points():
    # only rho(u) = c s survive: 3 points, odd variables forced to zero
    ga1, _ = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=1))
    ideal = hom_scheme_ideal(PrPresentation(3, 1), ga1)
    sols = solve_even_points(ideal)
    assert len(sols) == 3
    for images in sols:
        assert not np.any(images["v"])
        assert images["u0"][2] == 0  # no s^2 component


def test_m11_even_points_match_parametrization():
    m11, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    ideal = hom_scheme_ideal(PrPresentation(3, 1), m11)
    sols = solve_even_points(ideal)
    assert len(sols) == 9
    got = set()
    for images in sols:
        c = int(images["u0"][1])
        d = int(images["v"][m11.generators["v"]])
        # nothing outside the (c s, d t) slots
        rest_u = images["u0"].copy()
        rest_u[1] = 0
        rest_v = images["v"].copy()
        rest_v[m11.generators["v"]] = 0
        assert not np.any(rest_u) and not np.any(rest_v)
        got.add((d, c))
    assert got == {(d, c) for d in range(3) for c in range(3)}


def test_variable_parities_and_render_determinism():
    m11, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    ideal = hom_scheme_ideal(PrPresentation(3, 1), m11)
    pars = dict(ideal.ring.variables)
    # u pairs with the even basis s, s^2 evenly; with the odd basis oddly
    assert pars["x_1_1"] == 0 and pars["x_1_2"] == 0
    assert pars["x_1_3"] == 1 and pars["x_2_3"] == 0
    text1 = ideal.render()
    text2 = hom_scheme_ideal(PrPresentation(3, 1), m11).render()
    assert text1 == text2
    assert all(ln == ln.strip() and ln and "\n" not in ln for ln in text1)


def test_solver_bound():
    big, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=2, s=1))
    ideal = hom_scheme_ideal(PrPresentation(3, 2), big)
    with pytest.raises(BoundExceeded):
        solve_even_points(ideal)


# -- the packed-monomial core against the tuple-monomial product ---------


def _merge_odd(a: tuple, b: tuple):
    """Concatenate odd variable lists; Koszul sign, or None if a square appears."""
    if set(a) & set(b):
        return None, 0
    merged = []
    sign = 1
    i = j = 0
    while i < len(a) or j < len(b):
        if j >= len(b) or (i < len(a) and a[i] < b[j]):
            merged.append(a[i])
            i += 1
        else:
            # b[j] moves left past the remaining elements of a
            if (len(a) - i) % 2 == 1:
                sign = -sign
            merged.append(b[j])
            j += 1
    return tuple(merged), sign


def oracle_mul(F, P, Q):
    out = {}
    for m1, c1 in P.items():
        for m2, c2 in Q.items():
            odd, sign = _merge_odd(m1.odd, m2.odd)
            if odd is None:
                continue
            ev = dict(m1.even)
            for v, e in m2.even:
                ev[v] = ev.get(v, 0) + e
            mon = Monomial(tuple(sorted(ev.items())), odd)
            c = int(F.mul[c1, c2])
            if sign < 0:
                c = int(F.neg[c])
            out[mon] = int(F.add[out.get(mon, 0), c])
    return {m: c for m, c in out.items() if c}


def oracle_add(F, P, Q):
    out = dict(P)
    for m, c in Q.items():
        out[m] = int(F.add[out.get(m, 0), c])
    return {m: c for m, c in out.items() if c}


def oracle_render(F, names, P):
    if not P:
        return "0"

    def key(m):
        expvec = [0] * len(names)
        for v, e in m.even:
            expvec[v] = e
        for v in m.odd:
            expvec[v] = 1
        return (m.degree(), expvec)

    parts = []
    for m in sorted(P, key=key, reverse=True):
        c = F.to_element(P[m]).encode()
        factors = [
            names[v] if e == 1 else f"{names[v]}^{e}"
            for v, e in sorted(m.even + tuple((v, 1) for v in m.odd))
        ]
        parts.append("*".join([c] + factors))
    return " + ".join(parts)


VARS = [("x", 0), ("a", 1), ("y", 0), ("b", 1), ("z", 0), ("c", 1)]


def _random_pair(rng, ring, q, parity):
    """One random polynomial of the given parity, as (SuperPoly, oracle dict)."""
    F = ring.F
    new, old = {}, {}
    for _ in range(rng.randrange(1, 6)):
        while True:
            exps = [rng.randrange(2) if par else rng.randrange(4) for _, par in VARS]
            if sum(e for e, (_, par) in zip(exps, VARS) if par) % 2 == parity:
                break
        c = rng.randrange(1, q)
        key = sum(e << ring.shift[v] for v, e in enumerate(exps))
        mon = Monomial(
            tuple((v, e) for v, e in enumerate(exps) if e and not VARS[v][1]),
            tuple(v for v, e in enumerate(exps) if e and VARS[v][1]),
        )
        new[key] = int(F.add[new.get(key, 0), c])
        old[mon] = int(F.add[old.get(mon, 0), c])
    return SuperPoly(ring, new, parity), {m: c for m, c in old.items() if c}


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2)])
def test_packed_core_matches_tuple_monomials(p, n):
    field = make_field(p, n)
    ring = PolyRing(field, VARS)
    F = ring.F
    names = [name for name, _ in VARS]
    rng = random.Random(1000 * p + n)
    for _ in range(60):
        pa, pb = rng.randrange(2), rng.randrange(2)
        P, oP = _random_pair(rng, ring, field.q, pa)
        Q, oQ = _random_pair(rng, ring, field.q, pb)
        R, oR = _random_pair(rng, ring, field.q, pa)
        assert as_monomials(ring, P * Q) == oracle_mul(F, oP, oQ)
        assert as_monomials(ring, Q * P) == oracle_mul(F, oQ, oP)
        assert as_monomials(ring, _add(P, R)) == oracle_add(F, oP, oR)
        assert (P * Q).render() == oracle_render(F, names, oracle_mul(F, oP, oQ))
        assert _add(P, R).render() == oracle_render(F, names, oracle_add(F, oP, oR))
        point = [rng.randrange(field.q) for _ in VARS]
        assert oracle_evaluate(F, as_monomials(ring, P), point) == oracle_evaluate(F, oP, point)
        PQ = as_monomials(ring, P * Q)
        assert oracle_evaluate(F, PQ, point) == oracle_evaluate(F, oracle_mul(F, oP, oQ), point)


def test_exponent_overflow_raises():
    ring = PolyRing(F3, [("a", 1), ("x", 0), ("y", 0)])
    x, y = _var(ring, "x"), _var(ring, "y")
    big = SuperPoly(ring, {MAX_EXPONENT << ring.shift[1]: 1}, 0)
    assert (big * y).render() == f"1*x^{MAX_EXPONENT}*y"  # the neighbours are untouched
    half = SuperPoly(ring, {(MAX_EXPONENT // 2 + 1) << ring.shift[1]: 1}, 0)
    for P, Q in ((big, x), (half, half), (x * y, big)):
        with pytest.raises(ValidationError):
            P * Q
    # slots above 63 make addmul test every product; these all fit
    x64, y64 = (SuperPoly(ring, {64 << ring.shift[v]: 2}, 0) for v in (1, 2))
    below = SuperPoly(ring, {(MAX_EXPONENT - 64) << ring.shift[1]: 1}, 0)
    assert (x64 * y64).render() == "1*x^64*y^64"
    assert (x64 * below).render() == f"2*x^{MAX_EXPONENT}"
    # only the last product overflows, in either order of the factors
    mixed = SuperPoly(ring, {1 << ring.shift[2]: 1, 64 << ring.shift[1]: 1}, 0)
    for P, Q in ((mixed, x64), (x64, mixed)):
        with pytest.raises(ValidationError, match=f"exceeds {MAX_EXPONENT}$"):
            P * Q


def test_source_checks():
    # the cap bounds the p^(r-1) + 1 coproduct terms of u_{r-1}
    for p, cap in ((3, 12), (5, 8), (7, 7)):
        assert source_r_cap(p) == cap
        assert p ** (cap - 1) <= SOURCE_TERM_CAP < p**cap
        check_source(PrPresentation(p, cap), p)
        with pytest.raises(BoundExceeded):
            check_source(PrPresentation(p, cap + 1), p)
    for bad in (PrPresentation(3, 0), PrPresentation(3, -1), PrPresentation(5, 1)):
        with pytest.raises(ValidationError):
            check_source(bad, 3)


# sha1 of hom_scheme_ideal(...).render(), recorded with the tuple-monomial
# implementation that the packed monomials replaced
RENDER_SHA1 = [
    (1, {"family": "Mrs", "p": 3, "r": 1, "s": 1}, "3a9fd97c14a261015a081777f2de80670dcc82fb"),
    (2, {"family": "Mrs", "p": 3, "r": 2, "s": 1}, "e757d396ce334fc7682a8ba311e8e00e125ffa28"),
    (1, {"family": "Mrs", "p": 3, "r": 1, "s": 2}, "97b6b4d2ab08528f8497f1d74ecdce0650079598"),
    (1, {"family": "Gar", "p": 3, "r": 1}, "3040a8fc6ff0905be36202cfe06fa016e0cbd947"),
    (1, {"family": "GaMinus", "p": 3}, "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
    (2, {"family": "Gar", "p": 3, "r": 2}, "47f469a71a95717afc95da48887602760edadd36"),
    (1, {"family": "Mrs", "p": 5, "r": 1, "s": 1}, "c0ddca9242cfc0fdb33bf8e9ac0fe4b2f40c6ba7"),
    (
        1,
        {
            "family": "Tensor",
            "p": 3,
            "factors": [{"family": "Mrs", "p": 3, "r": 1, "s": 1}, {"family": "GaMinus", "p": 3}],
        },
        "61598fb73cf6650049df53f42397d27f665e7818",
    ),
    # the two largest ideals of the benchmark, recorded before the render
    # built one monomial table per call
    (3, {"family": "Gar", "p": 3, "r": 3}, "612da73e3720b76b0df9257abd8f03815d0a0a5e"),
    (2, {"family": "Mrs", "p": 3, "r": 2, "s": 2}, "53542e798c47374de402420d85789c6f30d06eae"),
]


@pytest.mark.parametrize(
    "r,spec,digest",
    RENDER_SHA1,
    ids=[
        "P1-M11", "P2-M21", "P1-M12", "P1-Ga1", "P1-GaMinus", "P2-Ga2", "P1-M11p5",
        "P1-M11xGaMinus", "P3-Ga3", "P2-M22",
    ],
)
def test_render_digests_unchanged(r, spec, digest):
    spec = GroupAlgebraSpec.from_json(spec)
    alg, _ = build_group_algebra(spec)
    text = _text(hom_scheme_ideal(PrPresentation(spec.p, r), alg))
    assert hashlib.sha1(text.encode()).hexdigest() == digest


# -- the render against the oracle where its shortcuts could break --------


def _ideal(ring, polys):
    return PolynomialIdeal(ring, lambda: ((f"g{i}", P) for i, P in enumerate(polys)), None, None)


def _text(ideal):
    """The CLI's output of an ideal, without the final newline."""
    return "\n".join(ideal.render())


def _oracle_lines(ring, polys):
    names = [name for name, _ in ring.variables]
    texts = (oracle_render(ring.F, names, as_monomials(ring, P)) for P in polys if P.terms)
    return "\n".join(dict.fromkeys(texts))


def test_render_degree_above_255():
    # degrees 381, 256, 255, 1 and 0: no byte-wide degree
    ring = PolyRing(F3, [("x", 0), ("a", 1), ("y", 0), ("z", 0)])
    x, y, z = (ring.shift[ring.name_index[n]] for n in "xyz")
    top = MAX_EXPONENT
    P = SuperPoly(ring, {
        top << x | top << y | top << z: 1,
        top << x | top << y | 2 << z: 2,
        top << x | top << y | 1 << z: 1,
        top << x | 1 << y | 1 << z: 2,
        1 << z: 1,
        0: 2,
    }, 0)
    assert P.render() == _oracle_lines(ring, [P])
    assert P.render().startswith(f"1*x^{top}*y^{top}*z^{top} + 2*x^{top}*y^{top}*z^2 + ")
    assert P.render().endswith(" + 1*z + 2")


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2)])
def test_render_many_variables(p, n):
    # 40 variables: monomials wider than any machine word, and more than
    # RENDER_CHUNK monomials so the table spans several chunks
    field = make_field(p, n)
    variables = [(f"w{i}", i % 3 == 1) for i in range(40)]
    ring = PolyRing(field, variables)
    rng = random.Random(40 * p + n)
    polys = []
    for _ in range(70):
        terms = {}
        for _ in range(rng.randrange(1, 160)):
            exps = [rng.randrange(2) if par else rng.choice((0, 0, 0, 1, 2, 9)) for _, par in variables]
            m = sum(e << ring.shift[v] for v, e in enumerate(exps))
            terms[m] = rng.randrange(1, field.q)
        polys.append(SuperPoly(ring, terms, 0))
    polys += polys[::7]  # repeats under other labels
    assert len(set().union(*(P.terms for P in polys))) > homscheme.RENDER_CHUNK
    assert _text(_ideal(ring, polys)) == _oracle_lines(ring, polys)
    for P in polys[:5]:
        assert P.render() == _oracle_lines(ring, [P])


def test_render_empty_and_zero():
    ring = PolyRing(F3, [("x", 0)])
    assert _ideal(ring, []).render() == []
    assert _ideal(ring, [SuperPoly(ring, {1: 0}, 0)] * 3).render() == []
    assert SuperPoly(ring, {}, 0).render() == "0"
    assert SuperPoly(ring, {0: 2}, 0).render() == "2"
    bare = PolyRing(F3, [])
    assert _ideal(bare, [SuperPoly(bare, {0: 1}, 0)]).render() == ["1"]


def test_render_prints_equal_generators_once():
    ring = PolyRing(F3, [("x", 0), ("y", 0)])
    x, y = (1 << ring.shift[ring.name_index[n]] for n in "xy")
    xy_1 = SuperPoly(ring, {x + y: 1, 0: 1}, 0)
    x_y = SuperPoly(ring, {x: 1, y: 1}, 0)  # same length and monomial sum
    x_2y = SuperPoly(ring, {x: 1, y: 2}, 0)  # same monomials
    again = SuperPoly(ring, {0: 1, x + y: 1}, 0)  # equal to xy_1, other order
    zero = SuperPoly(ring, {x: 0}, 0)
    polys = [x_y, zero, xy_1, x_2y, again, x_y, x_2y]
    assert _ideal(ring, polys).render() == ["1*x + 1*y", "1*x*y + 1", "1*x + 2*y"]
    assert _text(_ideal(ring, polys)) == _oracle_lines(ring, polys)


def test_variable_names_are_one_line():
    with pytest.raises(ValidationError):
        PolyRing(F3, [("x\ny", 0)])


@pytest.mark.parametrize(
    "names", [["x*y"], ["x^2"], ["x y"], ["x+y"], [""], ["2x"], ["1"], ["x:1"], ["x", "y", "x"]]
)
def test_variable_names_keep_the_render_injective(names):
    # the render drops repeats by their line, so a line must determine its
    # polynomial: names are distinct identifiers.  With "x" and "x^2" both
    # allowed, x^2 and the variable x^2 would print alike.
    with pytest.raises(ValidationError, match="distinct identifiers"):
        PolyRing(F3, [(n, 0) for n in names])
    PolyRing(F3, [("x_1_2", 0), ("_y", 1), ("w0", 0)])


def _cocommutativity_fault(source):
    """What keeps the ideal's build from reading source's coproducts, or None.

    The ideal adds each coproduct term (le, ri, c) with its mirror
    (ri, le, c) from one product, and builds only the components a <= b.
    So Delta(g) must hold both terms, with the same coefficient, and no
    term may be odd on both sides, where a Koszul sign would enter."""
    for g in source.gen_names:
        weight = {}
        for le, ri, c in source.gen_coproduct(g):
            if le & ri & 1:
                return f"the coproduct of {g} has a term odd on both sides"
            weight[le, ri] = weight.get((le, ri), 0) + c
        if any((weight.get((ri, le), 0) - c) % source.p for (le, ri), c in weight.items()):
            return f"the coproduct of {g} is not super-cocommutative"
    return None


@pytest.mark.parametrize(
    "p,r", [(p, r) for p in SUPPORTED_PRIMES for r in range(1, source_r_cap(p) + 1)]
)
def test_generator_coproducts_are_cocommutative(p, r):
    # P_r's coproduct is a function of (p, r), so it is checked here, for
    # every source that check_source accepts, instead of on every build
    assert _cocommutativity_fault(PrPresentation(p, r)) is None


@pytest.mark.parametrize("pa,pb", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_mirror_adds_b_tensor_a(pa, pb, monkeypatch):
    # c (A (x) B) + c (B (x) A) at each s_a (x) s_b with a <= b, against the
    # oracle's full computation, over an algebra with odd basis elements,
    # with as many products formed; the ideal itself only ever passes an
    # even A.  The oracle's mirror is checked against A (x) B and B (x) A
    # built apart.  Below the diagonal the sum is (-1)^{|s_a||s_b|} times
    # its mirror unless A and B are both odd, which is why a source term
    # may not be odd on both sides.
    m11, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    ring = PolyRing(F3, VARS)
    rng = random.Random(10 * pa + pb)
    par = m11.parity.tolist()

    def vec(parity):
        comps = [_random_pair(rng, ring, 3, (parity + par[j]) % 2)[0].terms for j in range(m11.dim)]
        return homscheme._SVec(m11, ring, comps, parity)

    products = []
    real = PolyRing.addmul
    monkeypatch.setattr(PolyRing, "addmul", lambda *a: products.append(1) or real(*a))
    A, B = vec(pa), vec(pb)
    full = {}
    homscheme_oracle._tensor_components(A, B, 2, full, True)
    full = {k: ring.poly(v).terms for k, v in full.items()}
    formed, products[:] = len(products), []
    listed = {}
    homscheme._tensor_products(A, B, 2, True, listed)
    assert all(a <= b for a, b in listed)
    for a in range(m11.dim):
        for b in range(a, m11.dim):
            acc = {}
            for P, Q, coefs in listed.get((a, b), ()):
                ring.addmul([(acc, k) for k in coefs], P, Q)
            assert ring.poly(acc).terms == full.get((a, b), {}), (a, b)
    assert len(products) == formed
    apart = {}
    homscheme_oracle._tensor_components(A, B, 2, apart, False)
    homscheme_oracle._tensor_components(B, A, 2, apart, False)
    nonzero = {k: P.terms for k, P in ((k, ring.poly(v)) for k, v in apart.items()) if P.terms}
    assert nonzero == {k: v for k, v in full.items() if v} != {}
    mirrored = [
        full[(b, a)] == {m: ring.neg[c] if par[a] and par[b] else c for m, c in full[(a, b)].items()}
        for a, b in full
        if a < b
    ]
    assert all(mirrored) != (pa and pb)


# -- the streamed ideal against the full build -----------------------------

ORACLE_TARGETS = {
    "Ga1": {"family": "Gar", "p": 3, "r": 1},
    "Ga2": {"family": "Gar", "p": 3, "r": 2},
    "Ga3": {"family": "Gar", "p": 3, "r": 3},
    "GaMinus": {"family": "GaMinus", "p": 3},
    "M11": {"family": "Mrs", "p": 3, "r": 1, "s": 1},
    "M21": {"family": "Mrs", "p": 3, "r": 2, "s": 1},
    "M12": {"family": "Mrs", "p": 3, "r": 1, "s": 2},
    "M22": {"family": "Mrs", "p": 3, "r": 2, "s": 2},
    "M211": {"family": "Mrs", "p": 3, "r": 2, "s": 1, "eta": 1},
    "M11p5": {"family": "Mrs", "p": 5, "r": 1, "s": 1},
    "M11p7": {"family": "Mrs", "p": 7, "r": 1, "s": 1},
}
ORACLE_CASES = [(r, name) for name in ORACLE_TARGETS for r in ((1, 2) if "p" in name else (1, 2, 3))]


@pytest.mark.parametrize("r,target", ORACLE_CASES, ids=[f"P{r}-{t}" for r, t in ORACLE_CASES])
def test_streamed_ideal_matches_full_build(r, target):
    # labels, order and term dicts.  A lower coproduct component with
    # |s_a||s_b| even is the very object of its upper one: the stream named
    # it by label, so its render skips it unformatted.
    spec = GroupAlgebraSpec.from_json(ORACLE_TARGETS[target])
    alg, _ = build_group_algebra(spec)
    source = PrPresentation(spec.p, r)
    got = homscheme_oracle.materialise(hom_scheme_ideal(source, alg))
    want = homscheme_oracle.hom_scheme_generators(source, alg)
    assert [label for label, _ in got] == [label for label, _ in want]
    assert all(P.terms == Q.terms for (_, P), (_, Q) in zip(got, want))
    by_label = dict(got)
    par = alg.parity.tolist()
    for label, P in got:
        if label.startswith("cop:"):
            g, ab = label[4:-1].split("[")
            a, b = map(int, ab.split(","))
            if a != b:
                shared = P is by_label.get(f"cop:{g}[{b},{a}]")
                assert shared == (not (par[a] and par[b])), label


class _Skewed(PrPresentation):
    """P_r with a coproduct term of u1 changed."""

    def __init__(self, p, r, edit):
        super().__init__(p, r)
        object.__setattr__(self, "edit", edit)

    def gen_coproduct(self, name):
        terms = list(super().gen_coproduct(name))
        return self.edit(terms) if name == "u1" else terms


@pytest.mark.parametrize(
    "edit,words",
    [
        (lambda t: t[:-1], "not super-cocommutative"),
        (lambda t: [(le, ri, 2 if i == 1 else c) for i, (le, ri, c) in enumerate(t)], "not super-cocommutative"),
        (lambda t: t + [(1, 3, 1)], "odd on both sides"),
    ],
)
def test_source_coproduct_checked_where_it_enters(edit, words):
    # the check that test_generator_coproducts_are_cocommutative runs on
    # every accepted (p, r) catches each skew of a source's coproduct
    assert words in _cocommutativity_fault(_Skewed(3, 2, edit))
    assert _cocommutativity_fault(_Skewed(3, 2, lambda t: t[::-1])) is None  # order is free


def test_target_coproduct_checked_where_it_enters():
    # Delta(gamma_3) of G_a(2) has gamma_1 (x) gamma_2 and gamma_2 (x) gamma_1
    from dataclasses import replace

    alg, hopf = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=2))
    verify_algebra(alg)
    C = hopf.coproduct.copy()
    i, j, k = next((i, j, k) for i, j, k in np.argwhere(C) if j != k and j and k)
    C[i, j, k] += 1
    with pytest.raises(ValidationError, match="super-cocommutative"):
        verify_algebra(replace(alg, hopf=replace(hopf, coproduct=C)))


def test_streamed_render_memory_is_bounded():
    # building P_3 -> G_a(3) and rendering its lines, as the CLI does, peaks
    # at one render chunk plus the output; the whole ideal held 11 MB, and
    # with its render table peaked at 20 MB
    import tracemalloc

    alg, _ = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=3))
    tracemalloc.start()
    try:
        lines = hom_scheme_ideal(PrPresentation(3, 3), alg).render()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    digest = dict((spec["family"], d) for r, spec, d in RENDER_SHA1 if r == 3)["Gar"]
    assert hashlib.sha1("\n".join(lines).encode()).hexdigest() == digest
    assert peak < 8 * 2**20, peak


def test_large_source_memory_is_bounded():
    # P_10 -> G_a(0) has no variables and an empty ideal, but Delta(u_9)
    # alone has 3^9 + 1 terms; the stream reads them one at a time.  Checking
    # the source on every build held all of them and peaked at 3 MB.
    import tracemalloc

    alg, _ = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=0))
    tracemalloc.start()
    try:
        lines = hom_scheme_ideal(PrPresentation(3, 10), alg).render()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert lines == []
    assert peak < 2**19, peak
