"""Group algebra constructors, Hopf axioms, tensor products, classification."""

import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from supvar import linalg
from supvar.errors import BoundExceeded, ValidationError
from supvar.gfield import make_field
from supvar.smod import pullback, regular_module
from supvar.superalg import algebra
from supvar.superalg.algebra import (
    DIM_CAP,
    AlgebraError,
    GroupAlgebraSpec,
    build_group_algebra,
    rename_generators,
    tensor_algebra,
    verify_algebra,
    verify_hopf,
)
from oracles.points_oracle import elements
from oracles.pr_oracle import gamma_product
from oracles.algebra_oracle import (
    _tensor_square_product,
    coproduct_triples,
    radical_layers,
    tensor_coproduct,
    verify_associative_d3,
    verify_augmentation_pairs,
    verify_coproduct_pairs,
)
from supvar.superalg.morphisms import (
    PrPresentation,
    SuperalgebraMorphism,
    canonical_quotient_morphism,
    classify_quotient,
)

F3 = make_field(3, 1)

ALL_SPECS = [
    GroupAlgebraSpec("Mrs", 3, r=1, s=1),
    GroupAlgebraSpec("Mrs", 3, r=1, s=2),
    GroupAlgebraSpec("Mrs", 3, r=2, s=1),
    GroupAlgebraSpec("Mrs", 3, r=2, s=2),
    GroupAlgebraSpec("Mrs", 3, r=1, s=1, eta=2),
    GroupAlgebraSpec("Mrs", 3, r=2, s=1, eta=1),
    GroupAlgebraSpec("Gar", 3, r=1),
    GroupAlgebraSpec("Gar", 3, r=2),
    GroupAlgebraSpec("GaMinus", 3),
    GroupAlgebraSpec("TruncEven", 3, t=1),
    GroupAlgebraSpec("Mrs", 5, r=1, s=1),
]

TENSOR_SPEC = GroupAlgebraSpec(
    "Tensor", 3, factors=(GroupAlgebraSpec("Gar", 3, r=1), GroupAlgebraSpec("GaMinus", 3))
)


def test_el_word_multiplies_no_zero_letter(monkeypatch):
    # a letter mapping to zero makes the word zero, shaped like the images
    # (single or stacked), before any product; one letter needs no product
    alg, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    calls, el_mul = [], algebra.PresentedSuperalgebra.el_mul
    monkeypatch.setattr(
        algebra.PresentedSuperalgebra, "el_mul", lambda *args: calls.append(1) or el_mul(*args)
    )
    u, v = alg.el_gen("u0"), alg.el_gen("v")
    stacked = {"u0": np.stack([u, 2 * u, u]), "v": np.zeros((3, alg.dim), dtype=linalg.DT)}
    for images in ({"u0": u, "v": alg.el_zero()}, stacked):
        got = alg.el_word(2, (("u0", 2), ("v", 1)), images)
        assert got.shape == images["u0"].shape and not got.any()
        assert np.array_equal(alg.el_word(2, (("u0", 1),), images), alg.el_scale(2, images["u0"]))
    assert not calls
    assert np.array_equal(alg.el_word(1, (("u0", 2), ("v", 1))), el_mul(alg, el_mul(alg, u, u), v))
    assert len(calls) == 2


def test_dimensions():
    assert build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))[0].dim == 6
    assert build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=2, s=1))[0].dim == 18
    assert build_group_algebra(GroupAlgebraSpec("Gar", 3, r=2))[0].dim == 9
    assert build_group_algebra(GroupAlgebraSpec("GaMinus", 3))[0].dim == 2
    assert build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=2, s=2))[0].dim == 54


def test_m11_presentation():
    # kM_{1;1} = k[s,t]/(s^p, t^2): the v^2 and u^p rewrites both vanish
    alg, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    s = alg.el_gen("u0")
    t = alg.el_gen("v")
    assert not np.any(alg.el_word(1, (("u0", 3),)))
    assert not np.any(alg.el_mul(t, t))
    assert np.array_equal(alg.el_mul(s, t), alg.el_mul(t, s))


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_hopf_axioms(spec):
    alg, hopf = build_group_algebra(spec)
    verify_algebra(alg)
    verify_hopf(alg)
    assert hopf is alg.hopf


def test_verify_hopf_rejects_a_wrong_antipode():
    # the antipode is the unique convolution inverse of the identity
    alg, hopf = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    for b in range(alg.dim):
        S = hopf.antipode.copy()
        S[b, b] = (S[b, b] + 1) % 3
        with pytest.raises(AlgebraError, match="antipode axiom fails"):
            verify_hopf(replace(alg, hopf=replace(hopf, antipode=S)))


def test_verify_hopf_reads_the_antipode_by_columns():
    # G_a(2) moved along the basis change b_2 -> b_2 + b_1 (b_2 is no
    # generator, so the generators still generate): its antipode gains the
    # entry S[1, 2] = s_1 - s_2 = 1 and is no longer symmetric
    alg, hopf = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=2))
    P = np.eye(alg.dim, dtype=np.int64)
    P[1, 2] = 1  # column j is the image of the new b_j
    Q = np.linalg.inv(P).round().astype(np.int64)
    T = np.einsum("ai,bj,abc,mc->ijm", P, P, alg.tensor, Q) % 3
    C = np.einsum("ai,abc,jb,kc->ijk", P, hopf.coproduct, Q, Q) % 3
    S = Q @ hopf.antipode @ P % 3
    moved = replace(
        alg,
        tensor=T.astype(linalg.DT),
        augmentation=(alg.augmentation @ P % 3).astype(linalg.DT),
        hopf=replace(hopf, coproduct=C.astype(np.int8), antipode=S.astype(linalg.DT)),
    )
    assert not np.array_equal(S, S.T)
    assert _message(verify_hopf, moved) is None
    bad = replace(moved, hopf=replace(moved.hopf, antipode=S.T.astype(linalg.DT)))
    assert _message(verify_hopf, bad).startswith("antipode axiom fails")


def _first_coassociativity_fault(alg):
    """The first basis i, by the loop over the coproduct's terms, at which
    (Delta (x) id) Delta(b_i) != (id (x) Delta) Delta(b_i), or None."""
    cop, p = coproduct_triples(alg), alg.field.p
    for i, terms in enumerate(cop):
        lhs, rhs = Counter(), Counter()
        for j, k, c in terms:
            for a, b, c2 in cop[j]:
                lhs[a, b, k] += c * c2
            for a, b, c2 in cop[k]:
                rhs[j, a, b] += c * c2
        if {t: v % p for t, v in lhs.items() if v % p} != {t: v % p for t, v in rhs.items() if v % p}:
            return i
    return None


def test_verify_hopf_names_the_first_coassociativity_fault():
    # single entries of C changed: verify_hopf names the first b_i that the
    # loop over the coproduct's terms finds not coassociative
    alg, hopf = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=2))
    d, rng, seen = alg.dim, random.Random(4), 0
    for _ in range(40):
        key = tuple(rng.randrange(d) for _ in range(3))
        C = hopf.coproduct.copy()
        C[key] = (C[key] + 1) % 3
        bad = replace(alg, hopf=replace(hopf, coproduct=C))
        i, got = _first_coassociativity_fault(bad), _message(verify_hopf, bad)
        if i is None:
            assert got is None or not got.startswith("coassociativity"), key
        else:
            assert got == f"coassociativity fails at basis {i}", key
            seen += 1
    assert seen >= 10, seen


def _first_coproduct_fault(alg):
    """The message of the first basis i, by the loop over Delta(b_i)'s terms,
    at which (counit (x) id) o coproduct = id fails, or else Delta(b_i) is
    not super-cocommutative; None when both hold."""
    F, par = alg.F, alg.parity
    for i, terms in enumerate(coproduct_triples(alg)):
        acc = alg.el_zero()
        for j, k, c in terms:
            acc[k] = F.add[acc[k], F.mul[F.scalar(c), alg.augmentation[j]]]
        if not np.array_equal(acc, alg.el_basis(i)):
            return f"counit axiom fails at basis {i}"
        cop = {(j, k): c for j, k, c in terms}
        for (j, k), c in cop.items():
            if cop.get((k, j), 0) != (int(F.neg[c]) if par[j] and par[k] else c):
                return f"coproduct of basis {i} is not super-cocommutative at ({j},{k})"
    return None


def test_verify_algebra_rejects_a_wrong_coproduct():
    # one entry of C changed: at C[b, 0, b], which the counit axiom reads,
    # and at 40 random places; verify_algebra names the fault that the loop
    # over the coproduct's terms finds first, or passes where it finds none
    alg, hopf = build_group_algebra(TENSOR_SPEC)
    assert _first_coproduct_fault(alg) is None and _message(verify_algebra, alg) is None
    d, rng = alg.dim, random.Random(3)
    keys = [(b, 0, b) for b in range(d)]
    keys += [tuple(rng.randrange(d) for _ in range(3)) for _ in range(40)]
    seen = set()
    for key in keys:
        C = hopf.coproduct.copy()
        C[key] = (C[key] + 1) % 3
        bad = replace(alg, hopf=replace(hopf, coproduct=C))
        want = _first_coproduct_fault(bad)
        assert _message(verify_algebra, bad) == want, key
        seen.add(want and want.split(" ")[0])
    assert seen == {"counit", "coproduct", None}


def _tables(alg):
    H = alg.hopf
    return (
        alg.dim, alg.parity.tolist(), alg.tensor.tolist(), alg.generators, alg.monomials,
        alg.augmentation.tolist(), H.coproduct.tolist(), H.antipode.tolist(), alg.spec,
    )


@pytest.mark.parametrize("spec", ALL_SPECS + [TENSOR_SPEC], ids=lambda s: s.label())
def test_one_build_serves_every_field(spec):
    base, _ = build_group_algebra(spec)
    assert spec.dim() == base.dim
    assert build_group_algebra(spec)[0] is base
    for n in (2, 3) if spec.p == 3 else (2,):
        F = make_field(spec.p, n)
        alg, hopf = build_group_algebra(spec, F)
        assert alg.field == F and hopf is alg.hopf
        assert build_group_algebra(spec, F)[0] is alg
        assert _tables(alg) == _tables(base)
        verify_algebra(alg)
        verify_hopf(alg)


@pytest.mark.parametrize("spec", ALL_SPECS + [TENSOR_SPEC], ids=lambda s: s.label())
def test_one_tensor_shared_by_every_field(spec):
    base, _ = build_group_algebra(spec)
    T = base.tensor
    assert T.shape == (base.dim,) * 3 and T.dtype == linalg.DT
    assert T.min() >= 0 and T.max() < spec.p  # prime-field indices
    assert not T.flags.writeable
    for n in (2, 3):
        assert build_group_algebra(spec, make_field(spec.p, n))[0].tensor is T


def _el_mul_oracle(alg, x, y):
    """x y by the sparse triple loop over the nonzero structure constants."""
    F = alg.F
    out = alg.el_zero()
    for i in np.nonzero(x)[0]:
        for j in np.nonzero(y)[0]:
            c = F.mul[x[i], y[j]]
            for k, ck in alg.products.get((int(i), int(j)), ()):
                out[k] = F.add[out[k], F.mul[c, ck]]
    return out


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2)], ids=["F3", "F9", "F25"])
def test_el_mul_matches_sparse_oracle(p, n):
    rng = np.random.default_rng(10 * p + n)
    field = make_field(p, n)
    specs = [
        GroupAlgebraSpec("Mrs", p, r=1, s=1, eta=1),
        GroupAlgebraSpec("Mrs", p, r=2, s=1) if p == 3 else GroupAlgebraSpec("GaMinus", p),
        GroupAlgebraSpec("Tensor", p, factors=(GroupAlgebraSpec("Gar", p, r=1),) * 2),
    ]
    for spec in specs:
        alg, _ = build_group_algebra(spec, field)
        d = alg.dim

        def rand(*lead):
            x = rng.integers(0, field.q, size=lead + (d,)).astype(linalg.DT)
            x[rng.random(x.shape) < 0.6] = 0
            return x

        def oracle(X, Y):
            X, Y = np.broadcast_arrays(X, Y)
            flat = [_el_mul_oracle(alg, x, y) for x, y in zip(X.reshape(-1, d), Y.reshape(-1, d))]
            return np.array(flat, dtype=linalg.DT).reshape(X.shape)

        X, Y = rand(3, 1), rand(1, 4)
        X[1] = 0  # a zero element inside a stack
        cases = [
            (X[0, 0], Y[0, 0]),  # single elements
            (X[:, 0], rand(3)),  # stacks, pairwise
            (X, Y),  # broadcast to (3, 4, d)
            (rand(5), Y[0, 1]),  # a stack times one element
            (alg.el_zero(), Y[0, 2]),  # zero factors
            (X[0, 0], alg.el_zero()),
            (rand(0), Y[0, 3]),  # empty stacks
            (rand(0, 2), rand(0, 2)),
        ]
        for x, y in cases:
            got = alg.el_mul(x, y)
            assert got.dtype == linalg.DT
            assert np.array_equal(got, oracle(x, y)), (spec.label(), x.shape, y.shape)


def test_verify_algebra_once_per_spec(monkeypatch):
    # a spec no other test builds, so the first build below is cold
    spec = GroupAlgebraSpec("Mrf", 3, r=1, f=(1, 2), eta=1)
    calls = []
    real = algebra.verify_algebra
    monkeypatch.setattr(algebra, "verify_algebra", lambda alg: calls.append(alg) or real(alg))
    algs = [build_group_algebra(spec, make_field(3, n))[0] for n in (1, 2, 3)]
    assert len(calls) == 1 and calls[0] is algs[0]
    assert [a.field.q for a in algs] == [3, 9, 27]
    assert algs[2].dim == spec.dim() == 18


def test_tensor_cap_checked_before_factors(monkeypatch):
    spec = GroupAlgebraSpec(
        "Tensor", 3, factors=(GroupAlgebraSpec("Mrs", 3, r=2, s=2), GroupAlgebraSpec("Gar", 3, r=2))
    )
    assert spec.dim() == 54 * 9 > DIM_CAP
    calls = []
    real = algebra._build_cached
    monkeypatch.setattr(algebra, "_build_cached", lambda *a: calls.append(a) or real(*a))
    for field in (None, make_field(3, 2)):
        calls.clear()
        with pytest.raises(BoundExceeded):
            build_group_algebra(spec, field)
        assert all(a[0] is spec for a in calls)


def test_augmentation_ideal_nilpotent():
    # the unipotent families are local with nilpotent augmentation ideal;
    # M_{1;s,eta} with eta != 0 is the non-unipotent exception (its u
    # generates a separable subalgebra), so it is excluded here
    from supvar.errors import ValidationError
    from supvar.homalg import _check_local

    for spec in ALL_SPECS:
        if spec.family == "Mrs" and spec.r == 1 and spec.eta:
            continue
        alg, _ = build_group_algebra(spec)
        _check_local(alg)
    bad, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1, eta=2))
    with pytest.raises(ValidationError):
        _check_local(bad)


def test_invalid_f_and_cap():
    with pytest.raises(AlgebraError):
        build_group_algebra(GroupAlgebraSpec("Mrf", 3, r=1, f=(0,)))
    with pytest.raises(BoundExceeded):
        build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=3, s=3))


def test_tensor_unit_factor_is_identity():
    m11, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    triv, _ = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=0))
    T = tensor_algebra(triv, m11)
    assert T.dim == m11.dim
    assert T.tensor.dtype == m11.tensor.dtype
    assert T.tensor.tolist() == m11.tensor.tolist()


def test_tensor_koszul_sign():
    gam, _ = build_group_algebra(GroupAlgebraSpec("GaMinus", 3))
    A = rename_generators(gam, {"v": "v1"})
    B = rename_generators(gam, {"v": "v2"})
    T = tensor_algebra(A, B)
    verify_algebra(T)
    verify_hopf(T)
    v1v2 = T.el_mul(T.el_gen("v1"), T.el_gen("v2"))
    v2v1 = T.el_mul(T.el_gen("v2"), T.el_gen("v1"))
    assert np.any(v1v2)
    assert np.array_equal(v1v2, T.F.neg[v2v1])


def test_tensor_ga1_gaminus_is_m11_as_algebra():
    # kG_{a(1)} (x) kG_a^- has the same structure constants as kM_{1;1}
    ga1, _ = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=1))
    gam, _ = build_group_algebra(GroupAlgebraSpec("GaMinus", 3))
    T = tensor_algebra(rename_generators(ga1, {"u0": "s"}), rename_generators(gam, {"v": "t"}))
    m11, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    # identify basis gamma_i (x) v^e (T index i*2+e) with m11 index e*3+i
    tmap = {}
    for i in range(3):
        for e in range(2):
            tmap[i * 2 + e] = e * 3 + i
    perm = [t for t, _ in sorted(tmap.items(), key=lambda item: item[1])]
    assert T.tensor[np.ix_(perm, perm, perm)].tolist() == m11.tensor.tolist()


M11, GA1, GAM = ALL_SPECS[0], ALL_SPECS[6], ALL_SPECS[8]
TENSOR_SPECS = [
    TENSOR_SPEC,
    GroupAlgebraSpec("Tensor", 3, factors=(GAM, GA1)),
    GroupAlgebraSpec("Tensor", 3, factors=(GA1, GA1)),
    GroupAlgebraSpec("Tensor", 5, factors=(GroupAlgebraSpec("Gar", 5, r=1),) * 2),
    GroupAlgebraSpec("Tensor", 3, factors=(GAM, GAM)),
    GroupAlgebraSpec("Tensor", 3, factors=(M11, GroupAlgebraSpec("TruncEven", 3, t=1))),
    GroupAlgebraSpec("Tensor", 3, factors=(M11, GAM)),
    GroupAlgebraSpec("Tensor", 3, factors=(M11, GA1, GroupAlgebraSpec("TruncEven", 3, t=1))),
    # three factors with odd basis elements in two, and p = 5 with odd ones in both
    GroupAlgebraSpec("Tensor", 3, factors=(M11, GAM, GA1)),
    GroupAlgebraSpec("Tensor", 5, factors=(GroupAlgebraSpec("Mrs", 5, r=1, s=1),) * 2),
    GroupAlgebraSpec("Tensor", 5, factors=(GroupAlgebraSpec("GaMinus", 5),) * 3),
]


@pytest.mark.parametrize("spec", TENSOR_SPECS, ids=lambda s: f"{s.label()}-p{s.p}")
def test_tensor_coproduct_matches_the_term_loop(spec):
    # the Koszul outer product against the loop over pairs of terms that it
    # replaced, folded over the factors
    alg, hopf = build_group_algebra(spec)
    C = hopf.coproduct
    assert C.shape == (alg.dim,) * 3 and C.dtype == np.int8 and not C.flags.writeable
    factors = [build_group_algebra(f)[0] for f in spec.factors]
    assert coproduct_triples(alg) == tensor_coproduct(alg.F, factors)


def test_tensor_field_mismatch():
    a, _ = build_group_algebra(GroupAlgebraSpec("GaMinus", 3))
    b, _ = build_group_algebra(GroupAlgebraSpec("GaMinus", 3), make_field(3, 2))
    with pytest.raises(AlgebraError):
        tensor_algebra(rename_generators(a, {"v": "x"}), b)


def test_spec_json_roundtrip():
    for spec in ALL_SPECS:
        assert GroupAlgebraSpec.from_json(spec.to_json()) == spec
    t = GroupAlgebraSpec(
        "Tensor", 3, factors=(ALL_SPECS[0], GroupAlgebraSpec("TruncEven", 3, t=1))
    )
    assert GroupAlgebraSpec.from_json(t.to_json()) == t
    with pytest.raises(ValidationError):
        GroupAlgebraSpec.from_json({"family": "Nope", "p": 3})


QUOTIENT_SPECS = [
    GroupAlgebraSpec("Mrs", 3, r=1, s=1),
    GroupAlgebraSpec("Mrs", 3, r=2, s=2),
    GroupAlgebraSpec("Mrs", 3, r=1, s=3, eta=2),
    GroupAlgebraSpec("Mrs", 5, r=2, s=1, eta=3),
    GroupAlgebraSpec("Mrs", 7, r=1, s=1),
    GroupAlgebraSpec("Mrf", 3, r=2, f=(1, 2), eta=1),
    GroupAlgebraSpec("Mrf", 5, r=1, f=(3, 1), eta=4),
]


@pytest.mark.parametrize("spec", QUOTIENT_SPECS, ids=lambda s: s.label())
def test_quotient_tensor_matches_gamma_product(spec):
    # the tensor of M_{r;f,eta} against all d^2 basis products formed one at
    # a time by gamma_product and reduced by the quotient's normal form
    p, r = spec.p, spec.r
    n_gamma, normal_form = algebra._quotient_reducer(p, r, spec.fcoeffs(), spec.eta)
    dim = 2 * n_gamma
    xs = [2 * (i % n_gamma) + (i >= n_gamma) for i in range(dim)]  # P_r element of basis index i
    T = np.zeros((dim,) * 3, dtype=linalg.DT)
    for i in range(dim):
        for j in range(dim):
            for x, c in gamma_product(p, r, xs[i], xs[j]).terms.items():
                for k, ck in normal_form(x >> 1).items():
                    tgt = k + n_gamma * (x & 1)
                    T[i, j, tgt] = (T[i, j, tgt] + c * ck) % p
    alg, _ = build_group_algebra(spec)
    assert alg.tensor.dtype == T.dtype and np.array_equal(alg.tensor, T)


@pytest.mark.parametrize("p", [0, 1, 2, 4, 11, -3])
def test_spec_p_checked_at_parse_time(p):
    with pytest.raises(ValidationError):
        GroupAlgebraSpec.from_json({"family": "Mrs", "p": p, "r": 1, "s": 1})


# -- classification -------------------------------------------------------


def test_classify_round_trip_all_small_specs():
    specs = [GroupAlgebraSpec("GaMinus", 3)]
    for r in (1, 2):
        specs.append(GroupAlgebraSpec("Gar", 3, r=r))
        for s in (1, 2):
            for eta in (0, 1, 2):
                specs.append(GroupAlgebraSpec("Mrs", 3, r=r, s=s, eta=eta))
    for spec in specs:
        alg, _ = build_group_algebra(spec)
        label = classify_quotient(canonical_quotient_morphism(alg))
        assert label.to_spec(3) == spec, spec.label()


def test_classify_gaminus_and_trivial():
    gam, _ = build_group_algebra(GroupAlgebraSpec("GaMinus", 3))
    pres = PrPresentation(3, 1)
    phi = SuperalgebraMorphism(pres, gam, {"u0": gam.el_zero(), "v": gam.el_gen("v")})
    assert classify_quotient(phi).kind == "GaMinus"
    triv, _ = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=0))
    phi = SuperalgebraMorphism(pres, triv, {"u0": triv.el_zero(), "v": triv.el_zero()})
    lab = classify_quotient(phi)
    assert lab.kind == "Gar" and lab.r == 0


def test_classify_eta_example():
    # P_1 -> P_1/(u^p - c u) with c = 1 is M_{1;1,-1} = M_{1;1,2} over F_3
    alg, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1, eta=2))
    label = classify_quotient(canonical_quotient_morphism(alg))
    assert label.kind == "Mrf" and label.f == (1,) and label.eta == 2
    assert label.text(F3) == "M_{1;1,2}"


def test_classify_rejects_non_hopf():
    m11, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    s = m11.el_gen("u0")
    bad = m11.el_add(s, m11.el_mul(s, s))  # s + s^2 is not primitive
    phi = SuperalgebraMorphism(PrPresentation(3, 1), m11, {"u0": bad, "v": m11.el_gen("v")})
    with pytest.raises(ValidationError):
        classify_quotient(phi)


def test_classify_rejects_non_surjective():
    m11, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    phi = SuperalgebraMorphism(
        PrPresentation(3, 1), m11, {"u0": m11.el_zero(), "v": m11.el_gen("v")}
    )
    with pytest.raises(ValidationError):
        classify_quotient(phi)


def test_morphism_full_matrix():
    # the canonical quotient kM_{1;2} ->> kM_{1;1}, u0 -> u0 and v -> v, is
    # an algebra map: the pullback of kM_{1;1}'s regular module is a
    # kM_{1;2}-module, and as that module is faithful the test is exact.
    # The same assignment the other way is not (u^3 = 0 only in kM_{1;1})
    m12, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=2))
    m11, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    out = pullback(regular_module(m11), m12, {g: m11.el_gen(g) for g in m12.generators})
    assert out.algebra is m12 and out.dim == m11.dim
    with pytest.raises(ValidationError, match="the action of u0"):
        pullback(regular_module(m12), m11, {g: m12.el_gen(g) for g in m11.generators})


def test_classify_eta_rescaling_under_dilation():
    # composing with u -> a u, v -> mu v (a^p = mu^2) rescales eta by
    # a^{p^{r+s-1}-1}; over F_9 this moves eta off the prime field
    F9 = make_field(3, 2)
    alg, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1, eta=2), F9)
    base = canonical_quotient_morphism(alg)
    for a in elements(F9):
        if a.is_zero():
            continue
        mu_sq = a**3
        mus = [m for m in elements(F9) if (m * m).index == mu_sq.index]
        if not mus:
            continue
        mu = mus[0]
        import supvar.linalg as la

        F = la.tables(F9)
        phi = SuperalgebraMorphism(
            base.source,
            alg,
            {
                "u0": F.mul[a.index, base.images["u0"]],
                "v": F.mul[mu.index, base.images["v"]],
            },
        )
        label = classify_quotient(phi)
        want = (F9.element(2) * a * a).index
        assert label.kind == "Mrf" and label.f == (1,) and label.eta == want


def test_classify_strips_leading_zero_generator():
    # P_2 ->> kM_{1;1} through u_0 -> 0 classifies as M_{1;1}
    m11, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=1))
    phi = SuperalgebraMorphism(
        PrPresentation(3, 2),
        m11,
        {"u0": m11.el_zero(), "u1": m11.el_gen("u0"), "v": m11.el_gen("v")},
    )
    label = classify_quotient(phi)
    assert label.kind == "Mrf" and label.r == 1 and label.f == (1,) and label.eta == 0


def _message(check, *args):
    """The AlgebraError message of a check, or None when it passes."""
    try:
        check(*args)
    except AlgebraError as err:
        return str(err)
    return None


def _old_verify_algebra(alg):
    """What verify_algebra checked on the tensor before its generator path:
    every basis triple, the augmentation on every pair, and parity."""
    verify_associative_d3(alg)
    verify_augmentation_pairs(alg)
    ijk = np.argwhere(alg.tensor)
    if (alg.parity[ijk[:, 2]] != alg.parity[ijk[:, :2]].sum(axis=1) % 2).any():
        raise AlgebraError("parity not multiplicative")


def _first_bad_monomial(alg):
    """The first basis index whose stored monomial, multiplied out letter by
    letter through the sparse el_mul oracle, is not that basis element."""
    for i, (c, mon) in enumerate(alg.monomials):
        out = alg.el_unit()
        for g, e in mon:
            for _ in range(e):
                out = _el_mul_oracle(alg, out, alg.el_gen(g))
        if not np.array_equal(alg.el_scale(c, out), alg.el_basis(i)):
            return i
    return None


def _first_bad_generator_triple(alg):
    """The first (x, y, g) with (b_x b_y) b_g != b_x (b_y b_g), g a generator,
    from the dense tensor of prime-field entries."""
    T, gens = alg.tensor.astype(np.int64), sorted(alg.generators.values())
    lhs = np.einsum("xym,mgk->xygk", T, T[:, gens]) % alg.field.p
    rhs = np.einsum("ygn,xnk->xygk", T[:, gens], T) % alg.field.p
    bad = np.argwhere((lhs != rhs).any(axis=-1))
    return (int(bad[0, 0]), int(bad[0, 1]), gens[bad[0, 2]]) if bad.size else None


@pytest.mark.parametrize(
    "spec",
    [
        GroupAlgebraSpec("Mrs", 3, r=1, s=1),
        GroupAlgebraSpec("Gar", 3, r=2),
        GroupAlgebraSpec("Mrs", 3, r=2, s=1),
        TENSOR_SPEC,
    ],
    ids=lambda s: s.label(),
)
def test_verify_algebra_matches_el_mul_oracle(spec):
    # single-entry mutants that keep the unit axiom: each nonzero entry plus
    # one, and 300 entries set to 1.  verify_algebra rejects what the d^3
    # oracle rejects, and besides only tensors that no longer match the
    # stored monomials, multiplied out by the sparse el_mul oracle; it
    # names the first failing (x, y, g).
    base, _ = build_group_algebra(spec)
    assert _old_verify_algebra(base) is None and _message(verify_algebra, base) is None
    d, u = base.dim, 0
    rng = random.Random(7)
    edits = [(tuple(k), (base.tensor[tuple(k)] + 1) % 3) for k in np.argwhere(base.tensor)]
    edits += [(tuple(rng.randrange(d) for _ in range(3)), 1) for _ in range(300)]
    seen = set()
    for key, v in edits:
        if u in key[:2] or base.tensor[key] == v:
            continue
        T = base.tensor.copy()
        T[key] = v
        bad = replace(base, tensor=T)
        got, old = _message(verify_algebra, bad), _message(_old_verify_algebra, bad)
        i = _first_bad_monomial(bad)
        if i is not None:
            assert got == f"basis {i} is not its monomial", key
            seen.add("premise" if old is None else "premise, non-associative")
            continue
        assert (got is None) == (old is None), (key, got, old)
        xyg = _first_bad_generator_triple(bad)
        if xyg is not None:
            assert got == "associativity fails at ({},{},{})".format(*xyg), key
            seen.add("associativity")
    assert {"premise, non-associative", "associativity"} <= seen
    # a wrong counit value: the augmentation check agrees with the all-pairs one
    for b in range(d):
        aug = base.augmentation.copy()
        aug[b] = (aug[b] + 1) % 3
        bad = replace(base, augmentation=aug)
        got = _message(verify_algebra, bad)
        assert got is not None and got.startswith("augmentation not multiplicative at")
        assert _message(verify_augmentation_pairs, bad) is not None


@pytest.mark.parametrize("spec", ALL_SPECS + [TENSOR_SPEC], ids=lambda s: s.label())
def test_swapped_monomials_fail_the_premise(spec):
    base, _ = build_group_algebra(spec)
    i, j = base.dim - 2, base.dim - 1
    mons = list(base.monomials)
    mons[i], mons[j] = mons[j], mons[i]
    with pytest.raises(AlgebraError, match=f"^basis {i} is not its monomial$"):
        verify_algebra(replace(base, monomials=tuple(mons)))


def _twisted_coproduct(alg, k, l):
    """(phi (x) phi) Delta phi^{-1} for phi: b_k -> b_k + b_l, the identity on
    the other basis elements.  With b_k, b_l in the radical and of equal
    parity it is coassociative, counital and super-cocommutative, but
    multiplicative only if phi is an algebra map."""
    p, C = alg.field.p, alg.hopf.coproduct.astype(np.int64)
    phi = np.eye(alg.dim, dtype=np.int64)
    phi[l, k] = 1  # column k is phi(b_k) = b_k + b_l
    C[k] -= C[l]  # phi^{-1}(b_k) = b_k - b_l
    cop = np.einsum("aj,ijk,bk->iab", phi, C, phi) % p
    return replace(alg, hopf=replace(alg.hopf, coproduct=cop.astype(np.int8)))


@pytest.mark.parametrize(
    "spec",
    [GroupAlgebraSpec("Mrs", 3, r=1, s=1), GroupAlgebraSpec("Gar", 3, r=2), TENSOR_SPEC],
    ids=lambda s: s.label(),
)
def test_verify_hopf_matches_all_pairs_oracle(spec):
    base, _ = build_group_algebra(spec)
    assert _message(verify_hopf, base) is None
    assert _message(verify_coproduct_pairs, base) is None
    # twist by b_k -> b_k + b_l, b_k a generator with b_k^2 != 0 and b_l the
    # first basis element in b_k^2 (adding a socle element could leave phi
    # an algebra map, and Delta multiplicative)
    squares = {i: base.el_mul(base.el_basis(i), base.el_basis(i)) for i in base.generators.values()}
    k = min(i for i, sq in squares.items() if sq.any())
    l = int(np.flatnonzero(squares[k])[0])
    bad = _twisted_coproduct(base, k, l)
    assert _message(verify_algebra, bad) is None  # counit and cocommutativity hold
    got = _message(verify_hopf, bad)
    assert got is not None and got.startswith("coproduct not multiplicative at (")
    # the same tables over F_{p^3}: the same refusal
    assert _message(verify_hopf, replace(bad, field=make_field(spec.p, 3))) == got
    assert _message(verify_coproduct_pairs, bad) is not None
    # the pair it names is broken: Delta(b_x b_g) != Delta(b_x) Delta(b_g),
    # with b_g a generator or the unit
    x, g = map(int, got[got.index("(") + 1 : -1].split(","))
    assert g in {*base.generators.values(), 0}
    F, cop = bad.F, coproduct_triples(bad)
    want = {}
    for m, c in bad.products.get((x, g), ()):
        for a, b, c2 in cop[m]:
            want[a, b] = int(F.add[want.get((a, b), 0), F.mul[c, F.scalar(c2)]])
    t1, t2 = ({(a, b): F.scalar(c) for a, b, c in cop[i]} for i in (x, g))
    assert _tensor_square_product(bad, t1, t2) != {ab: c for ab, c in want.items() if c}


@pytest.mark.parametrize("spec", ALL_SPECS + [TENSOR_SPEC], ids=lambda s: s.label())
def test_locality_layers_match_the_radical_oracle(spec):
    from supvar.homalg import _check_local

    alg, _ = build_group_algebra(spec)
    try:
        want = radical_layers(alg)
    except ValidationError:
        with pytest.raises(ValidationError, match="not local"):
            _check_local(alg)
        return
    assert _check_local(alg) == want
    assert want[0] == alg.dim - 1 and want[-1] == 0


