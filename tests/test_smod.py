"""Supermodules: validation, functors, the L-family, random generation."""

import random
import re

import numpy as np
import pytest

from supvar.errors import ValidationError
from oracles.module_oracle import is_module_dense
from oracles.points_oracle import elements
from supvar.gfield import make_field
import supvar.linalg as la
from supvar.smod import (
    SuperModule,
    build_L,
    dual_module,
    extend_scalars,
    free_over_cyclic,
    module_from_json,
    module_to_json,
    parity_shift,
    pullback,
    p1_view,
    p1_view_from_module,
    random_module,
    regular_module,
    restrict_module,
    tensor_module,
    trivial_module,
    validate_module,
)
from supvar.superalg.algebra import GroupAlgebraSpec, build_group_algebra

F3 = make_field(3, 1)
M11_SPEC = GroupAlgebraSpec("Mrs", 3, r=1, s=1)


def m11():
    return build_group_algebra(M11_SPEC)[0]


def test_validate_trivial_and_parity_flip():
    A = m11()
    k = trivial_module(A)
    validate_module(k)
    L = build_L(F3.element(0), F3.element(1))
    # a global parity reversal is just Pi(L) and stays valid
    flipped = SuperModule(A, L.dim, (1 - L.parity).astype(np.int8), L.action)
    validate_module(flipped)
    # an all-even parity vector breaks the odd generator's action
    bad = SuperModule(A, L.dim, np.zeros(L.dim, dtype=np.int8), L.action)
    with pytest.raises(ValidationError, match="parity mismatch"):
        validate_module(bad)


def test_build_L_formulas():
    L = build_L(F3.element(0), F3.element(1))
    validate_module(L)
    assert L.dim == 6
    assert L.action["v"][5, 0] == 1  # t.x_0 = y_2
    assert not np.any(L.action["u0"][:, 0])  # s.x_0 = 0
    L = build_L(F3.element(1), F3.element(0))
    assert L.action["u0"][1, 0] == F3.element(-1).index  # s.x_0 = -x_1
    assert not np.any(L.action["v"][:, 0])
    with pytest.raises(ValidationError):
        build_L(F3.element(0), F3.element(0))


def test_pullback_identity_and_relation_failure():
    A = m11()
    L = build_L(F3.element(0), F3.element(1))
    same = pullback(L, A, {g: A.el_gen(g) for g in A.generators})
    assert all(np.array_equal(same.action[g], L.action[g]) for g in A.generators)
    # u -> t is not an algebra map image assignment (parity mismatch)
    with pytest.raises(ValidationError, match="parity mismatch"):
        pullback(L, A, {"u0": A.el_gen("v"), "v": A.el_gen("v")})
    # u -> u + 1 keeps the parity but not u^3 = 0: the regular module,
    # which is faithful, rejects it
    with pytest.raises(ValidationError, match="the action of u0"):
        u_plus_1 = A.el_add(A.el_unit(), A.el_gen("u0"))
        pullback(regular_module(A), A, {"u0": u_plus_1, "v": A.el_gen("v")})


def test_pullback_point_morphism():
    # L_{(0,1)} pulled to M11 itself along u -> c s, v -> d t at (d,c) = (0,1)
    A = m11()
    L = build_L(F3.element(0), F3.element(1))
    out = pullback(L, A, {"u0": A.el_gen("u0"), "v": A.el_zero()})
    assert np.array_equal(out.action["u0"], L.action["u0"])
    assert not np.any(out.action["v"])


def test_tensor_with_trivial_is_identity():
    A = m11()
    L = build_L(F3.element(1), F3.element(1))
    T = tensor_module(L, trivial_module(A))
    assert T.dim == L.dim
    for g in A.generators:
        assert np.array_equal(T.action[g], L.action[g])


def test_tensor_relation_symbolic():
    # over P_1 structures: (V(x)1 + pi(x)V)^2 = -(U(x)1 + 1(x)U)^p
    from supvar.smod import p1_tensor

    L = build_L(F3.element(1), F3.element(2))
    V = p1_view_from_module(L)
    T = p1_tensor(V, V)
    T.validate()


def test_tensor_dims_and_validity():
    L1 = build_L(F3.element(0), F3.element(1))
    L2 = build_L(F3.element(1), F3.element(0))
    T = tensor_module(L1, L2)
    validate_module(T)
    assert T.dim == 36


def test_dual_module_and_evaluation():
    A = m11()
    k = trivial_module(A)
    D = dual_module(k)
    validate_module(D)
    assert D.dim == 1
    M = random_module(5, A, 4)
    DM = dual_module(M)
    validate_module(DM)
    # evaluation M^# (x) M -> k is a module map: it kills the augmentation
    # ideal action on the coevaluation-dual pairing
    T = tensor_module(DM, M)
    F = A.F
    ev = la.zeros(1, T.dim)
    for a in range(M.dim):
        ev[0, a * M.dim + a] = 1
    for g in A.generators:
        out = la.matmul(F, ev, T.action[g])
        assert not np.any(out), f"evaluation not equivariant for {g}"


def test_parity_shift():
    L = build_L(F3.element(1), F3.element(1))
    P = parity_shift(L, "Pi")
    PP = parity_shift(P, "Pi")
    assert np.array_equal(PP.parity, L.parity)
    assert all(np.array_equal(PP.action[g], L.action[g]) for g in L.action)
    B = parity_shift(L, "boldPi")
    assert np.array_equal(B.action["v"], L.F.neg[L.action["v"]])
    assert np.array_equal(B.action["u0"], L.action["u0"])
    # boldPi over GaMinus negates the V matrix
    gam, _ = build_group_algebra(GroupAlgebraSpec("GaMinus", 3))
    R = regular_module(gam)
    BR = parity_shift(R, "boldPi")
    assert np.array_equal(BR.action["v"], R.F.neg[R.action["v"]])
    # v -> pi v is an odd isomorphism M ~ boldPi(M): the actions differ by (-1)^{|a|}
    for g in L.action:
        sign = -1 if L.algebra.gen_parity(g) else 1
        want = L.action[g] if sign == 1 else L.F.neg[L.action[g]]
        assert np.array_equal(parity_shift(L, "boldPi").action[g], want)


def test_free_over_cyclic():
    ga1, _ = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=1))
    reg = regular_module(ga1)
    assert free_over_cyclic(reg, reg.action["u0"], 3)
    k = trivial_module(ga1)
    assert not free_over_cyclic(k, la.zeros(1, 1), 3)
    L = build_L(F3.element(1), F3.element(0))
    assert free_over_cyclic(L, L.action["u0"], 3)  # mu != 0: free over k[u]/u^p
    with pytest.raises(ValidationError):
        free_over_cyclic(reg, reg.action["u0"], 2)  # X^2 != 0


def test_free_over_cyclic_jordan_oracle():
    # free over k[x]/x^m iff every Jordan block has size exactly m
    from itertools import combinations_with_replacement

    ga1, _ = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=1))
    for m in (2, 3):
        for nblocks in range(1, 7):
            for blocks in combinations_with_replacement(range(1, m + 1), nblocks):
                if sum(blocks) > 6:
                    continue
                dim = sum(blocks)
                X = la.zeros(dim, dim)
                pos = 0
                for b in blocks:
                    for i in range(b - 1):
                        X[pos + i + 1, pos + i] = 1
                    pos += b
                M = SuperModule(ga1, dim, np.zeros(dim, dtype=np.int8), {"u0": X})
                assert free_over_cyclic(M, X, m) == all(b == m for b in blocks)


def test_random_module_deterministic_and_valid():
    A = m11()
    mods = [random_module(seed, A, 6) for seed in range(100)]
    for M in mods:
        assert 1 <= M.dim <= 6
        validate_module(M)
    again = random_module(42, A, 6)
    ref = mods[42]
    assert again.dim == ref.dim
    assert all(np.array_equal(again.action[g], ref.action[g]) for g in ref.action)


def test_random_module_dim_bound_one():
    A = m11()
    M = random_module(0, A, 1)
    assert M.dim == 1
    assert all(not np.any(M.action[g]) for g in M.action)  # k or Pi(k)


def test_extend_scalars():
    F9 = make_field(3, 2)
    L = build_L(F3.element(0), F3.element(1))
    L9 = extend_scalars(L, F9)
    assert L9.algebra.field is F9
    validate_module(L9)
    assert np.array_equal(L9.action["u0"], L.action["u0"])


def test_restrict_module():
    A = m11()
    L = build_L(F3.element(1), F3.element(1))
    ga1, _ = build_group_algebra(GroupAlgebraSpec("Gar", 3, r=1))
    sub = restrict_module(L, ga1, {"u0": "u0"})
    validate_module(sub)
    assert sub.dim == L.dim


def test_pullback_tensor_functoriality():
    # pulling back along a Hopf map commutes with tensor products
    A = m11()
    m12, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=2))
    images = {"u0": A.el_gen("u0"), "v": A.el_gen("v")}
    pullback(regular_module(A), m12, images)  # faithful: an algebra map
    for s1, s2 in ((1, 2), (3, 4), (5, 8)):
        M, N = random_module(s1, A, 4), random_module(s2, A, 4)
        lhs = pullback(tensor_module(M, N), m12, images)
        rhs = tensor_module(pullback(M, m12, images), pullback(N, m12, images))
        assert all(np.array_equal(lhs.action[g], rhs.action[g]) for g in m12.generators)


def test_concurrent_support_computation():
    # modules and algebras are shared immutably; parallel support runs must
    # agree with the serial answer
    from concurrent.futures import ThreadPoolExecutor

    from supvar.superalg.algebra import GroupAlgebraSpec as GS
    from supvar.varieties import support_set

    spec = GS("Mrs", 3, r=1, s=1)
    L = build_L(F3.element(1), F3.element(1))
    serial = support_set(spec, L, F3).points.tolist()
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: support_set(spec, L, F3), range(8)))
    for sup in results:
        assert sup.points.tolist() == serial


def test_support_line_p5():
    from supvar.superalg.algebra import GroupAlgebraSpec as GS
    from supvar.varieties import support_set

    F5 = make_field(5, 1)
    spec = GS("Mrs", 5, r=1, s=1)
    mu, a = F5.element(1), F5.element(1)
    L = build_L(mu, a**5)
    assert L.dim == 10
    got = {tuple(p) for p in support_set(spec, L, F5).points.tolist()}
    want = {
        (d.index, c.index)
        for d in elements(F5)
        for c in elements(F5)
        if ((a**5) * d * d).index == ((c**5) * mu * mu).index
    }
    assert got == want and len(got) == 5


def test_module_json_roundtrip():
    L = build_L(F3.element(1), F3.element(2))
    data = module_to_json(L)
    assert data["parity"] == sorted(data["parity"])  # even block first
    assert set(data["action"]) == {"s", "t"}  # aliased names for r = 1
    back = module_from_json(data)
    assert isinstance(back, SuperModule) and back.dim == L.dim
    # round trip again is stable
    assert module_to_json(back) == data
    bad = dict(data)
    bad["parity"] = [7] * L.dim
    with pytest.raises(ValidationError):
        module_from_json(bad)


def test_p1_module_json():
    data = {
        "group": {"family": "P1", "p": 3},
        "field": "3^1",
        "dim": 1,
        "parity": [0],
        "action": {"u": [["0"]], "v": [["0"]]},
    }
    view = module_from_json(data)
    view.validate()
    assert view.dim == 1


def test_p1_view_invariants():
    with pytest.raises(ValidationError):
        # U not commuting with V
        p1_view(
            F3,
            [0, 1],
            la.from_int_matrix(la.tables(F3), [[0, 0], [0, 1]]),
            la.from_int_matrix(la.tables(F3), [[0, 1], [0, 0]]),
        )


def _per_family_view(M):
    """The canonical P_1-view picked family by family: U is the action of
    u_{r-1} (zero for G_a^-), V the action of v (zero for G_a(r))."""
    spec, zero = M.algebra.spec, la.zeros(M.dim, M.dim)
    U = zero if spec.family == "GaMinus" else M.action[f"u{spec.r - 1}"]
    V = zero if spec.family == "Gar" else M.action["v"]
    return p1_view(M.field, M.parity.copy(), U.copy(), V.copy())


CANONICAL_VIEW_SPECS = [
    M11_SPEC,
    GroupAlgebraSpec("Mrs", 3, r=1, s=2),
    GroupAlgebraSpec("Mrs", 3, r=2, s=1),
    GroupAlgebraSpec("Mrs", 3, r=1, s=1, eta=1),
    GroupAlgebraSpec("Mrs", 3, r=2, s=1, eta=2),
    GroupAlgebraSpec("Mrf", 3, r=1, eta=1, f=(2, 1)),  # not local: some u0 are not nilpotent
    GroupAlgebraSpec("Gar", 3, r=1),
    GroupAlgebraSpec("Gar", 3, r=2),
    GroupAlgebraSpec("Gar", 3, r=3),
    GroupAlgebraSpec("GaMinus", 3),
    GroupAlgebraSpec("Mrs", 5, r=1, s=1),
]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("spec", CANONICAL_VIEW_SPECS, ids=lambda s: s.label())
def test_canonical_view_is_the_per_family_pick(spec, n):
    # the pullback at the canonical images, against the actions read off by
    # family: the same view, or the same refusal
    alg = build_group_algebra(spec, make_field(spec.p, n))[0]
    for seed in range(6):
        M = random_module(seed, alg, 6)
        try:
            want = _per_family_view(M)
        except ValidationError as e:
            with pytest.raises(ValidationError, match=f"^{re.escape(str(e))}$"):
                p1_view_from_module(M)
            continue
        got = p1_view_from_module(M)
        assert (got.field, got.dim) == (want.field, want.dim)
        for attr in ("parity", "U", "V"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), (seed, attr)


GS = GroupAlgebraSpec
GA1, GAM, GAM5 = GS("Gar", 3, r=1), GS("GaMinus", 3), GS("GaMinus", 5)
MODULE_CHECK_SPECS = [
    (M11_SPEC, 1),
    (M11_SPEC, 2),
    (GS("Mrs", 3, r=1, s=2), 2),
    (GS("Mrs", 3, r=2, s=1), 1),
    (GS("Mrs", 3, r=1, s=1, eta=2), 2),
    (GS("Mrs", 3, r=2, s=1, eta=1), 1),
    (GS("Mrf", 3, r=1, eta=1, f=(2, 1)), 1),  # not local
    (GS("Mrf", 3, r=1, f=(1, 1)), 2),
    (GA1, 2),
    (GS("Gar", 3, r=2), 1),
    (GAM, 2),
    (GS("TruncEven", 3, t=1), 1),
    (GS("TruncEven", 3, t=2), 2),
    (GS("Mrs", 5, r=1, s=1), 1),
    (GS("Mrs", 5, r=1, s=1, eta=2), 2),
    (GAM5, 2),
    (GS("Tensor", 3, factors=(M11_SPEC, GAM)), 1),
    (GS("Tensor", 3, factors=(GA1, GA1)), 2),
    (GS("Tensor", 5, factors=(GAM5,) * 3), 1),
]


def _single_entry_edits(M, rng, count):
    """Copies of M with one action entry changed, each at a place where the
    generator's parity allows a nonzero entry."""
    A, q = M.algebra, M.field.q
    gens = list(A.generators)
    for _ in range(count if gens else 0):
        g = gens[rng.randrange(len(gens))]
        rows, cols = np.nonzero(M.parity[:, None] == (M.parity[None, :] + A.gen_parity(g)) % 2)
        if not rows.size:
            continue
        at = rng.randrange(rows.size)
        i, j = rows[at], cols[at]
        X = M.action[g].copy()
        X[i, j] = (X[i, j] + rng.randrange(1, q)) % q
        yield SuperModule(A, M.dim, M.parity.copy(), {**M.action, g: X})


@pytest.mark.parametrize(
    "spec, n", MODULE_CHECK_SPECS, ids=[f"{s.label()}-F{s.p}^{n}" for s, n in MODULE_CHECK_SPECS]
)
def test_validate_module_matches_the_dense_oracle(spec, n):
    # seeded random modules, the regular module, and single-entry edits of
    # them that keep the parity: the check against kG's product accepts
    # exactly the modules that the dense pairwise check accepts
    alg = build_group_algebra(spec, make_field(spec.p, n))[0]
    rng, seen = random.Random(f"{spec}-{n}"), set()
    for M in [*(random_module(seed, alg, 5) for seed in range(4)), regular_module(alg)]:
        for N in [M, *_single_entry_edits(M, rng, 16)]:
            want = is_module_dense(N)
            try:
                validate_module(N)
                got = True
            except ValidationError:
                got = False
            assert got == want, {g: X.tolist() for g, X in N.action.items()}
            seen.add(got)
    assert seen == {True, False}
