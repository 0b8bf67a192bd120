"""The acceptance suite: one test per criterion, every check exact.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.  Everything here is exact arithmetic; there are no tolerances to
tune, a criterion either holds on the nose or fails.
"""

import random

import numpy as np
import pytest

from oracles.algebra_oracle import coproduct_triples
from oracles.dual_oracle import km_r_dual_oracle
from oracles.points_oracle import elements
from supvar.gfield import make_field
import supvar.linalg as la
from supvar.smod import (
    build_L,
    extend_scalars,
    p1_trivial,
    p1_view,
    p1_view_from_module,
    random_module,
    restrict_module,
    tensor_module,
)
from supvar.superalg.algebra import GroupAlgebraSpec, build_group_algebra
from supvar.superalg.morphisms import canonical_quotient_morphism, classify_quotient
from supvar.homalg import (
    PD_INFINITE,
    carlson_module,
    cocycle_from_values,
    cup_y_square,
    ext_dims,
    pd_class,
    resolution_of_trivial,
)
from supvar.varieties import (
    admissible_scalings,
    enumerate_points,
    m11_subgroup_embeddings,
    monoid_scale,
    point_pullback,
    psi_map,
    psi_target_points,
    render_points,
    support_set,
    family_points,
)

F3 = make_field(3, 1)
F9 = make_field(3, 2)
M11 = GroupAlgebraSpec("Mrs", 3, r=1, s=1)
M21 = GroupAlgebraSpec("Mrs", 3, r=2, s=1)
M12 = GroupAlgebraSpec("Mrs", 3, r=1, s=2)

L_PARAMS = ((0, 1), (1, 0), (1, 1), (1, 2))


def _passed(n, text):
    print(f"criterion {n:2d}: PASS  {text}")


def _L(mu_i, a_i):
    return build_L(F3.element(mu_i), F3.element(a_i) ** 3)


def _line_points(field, mu, a):
    """F_q points of the weighted affine line a^p x^2 = mu^2 y."""
    out = set()
    for x in elements(field):
        for y in elements(field):
            if ((a**3) * x * x).index == (mu * mu * y).index:
                out.add((x.index, y.index))
    return out


def _rows(pts):
    """The points of an index array, as a set of int tuples."""
    return {tuple(pt) for pt in pts.tolist()}


def _support_keys(spec, M, field):
    return _rows(support_set(spec, M, field).points)


def test_criterion_01_ext_kk():
    for p in (3, 5):
        k = p1_trivial(make_field(p, 1))
        t = ext_dims(k, k, 10)
        assert t.dims[0] == (1, 0)
        assert all(t.dims[i] == (1, 1) for i in range(1, 11))
    _passed(1, "Ext_{P_1}(k,k) = (1|0),(1|1)x10 for p in {3,5}")


def test_criterion_02_l_module_supports():
    for field in (F3, F9):
        for mu_i, a_i in L_PARAMS:
            mu, a = field.element(mu_i), field.element(a_i)
            L = _L(mu_i, a_i)
            got = _support_keys(M11, L, field)
            want = {
                (d.index, c.index)
                for d in elements(field)
                for c in elements(field)
                if ((a**3) * d * d).index == ((c**3) * mu * mu).index
            }
            assert got == want, (field.encode(), mu_i, a_i)
    _passed(2, "support(L_{(mu,a^p)}) = {a^p d^2 = c^p mu^2} over F_3 and F_9")


def test_criterion_03_tensor_property():
    alg = build_group_algebra(M11, F3)[0]
    mods = [_L(*pp) for pp in L_PARAMS]
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    sups = [_support_keys(M11, M, F3) for M in mods]
    for i, j in pairs:
        T = tensor_module(mods[i], mods[j])
        assert _support_keys(M11, T, F3) == (sups[i] & sups[j])
    rng = random.Random(2024)
    for _ in range(20):
        s1, s2 = rng.randrange(10**6), rng.randrange(10**6)
        M, N = random_module(s1, alg, 6), random_module(s2, alg, 6)
        T = tensor_module(M, N)
        assert _support_keys(M11, T, F3) == (
            _support_keys(M11, M, F3) & _support_keys(M11, N, F3)
        )
    _passed(3, "support(M (x) N) = support(M) /\\ support(N), L-pairs + 20 random")


def test_criterion_04_pd_trichotomy():
    m12_alg = build_group_algebra(M12, F3)[0]
    tk = p1_trivial(F3)
    for seed in range(50):
        M = random_module(seed, m12_alg, 8)
        V = p1_view_from_module(M)
        mm = ext_dims(V, V, 7)
        mk = ext_dims(V, tk, 3)
        cup = cup_y_square(V)[0]
        assert (mm.total(2) > 0) == (mk.total(2) > 0) == cup, seed
        assert all(mm.total(i) == mm.total(i + 1) for i in range(2, 7)), seed
    _passed(4, "Ext^2(M,M) <=> Ext^2(M,k) <=> cup y^2, periodicity, 50 random")


def test_criterion_05_finite_iff_free():
    from itertools import combinations_with_replacement

    def partitions(limit, mx):
        out = []
        for k in range(1, limit + 1):
            for blocks in combinations_with_replacement(range(1, mx + 1), k):
                if sum(blocks) <= limit:
                    out.append(blocks)
        return out

    for blocks in partitions(6, 3):  # k[u]/u^3, v -> 0
        dim = sum(blocks)
        U = la.zeros(dim, dim)
        pos = 0
        for b in blocks:
            for i in range(b - 1):
                U[pos + i + 1, pos + i] = 1
            pos += b
        view = p1_view(F3, np.zeros(dim, dtype=np.int8), U, la.zeros(dim, dim))
        free = all(b == 3 for b in blocks)
        assert (pd_class(view) != PD_INFINITE) == free, blocks
    for blocks in partitions(6, 2):  # k[v]/v^2, u -> 0
        dim = sum(blocks)
        V = la.zeros(dim, dim)
        par = np.zeros(dim, dtype=np.int8)
        pos = 0
        for b in blocks:
            for i in range(b - 1):
                V[pos + i + 1, pos + i] = 1
                par[pos + i + 1] = (par[pos + i] + 1) % 2
            pos += b
        view = p1_view(F3, par, la.zeros(dim, dim), V)
        free = all(b == 2 for b in blocks)
        assert (pd_class(view) != PD_INFINITE) == free, blocks
    _passed(5, "pd finite <=> free, all Jordan multisets dim <= 6, u- and v-cases")


def test_criterion_06_classifier_round_trip():
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
    _passed(6, f"classifier round trip on {len(specs)} specs (r,s <= 2, eta in F_3)")


def test_criterion_07_solver_vs_parametrization():
    for spec, count in (
        (M11, 9),
        (GroupAlgebraSpec("Gar", 3, r=1), 3),
        (GroupAlgebraSpec("GaMinus", 3), 3),
    ):
        par = enumerate_points(spec, F3, method="param")
        sol = enumerate_points(spec, F3, method="solve")
        assert len(par.points) == count
        assert par.points.tolist() == sol.points.tolist()
    _passed(7, "Hom points solved from kG's coproduct match parametrization: M11 (9), Ga(1) (3), Ga^- (3)")


def test_criterion_08_resolution_ranks():
    alg = build_group_algebra(M11, F3)[0]
    res = resolution_of_trivial(alg, 8)
    assert [e + o for e, o in res.ranks()] == list(range(1, 10))
    assert res.minimal
    _passed(8, "minimal resolution of k over kM_{1;1} has total ranks 1..9")


def test_criterion_09_psi_bijective_and_support_lines():
    for spec in (M11, M21, M12):
        for field in (F3, F9):
            pts = family_points(spec, field)
            imgs = _rows(psi_map(spec, field, pts))
            assert len(imgs) == len(pts)
            assert imgs == _rows(psi_target_points(spec, field))
    for field in (F3, F9):
        for mu_i, a_i in L_PARAMS:
            mu, a = field.element(mu_i), field.element(a_i)
            L = _L(mu_i, a_i)
            sup = support_set(M11, L, field)
            img = _rows(psi_map(M11, field, sup.points))
            line = {
                (x.index, y.index)
                for x in elements(field)
                for y in elements(field)
                if ((a**3) * x * x).index == (mu * mu * y).index
            }
            assert img == line, (field.encode(), mu_i, a_i)
    _passed(9, "psi bijective (3 families, F_3/F_9); psi(support) = affine line")


def test_criterion_10_second_radical():
    spec = GroupAlgebraSpec(
        "Tensor",
        3,
        factors=(M11, GroupAlgebraSpec("Gar", 3, r=1), GroupAlgebraSpec("TruncEven", 3, t=1)),
    )
    R, _ = build_group_algebra(spec)
    alpha, delta = R.el_gen("t0_u0"), R.el_gen("t0_v")
    beta, gamma = R.el_gen("t1_u0"), R.el_gen("t2_g")
    perturbed = R.el_add(alpha, R.el_mul(beta, gamma))
    for seed in range(30):
        M = random_module(seed, R, 8)
        D = M.element_action(delta)
        v1 = p1_view(F3, M.parity, M.element_action(alpha), D)
        v2 = p1_view(F3, M.parity, M.element_action(perturbed), D)
        assert pd_class(v1) == pd_class(v2), seed
    _passed(10, "pd agreement of the alpha and alpha+beta*gamma pullbacks, 30 random")


def test_criterion_11_naturality_and_decomposition():
    alg = build_group_algebra(M11, F3)[0]
    embs = m11_subgroup_embeddings(3)
    all_pts = _rows(enumerate_points(M11, F3).points)
    for seed in range(20):
        M = random_module(seed, alg, 6)
        amb = _support_keys(M11, M, F3)
        for name, subspec, embed, gmap in embs:
            subalg, _ = build_group_algebra(subspec)
            sub = restrict_module(M, subalg, gmap)
            ssub = _rows(embed(support_set(subspec, sub, F3).points))
            line = _rows(embed(enumerate_points(subspec, F3).points))
            assert ssub == (amb & line), (seed, name)
    union = set()
    for name, subspec, embed, gmap in embs:
        union |= _rows(embed(enumerate_points(subspec, F3).points))
    union |= _rows(enumerate_points(M11, F3).points)  # M11 itself embeds
    assert union == all_pts
    _passed(11, "subgroup supports = support /\\ line (20 random); union covers V_1")


def test_criterion_12_conicality():
    # the supports of criteria 2 and 3, recomputed over F_9, must be stable
    # under every admissible dilation
    scalings = admissible_scalings(F9, 1)
    mods = [_L(*pp) for pp in L_PARAMS]
    modules = list(mods)
    for i in range(len(mods)):
        for j in range(i, len(mods)):
            modules.append(tensor_module(mods[i], mods[j]))
    rng = random.Random(2024)
    alg = build_group_algebra(M11, F3)[0]
    for _ in range(20):
        s1, s2 = rng.randrange(10**6), rng.randrange(10**6)
        M, N = random_module(s1, alg, 6), random_module(s2, alg, 6)
        modules.append(tensor_module(M, N))
    supports = [support_set(M11, M, F9) for M in modules]
    for sup in supports:
        keys = _rows(sup.points)
        for mt, at in scalings:
            assert _rows(monoid_scale(M11, F9, sup.points, mt, at)) <= keys
    # support_set decides one point per dilation orbit, so the check above
    # holds by construction; the per-point oracle on sampled points and
    # their dilations does not rest on it.  Invertible dilations keep a
    # point outside the support outside.
    pts = enumerate_points(M11, F9).points
    scalings = scalings.tolist()
    invertible = [(mt, at) for mt, at in scalings if mt != 0]
    checked = {True: 0, False: 0}
    for M, sup in zip(modules, supports):
        MF = extend_scalars(M, F9)
        keys = _rows(sup.points)
        inside = [pt for pt in sup.points if pt.any()]
        outside = [pt for pt in pts if tuple(pt.tolist()) not in keys]
        for infinite, pool, dilations in ((True, inside, scalings), (False, outside, invertible)):
            if not pool:
                continue
            pt = rng.choice(pool)
            assert (pd_class(point_pullback(M11, pt, MF)) == PD_INFINITE) == infinite
            for mt, at in rng.sample(dilations, 2):
                scaled = point_pullback(M11, monoid_scale(M11, F9, pt[None], mt, at)[0], MF)
                assert (pd_class(scaled) == PD_INFINITE) == infinite
            checked[infinite] += 1
    assert checked[True] and checked[False]
    _passed(
        12,
        f"{len(supports)} supports invariant under all 9 admissible F_9 scalings; "
        f"oracle on {checked[True]} points inside and {checked[False]} outside",
    )


def test_criterion_13_coproduct_oracle():
    for r in (1, 2):
        for s in (1, 2):
            alg, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=r, s=s))
            orc = km_r_dual_oracle(3, r, s)
            assert tuple(tuple(sorted(t)) for t in orc.gamma_coproduct) == coproduct_triples(
                alg
            ), (r, s)
            assert {k: tuple(v) for k, v in orc.gamma_mult.items()} == {
                k: tuple(v) for k, v in alg.products.items()
            }, (r, s)
    _passed(13, "coproduct/multiplication equal the dualized k[M_{r;s}] tables, (r,s) in {1,2}^2")


def test_criterion_14_carlson_modules():
    alg = build_group_algebra(M11, F3)[0]
    res = resolution_of_trivial(alg, 3)
    classes = []
    for degree in (1, 2):
        gens = res.gen_parities[degree]
        for parity in (0, 1):
            idxs = [i for i, gp in enumerate(gens) if gp == parity]
            if not idxs:
                continue
            import itertools

            for combo in itertools.product(range(3), repeat=len(idxs)):
                if all(c == 0 for c in combo):
                    continue
                vals = [0] * len(gens)
                for i, c in zip(idxs, combo):
                    vals[i] = c
                classes.append((degree, parity, tuple(vals)))
    mods = {}
    for degree, parity, vals in classes:
        z = cocycle_from_values(res, degree, vals, parity)
        L = carlson_module(alg, degree, z)
        omega_dim = res.omega[degree - 1][0].shape[1]
        assert L.dim == omega_dim - 1, (degree, parity, vals)
        mods[(degree, parity, vals)] = L
    # odd degree-1 classes realize the vertical line {(0, c)}
    for c in (1, 2):
        L = mods[(1, 1, (0, c))]
        lines = render_points(F3, support_set(M11, L, F3).points).splitlines()
        assert set(lines) == {"0,0", "0,1", "0,2"}
    # every Carlson support is conical (closed under the dilation monoid)
    scalings = admissible_scalings(F9, 1)
    for key, L in mods.items():
        sup = support_set(M11, L, F9)
        keys9 = _rows(sup.points)
        for mt, at in scalings:
            assert _rows(monoid_scale(M11, F9, sup.points, mt, at)) <= keys9, key
    # tensor property among a sample of Carlson modules
    keys = [
        (1, 1, (0, 1)),
        (1, 0, (1, 0)),
        (2, 0, (1, 0, 0)),
        (2, 0, (0, 1, 0)),
        (2, 1, (0, 0, 1)),
    ]
    sups = {k: _support_keys(M11, mods[k], F3) for k in keys}
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            T = tensor_module(mods[keys[i]], mods[keys[j]])
            assert _support_keys(M11, T, F3) == (sups[keys[i]] & sups[keys[j]])
    _passed(
        14,
        f"{len(classes)} Carlson classes: codim 1 in the syzygy; conical supports; tensor supports intersect",
    )
