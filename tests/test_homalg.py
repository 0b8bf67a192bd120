"""Ext over P_1, the cup-by-y operator, minimal resolutions, Carlson modules."""

import numpy as np
import pytest

from oracles.homalg_oracle import ext_dims_untwisted
from supvar.errors import BoundExceeded, ValidationError
from supvar.gfield import make_field
import supvar.linalg as la
from supvar.homalg import (
    EXT_DEGREE_CAP,
    PD_FINITE,
    PD_INFINITE,
    RESOLVE_STEPS_CAP,
    CochainComplex,
    CocycleClass,
    carlson_module,
    cocycle_from_values,
    cup_y_square,
    ext_dims,
    minimal_resolution,
    p1_hom_complex,
    pd_class,
    resolution_of_trivial,
)
from supvar.smod import (
    build_L,
    dual_module,
    extend_scalars,
    p1_trivial,
    p1_view,
    p1_view_from_module,
    random_module,
    regular_module,
    trivial_module,
    validate_module,
)
from supvar.superalg.algebra import GroupAlgebraSpec, build_group_algebra

F3 = make_field(3, 1)
M11_SPEC = GroupAlgebraSpec("Mrs", 3, r=1, s=1)


def m11():
    return build_group_algebra(M11_SPEC)[0]


def test_trivial_module_complex_dims():
    for p in (3, 5):
        k = p1_trivial(make_field(p, 1))
        dims = p1_hom_complex(k).cohomology_dims(10)
        assert len(dims) == 11 and dims[0] == (1, 0)
        assert all(dims[i] == (1, 1) for i in range(1, 11))


def test_complex_differentials_compose_to_zero():
    L = build_L(F3.element(1), F3.element(1))
    W = p1_view_from_module(L)
    cx = p1_hom_complex(W, check=True)  # compositions checked in the constructor
    assert len(cx.diffs) == 3


def test_regular_pullback_exact_in_degree_two():
    # the free module pulled back at a free-direction point has H^2 = 0
    A = m11()
    R = regular_module(A)
    from supvar.varieties import point_pullback

    W = point_pullback(M11_SPEC, (1, 1), R)
    e, o = p1_hom_complex(W).cohomology_dims(3)[2]
    assert e + o == 0


def test_ext_examples():
    tk = p1_trivial(F3)
    t = ext_dims(tk, tk, 6)
    assert t.dims[0] == (1, 0) and all(t.dims[i] == (1, 1) for i in range(1, 7))
    tpi = p1_trivial(F3, odd=True)
    t2 = ext_dims(tk, tpi, 6)
    assert t2.dims[0] == (0, 1) and all(t2.dims[i] == (1, 1) for i in range(1, 7))
    # pullback of L_{(0,1)} at (1,1) has Ext^2 = 0 (off the support line)
    from supvar.varieties import point_pullback

    L = build_L(F3.element(0), F3.element(1))
    V = point_pullback(M11_SPEC, (1, 1), L)
    assert ext_dims(V, V, 3).total(2) == 0


def test_pd_class_examples():
    assert pd_class(p1_trivial(F3)) == PD_INFINITE
    gam, _ = build_group_algebra(GroupAlgebraSpec("GaMinus", 3))
    R = regular_module(gam)
    view = p1_view_from_module(R)  # u -> 0, v -> v
    assert pd_class(view) == PD_FINITE
    L = build_L(F3.element(0), F3.element(1))
    from supvar.varieties import point_pullback

    V = point_pullback(M11_SPEC, (0, 1), L)
    assert pd_class(V) == PD_INFINITE
    with pytest.raises(ValidationError):
        pd_class(p1_view(F3, np.zeros(0, dtype=np.int8), la.zeros(0, 0), la.zeros(0, 0)))


def test_cup_y_square_k_nonzero():
    ok, data = cup_y_square(p1_trivial(F3))
    assert ok
    assert np.any(data["cocycle"])


def test_trichotomy_and_periodicity_random():
    m12, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=2))
    tk = p1_trivial(F3)
    for seed in range(12):
        M = random_module(seed, m12, 7)
        V = p1_view_from_module(M)
        mm = ext_dims(V, V, 7)
        mk = ext_dims(V, tk, 3)
        cup = cup_y_square(V)[0]
        assert (mm.total(2) > 0) == (mk.total(2) > 0) == cup
        assert all(mm.total(i) == mm.total(i + 1) for i in range(2, 7))
        assert (pd_class(V) == PD_INFINITE) == cup


def test_untwisted_pipeline_cross_check():
    # ext_dims_untwisted builds every degree's differential on its own, so it
    # checks that ext_dims may read every degree i >= 2 from H^2
    F5 = make_field(5, 1)
    for spec, field in (
        (M11_SPEC, F3),
        (GroupAlgebraSpec("Mrs", 3, r=1, s=2), F3),
        (GroupAlgebraSpec("Mrs", 3, r=2, s=1), F3),
        (GroupAlgebraSpec("Mrs", 5, r=1, s=1), F5),
    ):
        A, _ = build_group_algebra(spec, field)
        tk = p1_trivial(field)
        for seed in range(6):
            V = p1_view_from_module(random_module(seed, A, 8))
            assert ext_dims(V, V, 6).dims == ext_dims_untwisted(V, V, 6).dims, (spec, seed)
            assert ext_dims(V, tk, 6).dims == ext_dims_untwisted(V, tk, 6).dims, (spec, seed)
    L = build_L(F3.element(0), F3.element(1))
    V = p1_view_from_module(L)
    assert ext_dims(V, V, 6).dims == ext_dims_untwisted(V, V, 6).dims
    # L over F_3, a random M_{2;1} module and a random p = 5 M_{1;1} module,
    # through degree 9
    m21, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=2, s=1))
    m11p5, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 5, r=1, s=1), F5)
    for M in (
        build_L(F3.element(1), F3.element(2)),
        random_module(3, m21, 8),
        random_module(4, m11p5, 8),
    ):
        V = p1_view_from_module(M)
        assert ext_dims(V, V, 9).dims == ext_dims_untwisted(V, V, 9).dims


def test_distinct_bad_differential_still_checked():
    # each differential gets a parity-preserving corruption: 1 added on a
    # diagonal entry (j, j) of d, where C^i and C^{i+1} agree in parity
    V = p1_view_from_module(build_L(F3.element(1), F3.element(2)))
    cx = p1_hom_complex(V)
    F = la.tables(F3)
    d_0, d_phi, d_psi = cx.diffs

    def cols(d):
        return set(np.nonzero(d.any(axis=0))[0].tolist())

    def rows(d):
        return cols(d.T)

    # d_0 + E_jj (j < dim V) adds column j of d_phi to d_phi d_0: degree 0
    j0 = min(cols(d_phi) & set(range(V.dim)))
    # d_phi + E_jj adds row j of d_0 to d_phi d_0 and column j of d_psi to
    # d_psi d_phi: j with the row zero and the column not is caught at degree 1
    j1 = min(cols(d_psi) - rows(d_0))
    # d_psi + E_jj adds row j of d_phi to d_psi d_phi and column j of d_phi
    # to d_phi d_psi: the row zero and the column not is caught at degree 2
    j2 = min(cols(d_phi) - rows(d_phi))
    for k, j in enumerate((j0, j1, j2)):
        diffs = list(cx.diffs)
        diffs[k] = diffs[k].copy()
        diffs[k][j, j] = F.add[diffs[k][j, j], 1]
        with pytest.raises(ValidationError, match=f"compose to zero at degree {k}$"):
            CochainComplex(F3, cx.parities, tuple(diffs))
    CochainComplex(F3, cx.parities, cx.diffs)


def test_ext_call_count_independent_of_degree(monkeypatch):
    V = p1_view_from_module(build_L(F3.element(0), F3.element(1)))
    calls = {"rank": 0, "bmatmul": 0}

    def counting(name):
        inner = getattr(la, name)

        def wrapped(*args, **kw):
            calls[name] += 1
            return inner(*args, **kw)

        return wrapped

    for name in calls:
        monkeypatch.setattr(la, name, counting(name))
    counts = []
    for maxdeg in (10, 500):
        calls.update(rank=0, bmatmul=0)
        ext_dims(V, V, maxdeg)
        counts.append(dict(calls))
    assert counts[0] == counts[1]
    assert counts[0]["rank"] > 0 and counts[0]["bmatmul"] > 0


def test_base_change_invariance():
    F9 = make_field(3, 2)
    A = m11()
    for seed in (3, 11):
        M = random_module(seed, A, 5)
        V3 = p1_view_from_module(M)
        V9 = p1_view_from_module(extend_scalars(M, F9))
        assert ext_dims(V3, V3, 5).dims == ext_dims(V9, V9, 5).dims


def test_duality_pd_invariance():
    A = m11()
    for seed in range(8):
        M = random_module(seed, A, 6)
        assert pd_class(p1_view_from_module(M)) == pd_class(
            p1_view_from_module(dual_module(M))
        )


def test_injective_equals_projective_dimension():
    # over P_1 the injective and projective dimensions of a torsion module
    # agree, so Ext^2(k, M) and Ext^2(M, k) vanish together
    m12, _ = build_group_algebra(GroupAlgebraSpec("Mrs", 3, r=1, s=2))
    tk = p1_trivial(F3)
    for seed in range(15):
        V = p1_view_from_module(random_module(seed, m12, 7))
        km = ext_dims(tk, V, 3)
        mk = ext_dims(V, tk, 3)
        mm = ext_dims(V, V, 3)
        assert (km.total(2) > 0) == (mk.total(2) > 0) == (mm.total(2) > 0)


# -- minimal resolutions ---------------------------------------------------


def test_resolution_ranks_m11():
    res = resolution_of_trivial(m11(), 8)
    assert [e + o for e, o in res.ranks()] == list(range(1, 10))
    assert res.minimal


def test_resolution_gaminus_periodic():
    gam, _ = build_group_algebra(GroupAlgebraSpec("GaMinus", 3))
    res = minimal_resolution(gam, trivial_module(gam), 6)
    assert [e + o for e, o in res.ranks()] == [1] * 7


def test_resolution_of_free_module_stops():
    A = m11()
    res = minimal_resolution(A, regular_module(A), 3)
    assert [e + o for e, o in res.ranks()] == [1, 0, 0, 0]


def test_resolution_requires_local():
    # a non-local input is rejected: fake an algebra whose augmentation is wrong
    A = m11()
    bad = A.augmentation.copy()
    import dataclasses

    B = dataclasses.replace(A, augmentation=np.roll(bad, 1))
    with pytest.raises(ValidationError):
        minimal_resolution(B, trivial_module(B), 1)


def test_depth_caps_in_the_library():
    with pytest.raises(BoundExceeded):
        ext_dims(p1_trivial(F3), p1_trivial(F3), EXT_DEGREE_CAP + 1)
    with pytest.raises(ValidationError):
        ext_dims(p1_trivial(F3), p1_trivial(F3), 1)
    A = m11()
    with pytest.raises(BoundExceeded):
        minimal_resolution(A, trivial_module(A), RESOLVE_STEPS_CAP + 1)
    with pytest.raises(ValidationError):
        minimal_resolution(A, trivial_module(A), -1)


def test_resolution_boundaries_compose_to_zero():
    res = resolution_of_trivial(m11(), 4)
    F = la.tables(F3)
    for n in range(1, 4):
        comp = la.matmul(F, res.boundaries[n], res.boundaries[n + 1])
        assert not np.any(comp)


# -- Carlson modules --------------------------------------------------------


def test_carlson_degree_one():
    A = m11()
    res = resolution_of_trivial(A, 2)
    assert res.gen_parities[1] == (0, 1)
    assert res.omega[0][0].shape[1] == 5  # Omega^1 = rad(A)
    for values, parity in (([0, 1], 1), ([0, 2], 1), ([1, 0], 0), ([2, 0], 0)):
        z = cocycle_from_values(res, 1, values, parity)
        L = carlson_module(A, 1, z)
        assert L.dim == 4
        validate_module(L)


def test_carlson_degree_two():
    A = m11()
    res = resolution_of_trivial(A, 3)
    omega2 = res.omega[1][0].shape[1]
    gens = res.gen_parities[2]
    vals = [0] * len(gens)
    vals[0] = 1
    z = cocycle_from_values(res, 2, vals, gens[0])
    L = carlson_module(A, 2, z)
    assert L.dim == omega2 - 1


def test_carlson_errors():
    A = m11()
    res = resolution_of_trivial(A, 2)
    with pytest.raises(ValidationError):
        carlson_module(A, 1, CocycleClass(1, np.ones(res.free_dim(1), dtype=la.DT), 0))
    with pytest.raises(ValidationError):
        z = cocycle_from_values(res, 1, [0, 0], 0)
        carlson_module(A, 1, z)
