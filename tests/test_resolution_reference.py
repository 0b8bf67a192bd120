"""Minimal resolutions against the dense construction they replaced.

The reference below is the algorithm `minimal_resolution` used while it
stored every free module P_n as a dense SuperModule: rank copies of the
regular action per generator, restricted to each syzygy with
`restrict_operator`, whose result is then covered through the actions of
the whole radical, with each kernel taken on the full boundary.  The
resolution that holds P_n by its generator parities, covers from the
generators' actions alone and takes kernels on syzygy coordinates must
agree with it bit for bit.
"""

import hashlib
import itertools

import numpy as np
import pytest

from oracles.linalg_oracle import restrict_operator
import supvar.homalg as homalg
import supvar.linalg as la
from supvar.cli import main
from supvar.errors import BoundExceeded, ValidationError
from supvar.homalg import (
    carlson_module,
    cocycle_from_values,
    minimal_resolution,
    resolution_of_trivial,
)
from supvar.smod import (
    SuperModule,
    random_module,
    regular_module,
    trivial_module,
)
from supvar.superalg.algebra import GroupAlgebraSpec, build_group_algebra

M11 = GroupAlgebraSpec("Mrs", 3, r=1, s=1)


# -- the dense reference ----------------------------------------------------


def _graded_kernel(F, A, col_parity, row_parity):
    cols_out, pars = [], []
    for par in (0, 1):
        csel = np.nonzero(col_parity == par)[0]
        rsel = np.nonzero(row_parity == par)[0]
        if not csel.size:
            continue
        block = A[np.ix_(rsel, csel)] if rsel.size else la.zeros(0, len(csel))
        K = la.right_kernel(F, block)
        for t in range(K.shape[1]):
            full = la.zeros(A.shape[1], 1).ravel()
            full[csel] = K[:, t]
            cols_out.append(full)
            pars.append(par)
    if not cols_out:
        return la.zeros(A.shape[1], 0), np.zeros(0, dtype=np.int8)
    return np.stack(cols_out, axis=1), np.array(pars, dtype=np.int8)


def _free_module(A, gen_parities):
    rank = len(gen_parities)
    dim = rank * A.dim
    parity = np.zeros(dim, dtype=np.int8)
    for g, gp in enumerate(gen_parities):
        parity[g * A.dim : (g + 1) * A.dim] = (A.parity.astype(np.int8) + gp) % 2
    reg = regular_module(A)
    action = {}
    for name in A.generators:
        mat = la.zeros(dim, dim)
        for g in range(rank):
            mat[g * A.dim : (g + 1) * A.dim, g * A.dim : (g + 1) * A.dim] = reg.action[name]
        action[name] = mat
    return SuperModule(A, dim, parity, action)


def _submodule(P, cols, par):
    F = la.tables(P.algebra.field)
    action = {}
    for g in P.algebra.generators:
        action[g] = restrict_operator(F, cols, P.action[g]) if cols.size else la.zeros(0, 0)
    return SuperModule(P.algebra, cols.shape[1], par.copy(), action)


def _cover(Q):
    A = Q.algebra
    F = la.tables(A.field)
    if Q.dim == 0:
        return (), la.zeros(0, 0)
    acts = Q.basis_actions().reshape(A.dim, Q.dim, Q.dim)
    rad = acts[A.radical_coords()].transpose(1, 0, 2).reshape(Q.dim, -1)
    comp = la.complement_coords(F, rad)
    gen_par = tuple(int(Q.parity[c]) for c in comp)
    dmat = acts[:, :, comp].transpose(1, 2, 0).reshape(Q.dim, len(comp) * A.dim)
    return gen_par, dmat


def dense_resolution(A, M, steps):
    """(gen_parities, boundaries, omega, minimal) of the dense algorithm."""
    F = la.tables(A.field)
    gens, d0 = _cover(M)
    modules, gen_parities, boundaries = [_free_module(A, gens)], [gens], [d0]
    omega = [_graded_kernel(F, d0, modules[0].parity, M.parity)]
    minimal = True
    while len(modules) <= steps:
        K, Kpar = omega[-1]
        gens, dmat = _cover(_submodule(modules[-1], K, Kpar))
        gen_parities.append(gens)
        modules.append(_free_module(A, gens))
        bnd = la.matmul(F, K, dmat) if K.size else la.zeros(modules[-2].dim, 0)
        boundaries.append(bnd)
        unit_rows = [g * A.dim + A.unit_index for g in range(len(gen_parities[-2]))]
        if bnd.size and np.any(bnd[unit_rows, :]):
            minimal = False
        omega.append(_graded_kernel(F, bnd, modules[-1].parity, modules[-2].parity))
    return gen_parities, boundaries, omega, minimal


# -- bit identity -----------------------------------------------------------

ALGEBRAS = [
    ("M11", M11, 8),
    ("M11p5", GroupAlgebraSpec("Mrs", 5, r=1, s=1), 6),
    ("M12", GroupAlgebraSpec("Mrs", 3, r=1, s=2), 4),
    ("M21", GroupAlgebraSpec("Mrs", 3, r=2, s=1), 4),
    ("Ga2", GroupAlgebraSpec("Gar", 3, r=2), 6),
    ("GaMinus", GroupAlgebraSpec("GaMinus", 3), 6),
    ("Ga3", GroupAlgebraSpec("Gar", 3, r=3), 5),
    ("M11p7", GroupAlgebraSpec("Mrs", 7, r=1, s=1), 12),
    (
        "Ga1xGaMinus",
        GroupAlgebraSpec(
            "Tensor", 3, factors=(GroupAlgebraSpec("Gar", 3, r=1), GroupAlgebraSpec("GaMinus", 3))
        ),
        12,
    ),
]


def _modules(A):
    yield "trivial", trivial_module(A)
    yield "odd trivial", trivial_module(A, odd=True)
    yield "regular", regular_module(A)
    for seed in (0, 1, 2):
        yield f"random {seed}", random_module(seed, A, A.dim - 1)


def _assert_same(a, b, what):
    assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), what


@pytest.mark.parametrize("name,spec,steps", ALGEBRAS, ids=[a[0] for a in ALGEBRAS])
def test_resolution_matches_dense_reference(name, spec, steps):
    A = build_group_algebra(spec)[0]
    for label, M in _modules(A):
        res = minimal_resolution(A, M, steps)
        gens, bnds, omega, minimal = dense_resolution(A, M, steps)
        assert res.gen_parities == gens, label
        assert res.minimal == minimal, label
        assert len(res.boundaries) == len(bnds) == len(res.omega) == len(omega) == steps + 1
        for n in range(steps + 1):
            assert res.free_dim(n) == len(gens[n]) * A.dim
            _assert_same(res.boundaries[n], bnds[n], (label, "boundary", n))
            _assert_same(res.omega[n][0], omega[n][0], (label, "omega", n))
            _assert_same(res.omega[n][1], omega[n][1], (label, "omega parity", n))


# stdout-independent digest of the Carlson modules of every degree-1 and
# degree-2 class over M_{1;1} (the cases of test_criterion_14_carlson_modules),
# recorded while the resolution was built densely
CARLSON_DIGEST = "5626334c83dcface0eca9e4f9136aa1c57a875c22eb7d9cb88c8b91da38a4986"


def test_carlson_modules_unchanged():
    alg = build_group_algebra(M11)[0]
    res = resolution_of_trivial(alg, 3)
    h = hashlib.sha256()
    count = 0
    for degree in (1, 2):
        gens = res.gen_parities[degree]
        for parity in (0, 1):
            idxs = [i for i, gp in enumerate(gens) if gp == parity]
            for combo in itertools.product(range(3), repeat=len(idxs)):
                if not any(combo):
                    continue
                vals = [0] * len(gens)
                for i, c in zip(idxs, combo):
                    vals[i] = c
                L = carlson_module(alg, degree, cocycle_from_values(res, degree, vals, parity))
                h.update(repr((degree, parity, vals, L.dim)).encode())
                h.update(np.asarray(L.parity, dtype=np.int8).tobytes())
                for g in sorted(L.action):
                    h.update(g.encode())
                    h.update(np.ascontiguousarray(L.action[g], dtype=np.int32).tobytes())
                count += 1
    assert (count, h.hexdigest()) == (14, CARLSON_DIGEST)


# -- the invariance check ---------------------------------------------------


def test_noninvariant_syzygy_rejected(monkeypatch):
    A = build_group_algebra(M11)[0]
    real = homalg._graded_right_kernel

    def first_column(F, bnd, col_parity, row_parity):
        # one kernel vector: the span of a single radical basis element,
        # which the radical does not preserve
        K, par = real(F, bnd, col_parity, row_parity)
        return K[:, :1], par[:1]

    monkeypatch.setattr(homalg, "_graded_right_kernel", first_column)
    with pytest.raises(ValidationError, match="syzygy 1 is not a submodule"):
        minimal_resolution(A, trivial_module(A), 1)


@pytest.mark.parametrize("b,kept_by", [(2, "u0"), (3, "v")])
def test_every_generator_checks_the_syzygy(monkeypatch, b, kept_by):
    # span(e_b) in P_0 = A is kept by one generator of M_{1;1} and moved by
    # the other, so only a check under each generator rejects it
    A = build_group_algebra(M11)[0]
    assert [g for g, i in A.generators.items() if not A.tensor[i, b].any()] == [kept_by]

    def one_basis_vector(F, bnd, col_parity, row_parity):
        K = la.zeros(bnd.shape[1], 1)
        K[b, 0] = 1
        return K, col_parity[[b]]

    monkeypatch.setattr(homalg, "_graded_right_kernel", one_basis_vector)
    with pytest.raises(ValidationError, match="syzygy 1 is not a submodule"):
        minimal_resolution(A, trivial_module(A), 1)


def test_mislabelled_syzygy_parity_rejected(monkeypatch):
    # the true syzygy with every parity flipped: its cover's boundary mixes parities
    A = build_group_algebra(M11)[0]
    real = homalg._graded_right_kernel

    def flipped(F, bnd, col_parity, row_parity):
        K, par = real(F, bnd, col_parity, row_parity)
        return K, (1 - par).astype(np.int8)

    monkeypatch.setattr(homalg, "_graded_right_kernel", flipped)
    with pytest.raises(ValidationError, match="map is not parity graded"):
        minimal_resolution(A, trivial_module(A), 1)


def test_noninvariant_carlson_kernel_rejected(monkeypatch):
    A = build_group_algebra(M11)[0]
    res = resolution_of_trivial(A, 2)  # cached, so the patch below reaches only carlson
    K, Kpar = res.omega[0]
    even = int(np.nonzero(Kpar == 0)[0][0])

    def one_even_vector(F, zhat):
        ker = la.zeros(K.shape[1], 1)
        ker[even, 0] = 1
        return ker

    z = cocycle_from_values(res, 1, [0, 1], 1)
    monkeypatch.setattr(la, "right_kernel", one_even_vector)
    with pytest.raises(ValidationError, match="kernel of zeta is not a submodule"):
        carlson_module(A, 1, z)


# -- the size cap -----------------------------------------------------------


def test_dimension_cap(monkeypatch, capsys, tmp_path):
    # the cap lies above the largest free module the goldens reach,
    # P_8 over M_{2;1}: rank 45, dimension 810
    assert homalg.RESOLVE_DIM_CAP >= 45 * 18
    A = build_group_algebra(M11)[0]
    # P_1 over M_{1;1} has rank 2, dimension 12; P_2 has dimension 18
    monkeypatch.setattr(homalg, "RESOLVE_DIM_CAP", 12)
    assert minimal_resolution(A, trivial_module(A), 1).free_dim(1) == 12
    with pytest.raises(BoundExceeded, match="dim P_2 18 exceeds cap 12"):
        minimal_resolution(A, trivial_module(A), 2)
    # through the CLI, with no cached resolution: exit 3, one error line
    monkeypatch.setattr(A, "_trivial_resolution", None, raising=False)
    spec = tmp_path / "m11.json"
    spec.write_text('{"family":"Mrs","p":3,"r":1,"s":1,"eta":"0"}')
    code = main(["resolve", "-g", str(spec), "-n", "8"])
    out = capsys.readouterr()
    assert (code, out.out) == (3, "")
    assert out.err == "error: dim P_2 18 exceeds cap 12\n"
