"""Homological computations over P_1 and over finite local superalgebras.

The augmentation of P_1 = k[u,v]/(u^p + v^2) has the 2-periodic free
resolution coming from the matrix factorization

    phi = [[u^{p-1}, v], [v, -u]],   psi = [[u, v], [v, -u^{p-1}]],

with phi psi = psi phi = (u^p + v^2) I.  Applying Hom(-, W) to it turns Ext
computations over P_1 into finite linear algebra in a torsion module W, and
the degree-shift swap operator on the resolution realizes the right cup
product by the odd degree-one cohomology class, whose square detects
infinite projective dimension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from . import linalg
from .smod import (
    P1ModuleView,
    SuperModule,
    p1_dual,
    p1_tensor,
    regular_module,
    trivial_module,
    validate_module,
)

PD_FINITE = "FiniteAtMostOne"
PD_INFINITE = "Infinite"


@dataclass
class CochainComplex:
    """Cochain spaces with parity vectors and differentials C^i -> C^{i+1}.

    The differentials may carry leading stack axes, (..., dim_{i+1}, dim_i):
    a stack of complexes on the same cochain spaces.  The checks below then
    cover every slice; `cohomology_dims` needs single matrices.
    """

    field: object
    parities: list  # per degree: (dim_i,) array of 0/1
    diffs: list  # diffs[i]: matrix (dim_{i+1}, dim_i)

    def __post_init__(self):
        F = linalg.tables(self.field)
        for i in range(len(self.diffs) - 1):
            comp = linalg.bmatmul(F, self.diffs[i + 1], self.diffs[i])
            if np.any(comp):
                raise ValidationError(f"differentials do not compose to zero at degree {i}")
            # the differential preserves cochain parity
            rows, cols = linalg.stack_nonzero(self.diffs[i])
            if np.any(self.parities[i + 1][rows] != self.parities[i][cols]):
                raise ValidationError(f"differential mixes parities at degree {i}")

    def _block_rank(self, d, par, F):
        rows = np.nonzero(self.parities[d + 1] == par)[0]
        cols = np.nonzero(self.parities[d] == par)[0]
        if not rows.size or not cols.size:
            return 0
        return linalg.rank(F, self.diffs[d][np.ix_(rows, cols)])

    def cohomology_dims(self):
        """List of (even_dim, odd_dim) for degrees 0 .. len(diffs) - 1."""
        F = linalg.tables(self.field)
        nd = len(self.diffs)
        ranks = {(d, par): self._block_rank(d, par, F) for d in range(nd) for par in (0, 1)}
        out = []
        for d in range(nd):
            dims = {}
            for par in (0, 1):
                cols = int((self.parities[d] == par).sum())
                dims[par] = cols - ranks[(d, par)] - (ranks[(d - 1, par)] if d else 0)
            out.append((dims[0], dims[1]))
        return out


@dataclass
class ExtTable:
    """Per-degree (even, odd) dimensions of Ext over P_1."""

    dims: list

    def total(self, i):
        e, o = self.dims[i]
        return e + o

    def render(self):
        return "\n".join(f"{i}: {e}|{o}" for i, (e, o) in enumerate(self.dims))


def p1_hom_complex(W: P1ModuleView, maxdeg: int) -> CochainComplex:
    """The complex Hom_{P_1}(P_bullet, W) for the 2-periodic resolution.

    Degree 0 is W; each higher degree is W + Pi(W), as pairs (w0, w1) of
    values on the even and odd free generator.  Differentials precompose
    with (u, v), phi, psi, psi, phi, ... and carry the sign (-1)^{|f|} on
    the entries acted on through v, realized by V pi.

    W is assumed valid (views are validated when first constructed); an
    inconsistent pair still trips the d.d = 0 check in the complex.  A
    stacked W gives the stack of complexes.
    """
    if maxdeg < 2:
        raise ValidationError("maxdeg must be at least 2")
    F = W.F
    p = W.field.p
    U = W.U
    Up = linalg.matpow(F, U, p - 1)
    # V composed with the parity sign: the columns of odd basis vectors negated
    Vp = W.V.copy()
    oddcols = np.nonzero(W.parity == 1)[0]
    Vp[..., oddcols] = F.neg[Vp[..., oddcols]]
    nVp = F.neg[Vp]
    nU = F.neg[U]
    nUp = F.neg[Up]

    parities = [W.parity.copy()]
    pshift = (1 - W.parity).astype(np.int8)
    for _ in range(maxdeg + 1):
        parities.append(np.concatenate([W.parity, pshift]))

    diffs = [np.concatenate([U, Vp], axis=-2)]
    d_phi = np.block([[Up, nVp], [Vp, nU]]).astype(linalg.DT)
    d_psi = np.block([[U, nVp], [Vp, nUp]]).astype(linalg.DT)
    for i in range(1, maxdeg + 1):
        diffs.append(d_phi if i % 2 == 1 else d_psi)
    return CochainComplex(W.field, parities, diffs)


def ext_dims(M: P1ModuleView, N: P1ModuleView, maxdeg: int) -> ExtTable:
    """Ext_{P_1}(M, N) through maxdeg, via the coefficient module M^# (x) N."""
    if M.field != N.field:
        raise ValidationError("Ext needs both modules over the same field")
    W = p1_tensor(p1_dual(M), N)
    cx = p1_hom_complex(W, maxdeg)
    return ExtTable(cx.cohomology_dims()[: maxdeg + 1])


def pd_infinite(M: P1ModuleView) -> np.ndarray:
    """Whether pd over P_1 is infinite, for each slice of a (stacked) view.

    For torsion modules pd is the top nonvanishing Ext(M, k) degree, and by
    the 2-periodicity in degrees >= 2 that is infinite exactly when
    Ext^2(M, k) is nonzero, equivalently Ext^2(M, M) is nonzero.  Only the
    total dimension of H^2 of Hom(P, M^#) is needed, 2n - rank(d_phi) -
    rank(d_psi), so no parity splitting happens here.

    The whole stack goes through one dual, one complex with its d.d = 0
    and parity checks, and one lockstep rank per differential; the stacked
    2n x 2n blocks take 4 n^2 cells per slice.  Returns a bool array of the
    view's stack shape (0-d for a single view).
    """
    if M.dim == 0:
        raise ValidationError("pd_class of the zero module")
    F = M.F
    cx = p1_hom_complex(p1_dual(M), 2)
    h2 = 2 * M.dim - linalg.ranks(F, cx.diffs[1]) - linalg.ranks(F, cx.diffs[2])
    return h2 != 0


def pd_class(M: P1ModuleView) -> str:
    """Trichotomy of projective dimension over P_1: finite means at most 1.

    The one-view case of `pd_infinite`.
    """
    return PD_INFINITE if pd_infinite(M) else PD_FINITE


def cup_y_square(M: P1ModuleView):
    """The operator of right cup product by the odd degree-one class y.

    Builds the component-swap chain operator on Hom(P_bullet, M^# (x) M),
    verifies its square is a chain operator, pushes the identity class
    through it twice, and reports whether 1_M cup y^2 is nonzero in Ext^2.
    Returns (is_nonzero, data).
    """
    if M.dim == 0:
        raise ValidationError("cup_y_square of the zero module")
    F = M.F
    W = p1_tensor(p1_dual(M), M)
    cx = p1_hom_complex(W, 4)
    n = W.dim

    # coevaluation: the 0-cocycle corresponding to the identity map of M
    coev = linalg.zeros(n, 1).ravel()
    for a in range(M.dim):
        idx = a * M.dim + a
        coev[idx] = 1 if M.parity[a] == 0 else F.neg[1]
    if np.any(linalg.matvec(F, cx.diffs[0], coev)):
        raise ValidationError("identity class is not a cocycle; sign conventions broken")

    # swap operators realizing cup by y
    T = []
    T0 = np.concatenate([linalg.zeros(n, n), linalg.identity(n)], axis=0)
    T.append(T0)
    swap = np.block(
        [[linalg.zeros(n, n), linalg.identity(n)], [linalg.identity(n), linalg.zeros(n, n)]]
    ).astype(linalg.DT)
    for i in range(1, 4):
        T.append(swap if i % 2 == 0 else F.neg[swap])

    # the square of the swap operator must be a chain operator
    for i in (0, 1):
        S_i = linalg.matmul(F, T[i + 1], T[i])
        S_next = linalg.matmul(F, T[i + 2], T[i + 1])
        lhs = linalg.matmul(F, cx.diffs[i + 2], S_i)
        rhs = linalg.matmul(F, S_next, cx.diffs[i])
        if not np.array_equal(lhs, rhs):
            raise ValidationError("cup-by-y square is not a chain operator; sign bug")

    c1 = linalg.matvec(F, T[0], coev)
    c2 = linalg.matvec(F, T[1], c1)
    if np.any(linalg.matvec(F, cx.diffs[2], c2)):
        raise ValidationError("1 cup y^2 is not a cocycle; sign conventions broken")
    sol = linalg.solve(F, cx.diffs[1], c2)
    is_nonzero = sol is None
    return is_nonzero, {"cocycle": c2, "complex": cx, "operators": T}


# -- untwisted cross-check pipeline --------------------------------------


def ext_dims_untwisted(M: P1ModuleView, N: P1ModuleView, maxdeg: int) -> ExtTable:
    """Ext via Hom_{P_1}(M (x) P_bullet, N), the coefficient-side pipeline.

    M (x) P_i is free on m_a (x) e_j, and moving ring elements across the
    tensor uses the untwisting m (x) ux = u(m (x) x) - um (x) x and
    m (x) vx = (-1)^{|m|}(v(m (x) x) - vm (x) x).  Entirely independent of
    the contragredient route, so it cross-checks the sign conventions.
    """
    from math import comb

    if M.field != N.field:
        raise ValidationError("Ext needs both modules over the same field")
    F = M.F
    p = M.field.p
    dm, dn = M.dim, N.dim

    # entries of the resolution differentials as (coeff sign, power of u, is_v)
    def entries(i):
        # d_i: P_i -> P_{i-1} has matrix (b_{k j}); the list holds
        # (j, k, b_{k j}) so that (delta F)(m (x) e_j) sums F(m (x) b_{k j} e_k).
        if i == 1:
            return [(0, 0, ("u", 1, 1)), (1, 0, ("v", 1))]
        if i % 2 == 0:  # phi
            return [
                (0, 0, ("u", p - 1, 1)),
                (0, 1, ("v", 1)),
                (1, 0, ("v", 1)),
                (1, 1, ("u", 1, -1)),
            ]
        return [  # psi
            (0, 0, ("u", 1, 1)),
            (0, 1, ("v", 1)),
            (1, 0, ("v", 1)),
            (1, 1, ("u", p - 1, -1)),
        ]

    def upow_M(t):
        return linalg.matpow(F, M.U, t)

    def upow_N(t):
        return linalg.matpow(F, N.U, t)

    # cochain coordinates in degree i >= 1: ((j, a), n) with j in {0,1};
    # in degree 0 just (a, n).  We build one differential matrix per parity
    # tau of the cochain, then assemble the two subcomplexes.
    def coord_parity(j, a, nidx, i):
        ej = 0 if (i == 0 or j == 0) else 1
        return (int(M.parity[a]) + ej + int(N.parity[nidx])) % 2

    def build_diff(i, tau):
        """delta^i on the tau-parity subcomplex, as a dense matrix over all
        coordinates (entries outside the tau block are zero anyway)."""
        ncols = dm * dn if i == 0 else 2 * dm * dn
        nrows = 2 * dm * dn
        D = linalg.zeros(nrows, ncols)
        sign_f = 1 if tau == 0 else -1

        def col_index(j, a, nidx):
            if i == 0:
                return a * dn + nidx
            return (j * dm + a) * dn + nidx

        def row_index(j, a, nidx):
            return (j * dm + a) * dn + nidx

        for rj, ck, kind in entries(i + 1):
            # F(m_{a'} (x) b e_{ck}) contributes to (delta F)(m_{a'} (x) e_{rj})
            if kind[0] == "u":
                _, e, c = kind
                for t in range(e + 1):
                    coefsign = ((-1) ** t * comb(e, t) * c) % p
                    if coefsign == 0:
                        continue
                    UNt = upow_N(e - t)
                    UMt = upow_M(t)
                    for a_p in range(dm):
                        for a_pp in np.nonzero(UMt[:, a_p])[0]:
                            cc = int(F.mul[F.scalar(coefsign), UMt[a_pp, a_p]])
                            for n_to in range(dn):
                                for n_from in np.nonzero(UNt[n_to, :])[0]:
                                    v = int(F.mul[cc, UNt[n_to, n_from]])
                                    r = row_index(rj, a_p, n_to)
                                    col = col_index(ck, int(a_pp), int(n_from))
                                    D[r, col] = F.add[D[r, col], v]
            else:
                _, c = kind
                for a_p in range(dm):
                    base = (c * (-1) ** int(M.parity[a_p])) % p
                    # (-1)^{|F|} V_N . F[a', ck]
                    vn_sign = (base * sign_f) % p
                    for n_to in range(dn):
                        for n_from in np.nonzero(N.V[n_to, :])[0]:
                            v = int(F.mul[F.scalar(vn_sign), N.V[n_to, n_from]])
                            r = row_index(rj, a_p, n_to)
                            col = col_index(ck, a_p, int(n_from))
                            D[r, col] = F.add[D[r, col], v]
                    # minus (V_M m)(x) part
                    for a_pp in np.nonzero(M.V[:, a_p])[0]:
                        cc = int(F.mul[F.scalar((-base) % p), M.V[a_pp, a_p]])
                        for nidx in range(dn):
                            r = row_index(rj, a_p, nidx)
                            col = col_index(ck, int(a_pp), nidx)
                            D[r, col] = F.add[D[r, col], cc]
        return D

    dims = []
    for tau in (0, 1):
        mats = [build_diff(i, tau) for i in range(maxdeg + 1)]
        # restrict to tau-parity coordinates per degree
        sel = []
        for i in range(maxdeg + 2):
            if i == 0:
                coords = [
                    a * dn + nd
                    for a in range(dm)
                    for nd in range(dn)
                    if coord_parity(0, a, nd, 0) == tau
                ]
            else:
                coords = [
                    (j * dm + a) * dn + nd
                    for j in (0, 1)
                    for a in range(dm)
                    for nd in range(dn)
                    if coord_parity(j, a, nd, i) == tau
                ]
            sel.append(np.array(coords, dtype=int))
        ranks = []
        for i in range(maxdeg + 1):
            block = mats[i][np.ix_(sel[i + 1], sel[i])]
            ranks.append(linalg.rank(F, block))
        hh = []
        for i in range(maxdeg + 1):
            rank_in = ranks[i - 1] if i > 0 else 0
            hh.append(len(sel[i]) - ranks[i] - rank_in)
        dims.append(hh)
    table = [(dims[0][i], dims[1][i]) for i in range(maxdeg + 1)]
    return ExtTable(table)


# -- minimal resolutions over finite local superalgebras ------------------


def _graded_right_kernel(F, A, col_parity, row_parity):
    """Kernel basis of a parity-preserving map, one parity block at a time.

    Returns (columns matrix, parity vector of the kernel basis).
    """
    cols_out = []
    pars = []
    for par in (0, 1):
        csel = np.nonzero(col_parity == par)[0]
        rsel = np.nonzero(row_parity == par)[0]
        if not csel.size:
            continue
        block = A[np.ix_(rsel, csel)] if rsel.size else linalg.zeros(0, len(csel))
        # entries outside the matching rows must vanish for a graded map
        other = np.nonzero(row_parity != par)[0]
        if other.size and np.any(A[np.ix_(other, csel)]):
            raise ValidationError("map is not parity graded")
        K = linalg.right_kernel(F, block)
        for t in range(K.shape[1]):
            full = linalg.zeros(A.shape[1], 1).ravel()
            full[csel] = K[:, t]
            cols_out.append(full)
            pars.append(par)
    if not cols_out:
        return linalg.zeros(A.shape[1], 0), np.zeros(0, dtype=np.int8)
    return np.stack(cols_out, axis=1), np.array(pars, dtype=np.int8)


def _free_module(A, gen_parities):
    """Free module on homogeneous generators: coordinates (gen, basis)."""
    rank = len(gen_parities)
    dim = rank * A.dim
    parity = np.zeros(dim, dtype=np.int8)
    for g, gp in enumerate(gen_parities):
        parity[g * A.dim : (g + 1) * A.dim] = (A.parity.astype(np.int8) + gp) % 2
    reg = regular_module(A)
    action = {}
    for name in A.generators:
        blocks = reg.action[name]
        mat = linalg.zeros(dim, dim)
        for g in range(rank):
            mat[g * A.dim : (g + 1) * A.dim, g * A.dim : (g + 1) * A.dim] = blocks
        action[name] = mat
    return SuperModule(A, dim, parity, action)


@dataclass
class ResolutionData:
    """A minimal resolution ... -> P_1 -> P_0 -> M -> 0 over a local algebra.

    boundaries[0] maps P_0 onto M; boundaries[n] maps P_n into P_{n-1}.
    omega[i] holds a column basis of ker(boundaries[i]) inside P_i together
    with its parity vector, so omega[n-1] is the n-th syzygy Omega^n(M).
    """

    algebra: object
    target: SuperModule
    gen_parities: list  # per step: tuple of generator parities
    modules: list  # the free modules P_n
    boundaries: list  # matrices
    omega: list  # omega[i] = (column basis of ker(boundaries[i]), parities)
    minimal: bool = True

    def ranks(self):
        return [
            (sum(1 for x in g if x == 0), sum(1 for x in g if x == 1))
            for g in self.gen_parities
        ]


def _unit_coords(A, rank):
    return np.array([g * A.dim + A.unit_index for g in range(rank)], dtype=int)


def _submodule(P: SuperModule, cols, par):
    """The submodule of P spanned by the given (invariant) columns."""
    F = linalg.tables(P.algebra.field)
    action = {}
    for g in P.algebra.generators:
        action[g] = linalg.restrict_operator(F, cols, P.action[g]) if cols.size else linalg.zeros(0, 0)
    return SuperModule(P.algebra, cols.shape[1], par.copy(), action)


def _cover(Q: SuperModule):
    """Minimal free cover of Q: generator parities and the map matrix
    (columns indexed by (gen, algebra basis))."""
    A = Q.algebra
    F = linalg.tables(A.field)
    if Q.dim == 0:
        return (), linalg.zeros(0, 0)
    rad_cols = []
    for b in A.radical_coords():
        rad_cols.append(Q.basis_action(b))
    rad = np.concatenate(rad_cols, axis=1) if rad_cols else linalg.zeros(Q.dim, 0)
    comp = linalg.complement_coords(F, rad)
    gen_par = tuple(int(Q.parity[c]) for c in comp)
    dmat = linalg.zeros(Q.dim, len(comp) * A.dim)
    for g, c in enumerate(comp):
        for b in range(A.dim):
            dmat[:, g * A.dim + b] = Q.basis_action(b)[:, c]
    return gen_par, dmat


def minimal_resolution(A, M: SuperModule, steps: int) -> ResolutionData:
    """Minimal free resolution of M over a finite-dimensional local algebra.

    Iteratively covers by the free module on M_n/(rad M_n); boundary
    entries stay in the radical, which is re-checked at every step.
    """
    _check_local(A)
    rep = validate_module(M)
    rep.raise_if_invalid()
    F = linalg.tables(A.field)
    gens0, d0 = _cover(M)
    P0 = _free_module(A, gens0)
    res = ResolutionData(
        algebra=A,
        target=M,
        gen_parities=[gens0],
        modules=[P0],
        boundaries=[d0],
        omega=[],
    )
    K, Kpar = _graded_right_kernel(F, d0, P0.parity, M.parity)
    res.omega.append((K, Kpar))
    while len(res.modules) <= steps:
        Kcols, Kpar = res.omega[-1]
        sub_mod = _submodule(res.modules[-1], Kcols, Kpar)
        gens, dmat = _cover(sub_mod)
        res.gen_parities.append(gens)
        P = _free_module(A, gens)
        res.modules.append(P)
        bnd = linalg.matmul(F, Kcols, dmat) if Kcols.size else linalg.zeros(res.modules[-2].dim, 0)
        res.boundaries.append(bnd)
        # minimality: columns live in rad . P_{n-1}
        unit_rows = _unit_coords(A, len(res.gen_parities[-2]))
        if bnd.size and np.any(bnd[unit_rows, :]):
            res.minimal = False
        K, Kpar = _graded_right_kernel(F, bnd, P.parity, res.modules[-2].parity)
        res.omega.append((K, Kpar))
    return res


def _check_local(A):
    """Augmentation ideal spanned by the non-unit basis and nilpotent."""
    F = linalg.tables(A.field)
    if any(A.augmentation[i] for i in A.radical_coords()) or not A.augmentation[A.unit_index]:
        raise ValidationError("algebra augmentation is not the unit indicator")
    # nilpotency of the radical via powers of its spanning set
    rad = [A.el_basis(i) for i in A.radical_coords()]
    layer = rad
    for _ in range(A.dim + 1):
        if not layer:
            return
        nxt = []
        mat = []
        for x in layer:
            for y in rad:
                z = A.el_mul(x, y)
                if np.any(z):
                    nxt.append(z)
                    mat.append(z)
        if not nxt:
            return
        Mx = np.stack(mat, axis=1)
        keep = linalg.column_space(F, Mx)
        layer = [keep[:, i] for i in range(keep.shape[1])]
    raise ValidationError("augmentation ideal is not nilpotent; algebra not local")


def resolution_of_trivial(A, steps: int) -> ResolutionData:
    """Cached minimal resolution of the trivial module."""
    cached = getattr(A, "_trivial_resolution", None)
    if cached is not None and len(cached.modules) > steps:
        return cached
    res = minimal_resolution(A, trivial_module(A), steps)
    A._trivial_resolution = res
    return res


@dataclass
class CocycleClass:
    """A degree-n class: a functional on P_n vanishing on the next boundary."""

    degree: int
    vector: np.ndarray  # (dim P_n,) indices
    parity: int


def cocycle_from_values(res: ResolutionData, n: int, values, parity: int) -> CocycleClass:
    """Class from its values on the degree-n generators (algebra-linear)."""
    A = res.algebra
    F = linalg.tables(A.field)
    gens = res.gen_parities[n]
    if len(values) != len(gens):
        raise ValidationError(f"need {len(gens)} generator values")
    vec = linalg.zeros(1, res.modules[n].dim).ravel()
    for g, val in enumerate(values):
        idx = F.scalar(val)
        if idx and gens[g] != parity:
            raise ValidationError("nonzero value on a generator of the wrong parity")
        vec[g * A.dim + A.unit_index] = idx
    return CocycleClass(n, vec, parity)


def carlson_module(A, n: int, zeta: CocycleClass) -> SuperModule:
    """L_zeta: the kernel of the class, viewed on the n-th syzygy of k.

    Omega^n(k) is ker(d_{n-1}) inside P_{n-1}; the representative map
    zeta_hat on it sends d_n(x) to zeta(x), and L_zeta = ker(zeta_hat) has
    codimension one in Omega^n(k).
    """
    if n < 1:
        raise ValidationError("carlson_module needs degree n >= 1")
    res = resolution_of_trivial(A, n + 1)
    F = linalg.tables(A.field)
    if not np.any(zeta.vector):
        raise ValidationError("zeta is zero")
    if zeta.vector.shape != (res.modules[n].dim,):
        raise ValidationError("zeta has the wrong length for degree n")
    # cocycle condition: zeta vanishes on the image of the next boundary
    nxt = res.boundaries[n + 1]
    if nxt.size and np.any(linalg.matmul(F, zeta.vector.reshape(1, -1), nxt)):
        raise ValidationError("zeta is not a cocycle")
    Kcols, Kpar = res.omega[n - 1]
    if Kcols.shape[1] == 0:
        raise ValidationError("the syzygy is zero; no Carlson module")
    X = linalg.solve(F, res.boundaries[n], Kcols)
    if X is None:
        raise ValidationError("boundary does not surject onto the syzygy")
    zhat = linalg.matmul(F, zeta.vector.reshape(1, -1), X)
    if not np.any(zhat):
        raise ValidationError("zeta vanishes on the syzygy")
    support_par = set(int(Kpar[j]) for j in np.nonzero(zhat.ravel())[0])
    if len(support_par) > 1:
        raise ValidationError("zeta is not parity homogeneous on the syzygy")
    ker = linalg.right_kernel(F, zhat)
    Lcols = linalg.matmul(F, Kcols, ker)
    Lpar = []
    for t in range(ker.shape[1]):
        pars = set(int(Kpar[j]) for j in np.nonzero(ker[:, t])[0])
        if len(pars) != 1:
            raise ValidationError("kernel basis is not homogeneous")
        Lpar.append(pars.pop())
    P = res.modules[n - 1]
    action = {}
    for g in A.generators:
        try:
            action[g] = linalg.restrict_operator(F, Lcols, P.action[g])
        except ValueError:
            raise ValidationError("kernel of zeta is not a submodule") from None
    out = SuperModule(A, Lcols.shape[1], np.array(Lpar, dtype=np.int8), action)
    validate_module(out).raise_if_invalid()
    if out.dim != Kcols.shape[1] - 1:
        raise ValidationError("Carlson module has unexpected dimension")
    return out
