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

from dataclasses import dataclass, replace

import numpy as np

from .errors import BoundExceeded, ValidationError
from . import linalg
from .smod import (
    P1ModuleView,
    SuperModule,
    p1_dual,
    p1_tensor,
    trivial_module,
    validate_module,
)

PD_FINITE = "FiniteAtMostOne"
PD_INFINITE = "Infinite"

# Caps on the depth of an Ext table and of a minimal resolution.
EXT_DEGREE_CAP = 10_000
RESOLVE_STEPS_CAP = 100
# Cap on the dimension rank * dim A of each free module of a resolution.
RESOLVE_DIM_CAP = 2048


def check_depth(what: str, n: int, low: int, cap: int) -> None:
    """Reject a degree or step count below `low` (ValidationError) or above
    `cap` (BoundExceeded); callers run it before any work starts."""
    if n < low:
        raise ValidationError(f"{what} must be at least {low}")
    if n > cap:
        raise BoundExceeded(f"{what} {n} exceeds cap {cap}")


@dataclass
class CochainComplex:
    """Cochain spaces with parity vectors and differentials C^i -> C^{i+1}.

    The differentials may carry leading stack axes, (..., dim_{i+1}, dim_i):
    a stack of complexes on the same cochain spaces.  The checks below then
    cover every slice, `d.d = 0` only with `check` (see p1_hom_complex);
    `cohomology_dims` needs single matrices.

    A periodic complex repeats the same matrix and parity objects from
    degree to degree.  The `d.d = 0` and parity checks run once per
    distinct (d_{i+1}, d_i, parity_{i+1}, parity_i), and each parity block
    of a differential is ranked once per distinct (d_i, parity_{i+1},
    parity_i), both keyed on object identity: a repeated degree holds the
    same matrices, so its check and its ranks are the same.  Differentials
    that are equal but distinct objects are checked and ranked again.
    """

    field: object
    parities: list  # per degree: (dim_i,) array of 0/1
    diffs: list  # diffs[i]: matrix (dim_{i+1}, dim_i)
    check: bool = True

    def __post_init__(self):
        F = linalg.tables(self.field)
        checked = set()
        for i in range(len(self.diffs) - 1):
            d, d_next = self.diffs[i], self.diffs[i + 1]
            src, tgt = self.parities[i], self.parities[i + 1]
            key = (id(d_next), id(d), id(tgt), id(src))
            if key in checked:
                continue
            checked.add(key)
            if self.check and np.any(linalg.bmatmul(F, d_next, d)):
                raise ValidationError(f"differentials do not compose to zero at degree {i}")
            # the differential preserves cochain parity
            rows, cols = linalg.stack_nonzero(d)
            if np.any(tgt[rows] != src[cols]):
                raise ValidationError(f"differential mixes parities at degree {i}")

    def cohomology_dims(self):
        """List of (even_dim, odd_dim) for degrees 0 .. len(diffs) - 1."""
        F = linalg.tables(self.field)
        block_ranks = {}

        def block_rank(d, par):
            key = (id(self.diffs[d]), id(self.parities[d + 1]), id(self.parities[d]), par)
            if key not in block_ranks:
                rows = np.nonzero(self.parities[d + 1] == par)[0]
                cols = np.nonzero(self.parities[d] == par)[0]
                block = self.diffs[d][np.ix_(rows, cols)]
                block_ranks[key] = linalg.rank(F, block) if block.size else 0
            return block_ranks[key]

        out = []
        for d in range(len(self.diffs)):
            dims = []
            for par in (0, 1):
                cols = int((self.parities[d] == par).sum())
                dims.append(cols - block_rank(d, par) - (block_rank(d - 1, par) if d else 0))
            out.append(tuple(dims))
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


def p1_hom_complex(W: P1ModuleView, maxdeg: int, check: bool = False) -> CochainComplex:
    """The complex Hom_{P_1}(P_bullet, W) for the 2-periodic resolution.

    Degree 0 is W; each higher degree is W + Pi(W), as pairs (w0, w1) of
    values on the even and odd free generator.  Differentials precompose
    with (u, v), phi, psi, psi, phi, ... and carry the sign (-1)^{|f|} on
    the entries acted on through v, realized by V pi.

    W is assumed valid: views are validated when first constructed, and
    p1_dual and p1_tensor are closed on valid views.  From a valid view (U
    even, V odd, UV = VU, V^2 = -U^p) the complex has d.d = 0 by
    construction, since phi psi = psi phi = (u^p + v^2) I and (u, v) phi = 0
    in P_1.  So the d.d = 0 check runs only with `check`, which ext_dims,
    pd_class, cup_y_square and the tests pass; the parity check always
    runs.  A stacked W gives the stack of complexes.
    """
    check_depth("maxdeg", maxdeg, 2, EXT_DEGREE_CAP)
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

    # degrees >= 1 share one parity array, so the complex's checks and
    # ranks see the repeated degrees as repeats
    shifted = np.concatenate([W.parity, (1 - W.parity).astype(np.int8)])
    parities = [W.parity.copy()] + [shifted] * (maxdeg + 1)

    diffs = [np.concatenate([U, Vp], axis=-2)]
    d_phi = np.block([[Up, nVp], [Vp, nU]]).astype(linalg.DT)
    d_psi = np.block([[U, nVp], [Vp, nUp]]).astype(linalg.DT)
    for i in range(1, maxdeg + 1):
        diffs.append(d_phi if i % 2 == 1 else d_psi)
    return CochainComplex(W.field, parities, diffs, check)


def ext_dims(M: P1ModuleView, N: P1ModuleView, maxdeg: int) -> ExtTable:
    """Ext_{P_1}(M, N) through maxdeg, via the coefficient module M^# (x) N."""
    if M.field != N.field:
        raise ValidationError("Ext needs both modules over the same field")
    W = p1_tensor(p1_dual(M), N)
    cx = p1_hom_complex(W, maxdeg, check=True)
    return ExtTable(cx.cohomology_dims()[: maxdeg + 1])


def pd_infinite(M: P1ModuleView, check: bool = False) -> np.ndarray:
    """Whether pd over P_1 is infinite, for each slice of a (stacked) view.

    For torsion modules pd is the top nonvanishing Ext(M, k) degree, and by
    the 2-periodicity in degrees >= 2 that is infinite exactly when
    Ext^2(M, k) is nonzero, equivalently Ext^2(M, M) is nonzero.  Only the
    total dimension of H^2 of Hom(P, M^#) is needed, 2n - rank(d_phi) -
    rank(d_psi), so no parity splitting happens here.

    The whole stack goes through one dual, one complex with its parity
    check (and, with `check`, its d.d = 0 check, which holds by
    construction for a valid view; see p1_hom_complex), and one lockstep
    rank of d_phi and d_psi stacked together; the stacked 2n x 2n blocks
    take 4 n^2 cells per slice and differential.  Returns a bool array of
    the view's stack shape (a numpy bool for a single view).
    """
    if M.dim == 0:
        raise ValidationError("pd_class of the zero module")
    cx = p1_hom_complex(p1_dual(M), 2, check)
    ranks = linalg.ranks(M.F, np.stack([cx.diffs[1], cx.diffs[2]]))
    return 2 * M.dim - ranks[0] - ranks[1] != 0


def pd_class(M: P1ModuleView) -> str:
    """Trichotomy of projective dimension over P_1: finite means at most 1.

    The one-view case of `pd_infinite`, with its checks.
    """
    return PD_INFINITE if pd_infinite(M, check=True) else PD_FINITE


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
    cx = p1_hom_complex(W, 4, check=True)
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


# -- minimal resolutions over finite local superalgebras ------------------


def _graded_right_kernel(F, A, col_parity, row_parity):
    """Kernel basis of a parity-preserving map (the caller checks it), by parity block.

    Returns (columns matrix, parity vector of the kernel basis).
    """
    blocks = [linalg.zeros(A.shape[1], 0)]
    pars = []
    for par in (0, 1):
        csel = np.nonzero(col_parity == par)[0]
        rsel = np.nonzero(row_parity == par)[0]
        if not csel.size:
            continue
        block = A[np.ix_(rsel, csel)] if rsel.size else linalg.zeros(0, len(csel))
        K = linalg.right_kernel(F, block)
        blocks.append(linalg.zeros(A.shape[1], K.shape[1]))
        blocks[-1][csel] = K
        pars += [par] * K.shape[1]
    return np.concatenate(blocks, axis=1), np.array(pars, dtype=np.int8)


@dataclass
class ResolutionData:
    """A minimal resolution ... -> P_1 -> P_0 -> M -> 0 over a local algebra.

    P_n is the free module A^rank on the generator parities gen_parities[n],
    with coordinates (gen, basis) and held by those parities alone: an
    algebra element acts on it by its regular action on each block of
    dim A coordinates (see `_block_act`).
    boundaries[0] maps P_0 onto M; boundaries[n] maps P_n into P_{n-1}.
    omega[i] holds a column basis of ker(boundaries[i]) inside P_i together
    with its parity vector, so omega[n-1] is the n-th syzygy Omega^n(M).
    """

    algebra: object
    target: SuperModule
    gen_parities: list  # per step: tuple of generator parities
    boundaries: list  # matrices
    omega: list  # omega[i] = (column basis of ker(boundaries[i]), parities)
    minimal: bool = True

    def free_dim(self, n):
        """Dimension of P_n."""
        return len(self.gen_parities[n]) * self.algebra.dim

    def ranks(self):
        return [
            (sum(1 for x in g if x == 0), sum(1 for x in g if x == 1))
            for g in self.gen_parities
        ]


def _block_act(F, S, K):
    """Regular actions, given by tensor slices S = T[b] (..., dim A, dim A)
    as b acts by S.T, on the columns K of a free module over A, block by
    block: shape (..., rank, dim A, columns), from one product K' S."""
    d, (n, cols) = S.shape[-1], K.shape
    K = K.reshape(n // d, d, cols).transpose(0, 2, 1).reshape(-1, d)
    out = linalg.bmatmul(F, K, S).reshape(S.shape[:-2] + (n // d, cols, d))
    return out.swapaxes(-2, -1)


def minimal_resolution(A, M: SuperModule, steps: int) -> ResolutionData:
    """Minimal free resolution of M over a finite-dimensional local algebra.

    Each step covers a syzygy Omega by the free module on Omega/(rad Omega),
    and no P_n is built (see ResolutionData).  Omega is the column span of
    the kernel basis K from `_graded_right_kernel`, and `right_kernel` puts
    the identity on K's free rows f: row f_t is column t's last nonzero
    row, since a pivot row of an rref is zero left of its pivot.  So a
    vector w of Omega is K w[f], and a generator g with regular action L_g
    acts on Omega by X_g = (L_g K)[f], a row gather with no solve.

    Omega must be a submodule for X_g to be its action: checked at each
    step for all generators at once as K X_g = L_g K on the rows outside f
    (on f both sides are X_g; ValidationError otherwise).  Each radical
    basis element is a scalar times a word g w in the generators
    (verify_algebra's premise), so rad Omega = sum_g g Omega, and
    complement_coords, which reads only the column space, picks the cover's
    generators c from the X_g (the generators' actions on M at step 0).
    The boundary sends (c, b) to L_b K_c.  Its columns lie in Omega, so it
    is K times its rows f, with K injective: the same row space, hence the
    same rref and kernel, which is taken on the rows f.  The parity check,
    the minimality test (entries in the radical) and the stored boundary
    read the whole matrix.  All agrees with restricting a dense P_n to
    Omega and covering through the whole radical.  The dimension of each
    P_n is capped by RESOLVE_DIM_CAP (BoundExceeded), checked once its
    rank is known and before its boundary is built.
    """
    check_depth("steps", steps, 0, RESOLVE_STEPS_CAP)
    _check_local(A)
    validate_module(M).raise_if_invalid()
    F = linalg.tables(A.field)
    gidx = list(A.generators.values())
    T = A.tensor
    acts = M.basis_actions().reshape(A.dim, M.dim, M.dim)
    res = ResolutionData(algebra=A, target=M, gen_parities=[], boundaries=[], omega=[])
    # S spans rad . Omega (Omega = M at step 0): column (g, j) is g on vector j
    S = acts[gidx].transpose(1, 0, 2).reshape(M.dim, len(gidx) * M.dim)
    Kpar = tgt_par = M.parity
    f = np.arange(M.dim)  # Omega = M, with K the identity
    while len(res.gen_parities) <= steps:
        if res.omega:
            K, Kpar = res.omega[-1]
            f = K.shape[0] - 1 - np.argmax(K[::-1] != 0, axis=0) if K.size else []
            rest = np.delete(np.arange(K.shape[0]), f)  # K X_g = L_g K holds on f
            LK = _block_act(F, T[gidx], K).reshape((len(gidx),) + K.shape)
            X = LK[:, f]
            if not np.array_equal(linalg.bmatmul(F, K[rest], X), LK[:, rest]):
                raise ValidationError(f"syzygy {len(res.omega)} is not a submodule")
            S = X.transpose(1, 0, 2).reshape(len(f), len(gidx) * len(f))
        comp = linalg.complement_coords(F, S)
        gens = tuple(int(Kpar[c]) for c in comp)
        check_depth(f"dim P_{len(res.gen_parities)}", len(gens) * A.dim, 0, RESOLVE_DIM_CAP)
        if res.omega:
            bnd = _block_act(F, T, K[:, comp]).transpose(1, 2, 3, 0)
            # minimality: columns live in rad . P_{n-1}
            if bnd[:, A.unit_index].any():
                res.minimal = False
        else:
            bnd = acts[:, :, comp].transpose(1, 2, 0)
        bnd = bnd.reshape(len(tgt_par), len(comp) * A.dim)
        par = ((np.array(gens, dtype=np.int8)[:, None] + A.parity) % 2).astype(np.int8).ravel()
        rows, cols = np.nonzero(bnd)
        if np.any(tgt_par[rows] != par[cols]):
            raise ValidationError("map is not parity graded")
        res.gen_parities.append(gens)
        res.boundaries.append(bnd)
        # bnd = K bnd[f] with K injective: the same row space, so the same kernel
        res.omega.append(_graded_right_kernel(F, bnd[f], par, Kpar))
        tgt_par = par
    return res


def _check_local(A):
    """Augmentation ideal I spanned by the non-unit basis and nilpotent;
    returns the dimensions of I, I^2, ..., ending in 0.

    Every basis element is a scalar times a word in the generators
    (verify_algebra's premise), so I^n is spanned by the words of length at
    least n, and I^{n+1} = sum_g I^n g.  Each layer is thus one product
    x T[:, g] of a basis x of I^n with every generator g at once, and one
    rref keeps a basis.
    """
    F = linalg.tables(A.field)
    d, rad = A.dim, A.radical_coords()
    if A.augmentation[rad].any() or not A.augmentation[A.unit_index]:
        raise ValidationError("algebra augmentation is not the unit indicator")
    right = A.tensor[:, list(A.generators.values())].reshape(d, -1)  # b_m g at column (g, k)
    layer, dims = linalg.identity(d)[rad], []
    for _ in range(d + 1):
        dims.append(len(layer))
        if not layer.size:
            return dims
        R, pivots = linalg.rref(F, linalg.matmul(F, layer, right).reshape(-1, d))
        layer = R[: len(pivots)]
    raise ValidationError("augmentation ideal is not nilpotent; algebra not local")


def resolution_of_trivial(A, steps: int) -> ResolutionData:
    """Minimal resolution of the trivial module up to P_steps: steps + 1 entries.

    The longest resolution computed so far is cached on the algebra; a
    shorter one is its prefix, so the result does not depend on what ran
    before.  `minimal` is the cached run's flag (a prefix of a minimal
    resolution is minimal).
    """
    cached = getattr(A, "_trivial_resolution", None)
    if cached is None or len(cached.gen_parities) <= steps:
        cached = A._trivial_resolution = minimal_resolution(A, trivial_module(A), steps)
    k = steps + 1
    return replace(
        cached,
        gen_parities=cached.gen_parities[:k],
        boundaries=cached.boundaries[:k],
        omega=cached.omega[:k],
    )


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
    vec = linalg.zeros(1, res.free_dim(n)).ravel()
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
    if zeta.vector.shape != (res.free_dim(n),):
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
    action = {}
    for g, i in A.generators.items():
        action[g] = linalg.solve(F, Lcols, _block_act(F, A.tensor[i], Lcols).reshape(Lcols.shape))
        if action[g] is None:
            raise ValidationError("kernel of zeta is not a submodule")
    out = SuperModule(A, Lcols.shape[1], np.array(Lpar, dtype=np.int8), action)
    validate_module(out).raise_if_invalid()
    if out.dim != Kcols.shape[1] - 1:
        raise ValidationError("Carlson module has unexpected dimension")
    return out
