"""Ext over P_1 by the untwisted pipeline: the oracle for homalg.ext_dims.

Ext via Hom_{P_1}(M (x) P_bullet, N), building every degree's differential
on its own, independently of the contragredient route that the library
takes (homalg.p1_hom_complex), so it cross-checks the sign conventions.
"""

import numpy as np

from supvar import linalg
from supvar.errors import ValidationError
from supvar.homalg import ExtTable
from supvar.smod import P1ModuleView


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
